package segment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wal"
)

// Retention bounds the cold tier. The zero value keeps every segment
// forever; with bounds set, whole segments are garbage-collected from
// the oldest end, advancing the cold base — after which ErrStaleCursor
// for a cursor below it means "segment deleted by age-based GC", not
// "fell behind RAM".
type Retention struct {
	// MaxAge drops a segment once its newest generation time has fallen
	// more than MaxAge ticks behind the newest generation time ever
	// spilled (0 = unlimited). The clock is event time, mirroring the
	// hot store's Retention.MaxAge — no wall clock is involved.
	MaxAge timemodel.Tick
	// MaxBytes caps the total segment file size (0 = unlimited).
	MaxBytes int64
	// MaxSegments caps the segment count (0 = unlimited).
	MaxSegments int
}

// Config parameterizes a segment directory.
type Config struct {
	// Dir is the directory holding the segment files; created if absent.
	Dir string
	// CellSize is the grid cell size of the block indexes' spatial
	// extent/bloom (0 selects 16, the store's default grid cell).
	CellSize float64
	// BlockSize is the number of instances per block (0 selects
	// DefaultBlockSize).
	BlockSize int
	// Retention is the cold GC policy.
	Retention Retention
	// Stamp, when set, supplies the WAL sequence number stamped into
	// each spilled segment — the crash-consistency witness: at recovery,
	// a segment stamped past the recovered snapshot's WAL coverage
	// (DiscardAfter) is deleted, because its instances re-enter the hot
	// store from the snapshot/WAL replay and would otherwise duplicate.
	// Nil stamps 0 (always retained).
	Stamp func() uint64
	// NoSync skips fsync on spill. A crash may then lose renamed
	// segments (they re-enter from WAL replay on a durable engine);
	// meant for benchmarks and tests.
	NoSync bool
}

// DefaultCellSize matches db.DefaultGridCell.
const DefaultCellSize = 16.0

// Stats is the cold tier's accounting, served under /stats.
type Stats struct {
	// Segments is the attached segment count.
	Segments int `json:"segments"`
	// Instances is the total instance count across attached segments.
	Instances uint64 `json:"instances"`
	// Bytes is the total attached segment file size.
	Bytes int64 `json:"bytes"`
	// BaseSeq/EndSeq delimit the covered sequence range [BaseSeq,
	// EndSeq); zero when no segments are attached.
	BaseSeq uint64 `json:"baseSeq"`
	EndSeq  uint64 `json:"endSeq"`
	// Spills counts segments written by this process.
	Spills uint64 `json:"spills"`
	// SpilledInstances counts instances written by this process.
	SpilledInstances uint64 `json:"spilledInstances"`
	// GCSegments counts segments deleted by the retention policy.
	GCSegments uint64 `json:"gcSegments"`
	// Discarded counts segments deleted at open/attach time: corrupt
	// files, pre-gap leftovers, and stamps past the recovery bound.
	Discarded uint64 `json:"discardedSegments"`
	// Scans counts cold scans served.
	Scans uint64 `json:"scans"`
	// BlocksRead / BlocksPruned count block frames read vs. skipped via
	// the footer index across all scans — the pruning effectiveness.
	BlocksRead   uint64 `json:"blocksRead"`
	BlocksPruned uint64 `json:"blocksPruned"`
}

// ScanInfo reports one scan's coverage and work. Base/End are the
// covered sequence range pinned at scan start — the caller's witness
// for strict-cursor decisions (a cursor below Base points at
// GC-deleted history).
type ScanInfo struct {
	Base, End    uint64
	Segments     int
	BlocksRead   int
	BlocksPruned int
	Records      int
}

// Dir is a directory of immutable segments covering one contiguous
// sequence range. Spill appends at the top; GC deletes from the
// bottom; Scan serves ascending-sequence filtered reads. Safe for
// concurrent use: scans pin the segments they read, so GC never yanks
// a file out from under one.
type Dir struct {
	cfg Config

	mu     sync.Mutex
	segs   []*Segment     //stcps:guardedby mu -- ascending, contiguous firstSeq
	bytes  int64          //stcps:guardedby mu
	maxGen timemodel.Tick //stcps:guardedby mu -- newest gen ever attached
	closed bool           //stcps:guardedby mu

	spills           atomic.Uint64
	spilledInstances atomic.Uint64
	gcSegments       atomic.Uint64
	discarded        atomic.Uint64
	scans            atomic.Uint64
	blocksRead       atomic.Uint64
	blocksPruned     atomic.Uint64
}

// Open attaches (or creates) a segment directory. Crash leftovers are
// resolved deterministically: *.tmp files (a spill the crash cut short
// of its rename) are deleted; segment files failing validation are
// deleted; segments below a coverage gap are deleted (only the maximal
// contiguous run ending at the newest segment is attachable). What
// remains is a clean contiguous range ready to merge under the hot
// store.
func Open(cfg Config) (*Dir, error) {
	if cfg.CellSize <= 0 {
		cfg.CellSize = DefaultCellSize
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	d := &Dir{cfg: cfg}
	// No concurrent access is possible before Open returns; the lock is
	// taken anyway so the guardedby contract holds by construction.
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(cfg.Dir, name)
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A spill that never reached its rename: never visible,
			// discard.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("segment: %w", err)
			}
			d.discarded.Add(1)
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			seg, err := open(path)
			if err != nil {
				// Corrupt (torn tail, bit flip, stitched): fail loud in
				// the name, deterministic in the outcome — delete it and
				// count it. The WAL/snapshot still covers anything a
				// damaged spill held.
				if rerr := os.Remove(path); rerr != nil {
					return nil, fmt.Errorf("segment: removing corrupt %s: %w", name, rerr)
				}
				d.discarded.Add(1)
				continue
			}
			if wantSegmentName(seg.firstSeq) != name {
				seg.kill()
				if rerr := os.Remove(path); rerr != nil {
					return nil, fmt.Errorf("segment: removing misnamed %s: %w", name, rerr)
				}
				d.discarded.Add(1)
				continue
			}
			d.segs = append(d.segs, seg)
		}
	}
	segs := d.segs
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	d.dropBelowGapLocked()
	for _, s := range d.segs {
		d.bytes += s.size
		if s.maxGen > d.maxGen {
			d.maxGen = s.maxGen
		}
	}
	return d, nil
}

func wantSegmentName(firstSeq uint64) string {
	return fmt.Sprintf("seg-%016x.seg", firstSeq)
}

// dropBelowGapLocked keeps only the maximal contiguous run of segments
// ending at the newest one, deleting anything below a gap or overlap
// (unreachable history — a spill failure or partial discard broke the
// chain).
//
//stcps:holds mu
func (d *Dir) dropBelowGapLocked() {
	cut := 0
	for i := len(d.segs) - 1; i > 0; i-- {
		if d.segs[i-1].end() != d.segs[i].firstSeq {
			cut = i
			break
		}
	}
	if cut == 0 {
		return
	}
	for _, s := range d.segs[:cut] {
		_ = os.Remove(s.path)
		s.kill()
		d.discarded.Add(1)
	}
	d.segs = append([]*Segment(nil), d.segs[cut:]...)
}

// DiscardAfter deletes every segment stamped with a WAL sequence
// number beyond walSeq — the recovery rule: such a segment was spilled
// after the WAL coverage the store is being rebuilt from, so its
// instances re-enter the hot tier from the snapshot/WAL replay and
// would duplicate if the segment stayed. Call before AttachCold, with
// the recovered snapshot's WAL sequence.
func (d *Dir) DiscardAfter(walSeq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	keep := d.segs[:0]
	for _, s := range d.segs {
		if s.walSeq > walSeq {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("segment: %w", err)
			}
			d.bytes -= s.size
			s.kill()
			d.discarded.Add(1)
			continue
		}
		keep = append(keep, s)
	}
	d.segs = keep
	d.dropBelowGapLocked()
	return nil
}

// Spill writes one segment holding ins (whose sequence numbers are
// firstSeq, firstSeq+1, ...) and attaches it. The file becomes visible
// only via rename of a fully written, fsynced temporary, then is
// reopened and revalidated — a spill that survives Spill survives a
// crash. firstSeq must extend the covered range contiguously. The
// retention policy runs afterwards, so a spill can retire older
// segments.
func (d *Dir) Spill(firstSeq uint64, ins []event.Instance) error {
	if len(ins) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if n := len(d.segs); n > 0 && d.segs[n-1].end() != firstSeq {
		end := d.segs[n-1].end()
		d.mu.Unlock()
		return fmt.Errorf("segment: spill at seq %d does not extend covered range ending at %d", firstSeq, end)
	}
	d.mu.Unlock()

	var walSeq uint64
	if d.cfg.Stamp != nil {
		walSeq = d.cfg.Stamp()
	}
	final := filepath.Join(d.cfg.Dir, wantSegmentName(firstSeq))
	if err := wal.WriteFileAtomic(final, !d.cfg.NoSync, func(w io.Writer) error {
		return writeTo(w, firstSeq, walSeq, d.cfg.CellSize, d.cfg.BlockSize, ins)
	}); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	seg, err := open(final)
	if err != nil {
		return err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		seg.kill()
		_ = os.Remove(final)
		return ErrClosed
	}
	if n := len(d.segs); n > 0 && d.segs[n-1].end() != firstSeq {
		seg.kill()
		_ = os.Remove(final)
		return fmt.Errorf("segment: concurrent spill broke contiguity at seq %d", firstSeq)
	}
	d.segs = append(d.segs, seg)
	d.bytes += seg.size
	if seg.maxGen > d.maxGen {
		d.maxGen = seg.maxGen
	}
	d.spills.Add(1)
	d.spilledInstances.Add(uint64(len(ins)))
	d.gcLocked()
	return nil
}

// gcLocked enforces the retention policy by deleting segments from the
// oldest end. In-flight scans pinned their segments, so their reads
// complete against the unlinked files; new scans no longer see them.
//
//stcps:holds mu
func (d *Dir) gcLocked() {
	r := d.cfg.Retention
	for len(d.segs) > 0 {
		s0 := d.segs[0]
		switch {
		case r.MaxSegments > 0 && len(d.segs) > r.MaxSegments:
		case r.MaxBytes > 0 && d.bytes > r.MaxBytes:
		case r.MaxAge > 0 && s0.maxGen < d.maxGen-r.MaxAge:
		default:
			return
		}
		_ = os.Remove(s0.path)
		d.bytes -= s0.size
		d.segs = d.segs[1:]
		s0.kill()
		d.gcSegments.Add(1)
	}
}

// Bounds returns the covered sequence range [base, end); ok is false
// when no segments are attached.
func (d *Dir) Bounds() (base, end uint64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.segs) == 0 {
		return 0, 0, false
	}
	return d.segs[0].firstSeq, d.segs[len(d.segs)-1].end(), true
}

// Scan yields every attached instance matching f in ascending sequence
// order. fn returning false stops the scan (the page is full). The
// segments to read are pinned up front under one short lock, so the
// scan observes a consistent coverage snapshot — ScanInfo.Base is that
// snapshot's oldest covered sequence, the strict-cursor witness — and
// concurrent GC cannot open a gap mid-scan. it deduplicates decoded
// strings across records (nil is valid).
func (d *Dir) Scan(f Filter, it *event.Interner, fn func(seq uint64, in *event.Instance) bool) (ScanInfo, error) {
	var info ScanInfo
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return info, ErrClosed
	}
	var pinned []*Segment
	for _, s := range d.segs {
		if info.Base == 0 && info.End == 0 {
			info.Base, info.End = s.firstSeq, s.end()
		} else {
			info.End = s.end()
		}
		if f.MinSeq >= s.end() || (f.MaxSeq != 0 && f.MaxSeq <= s.firstSeq) {
			continue
		}
		if s.acquire() {
			pinned = append(pinned, s)
		}
	}
	d.mu.Unlock()
	defer func() {
		for _, s := range pinned {
			s.release()
		}
	}()

	d.scans.Add(1)
	info.Segments = len(pinned)
	var buf []byte // one block buffer for every segment of the scan
	for _, s := range pinned {
		if f.HasTime && (s.minStart > f.To || s.maxEnd < f.From) {
			info.BlocksPruned += len(s.blocks)
			continue
		}
		read, pruned, recs, stopped, err := s.scan(&f, it, &buf, fn)
		info.BlocksRead += read
		info.BlocksPruned += pruned
		info.Records += recs
		if err != nil {
			d.blocksRead.Add(uint64(info.BlocksRead))
			d.blocksPruned.Add(uint64(info.BlocksPruned))
			return info, err
		}
		if stopped {
			break
		}
	}
	d.blocksRead.Add(uint64(info.BlocksRead))
	d.blocksPruned.Add(uint64(info.BlocksPruned))
	return info, nil
}

// Stats snapshots the cold tier's accounting.
func (d *Dir) Stats() Stats {
	d.mu.Lock()
	st := Stats{
		Segments: len(d.segs),
		Bytes:    d.bytes,
	}
	for _, s := range d.segs {
		st.Instances += s.count
	}
	if len(d.segs) > 0 {
		st.BaseSeq = d.segs[0].firstSeq
		st.EndSeq = d.segs[len(d.segs)-1].end()
	}
	d.mu.Unlock()
	st.Spills = d.spills.Load()
	st.SpilledInstances = d.spilledInstances.Load()
	st.GCSegments = d.gcSegments.Load()
	st.Discarded = d.discarded.Load()
	st.Scans = d.scans.Load()
	st.BlocksRead = d.blocksRead.Load()
	st.BlocksPruned = d.blocksPruned.Load()
	return st
}

// Close detaches every segment (handles close once in-flight scans
// drain) and rejects further operations. Segment files stay on disk
// for the next Open.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	for _, s := range d.segs {
		s.kill()
	}
	d.segs = nil
	return nil
}
