// Package wal implements the durability subsystem of the database
// server: an append-only, segmented write-ahead log of everything the
// detection engine ingests (raw observations and lower-layer instances)
// and everything it emits (detected event instances).
//
// The paper's architecture stores detected instances in a database
// server "for later retrieval"; the in-memory store (internal/db) loses
// them on a crash. The WAL closes that gap: every record is framed with
// a length prefix and a CRC-32 checksum, appended to the active segment
// file and — depending on the fsync policy — synced to stable storage
// before the engine acts on it. On restart the log is replayed: emitted
// instances are re-logged into the store, and ingested entities are
// re-offered to the detectors so half-bound windows survive the crash.
//
// Record framing (little-endian), shared with the binary wire protocol
// via internal/frame (the format was proven here first and extracted):
//
//	+----------+----------+------------------+
//	| len u32  | crc32 u32| payload (len B)  |
//	+----------+----------+------------------+
//
// The payload (format v2) is a record header, then the observation or
// instance in the binary entity codec the wire protocol carries
// (internal/event):
//
//	kind u8 | now varint | conf f64 | source (uvarint len + bytes) | entity
//
// Open reads only kind and now, which compaction needs; Replay decodes
// only the kinds its caller asks for. A torn tail (partial write from a
// crash) fails the length or CRC check and is truncated at open; torn
// records in any segment other than the last indicate real corruption
// and fail the open, and so does a v1 (JSON) payload, with ErrVersion.
//
// Segments are named after the sequence number of their first record
// (%016d.wal) and rotate at Options.SegmentBytes. A snapshot file
// (snapshot-%016d.snap) holds the store's live instances as KindEmit
// records in the same framing and payload, and covers every record up
// to the sequence number in its name; Replay hands its records to the
// callback first, with Seq 0. Sealed segments fully covered by the
// snapshot — and whose ingested entities have all aged past the
// caller-provided horizon, so no window can still need them — are
// deleted by compaction. A directory holding a JSON snapshot
// (snapshot-%016d.ndjson, the format before v2 snapshots) is refused
// with ErrVersion before Open changes anything in it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// WAL errors.
var (
	// ErrClosed is returned when appending to a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCorrupt is returned when a segment other than the last carries a
	// torn or checksum-failing record.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrBadRecord is returned for records that cannot be encoded.
	ErrBadRecord = errors.New("wal: bad record")
	// ErrVersion is returned by Open for a segment or snapshot written in
	// a format this build does not read (the v1 JSON payload, the NDJSON
	// snapshot).
	ErrVersion = errors.New("wal: unsupported record format")
)

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy string

// Fsync policies.
const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the cost of one fsync per record.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer (Options.FsyncEvery): a crash loses
	// at most the last interval's records.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs explicitly: the OS page cache decides. A
	// crash of the process alone loses only buffered bytes; a machine
	// crash can lose everything since the last OS writeback.
	FsyncOff FsyncPolicy = "off"
)

// ParsePolicy maps a policy name to its FsyncPolicy; empty selects
// FsyncInterval.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	default:
		return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// Defaults for Options.
const (
	DefaultFsyncEvery   = 100 * time.Millisecond
	DefaultSegmentBytes = 16 << 20
)

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// Fsync selects the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 16 MiB).
	SegmentBytes int64
}

// Kind classifies a WAL record.
type Kind uint8

// Record kinds.
const (
	// KindObservation is an ingested raw observation.
	KindObservation Kind = 1
	// KindIngest is an ingested lower-layer event instance.
	KindIngest Kind = 2
	// KindEmit is an instance the engine emitted.
	KindEmit Kind = 3
)

// Record is one WAL entry. Seq is assigned by position: the i-th record
// ever appended has Seq i (1-based), so sequence numbers survive
// restarts without being stored. A snapshot's records have Seq 0.
type Record struct {
	Seq  uint64
	Kind Kind
	// Source, Conf and Now reproduce the ingest call for KindObservation
	// and KindIngest records.
	Source string
	Conf   float64
	Now    timemodel.Tick
	// Instance is set for KindIngest and KindEmit.
	Instance *event.Instance
	// Observation is set for KindObservation.
	Observation *event.Observation
}

// segMeta describes one segment file.
type segMeta struct {
	path  string
	first uint64 // seq of the first record (from the file name)
	last  uint64 // seq of the last record; first-1 when empty
	bytes int64
	// hasIngest / maxTick track the ingest-kind records, for the
	// compaction horizon: a segment whose ingests all ended before the
	// horizon can no longer contribute to any detection window.
	hasIngest bool
	maxTick   timemodel.Tick
}

// Stats is a snapshot of the log's counters for monitoring endpoints.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// Bytes is the total size of the live segment files.
	Bytes int64 `json:"bytes"`
	// LastSeq is the sequence number of the newest record.
	LastSeq uint64 `json:"lastSeq"`
	// Appended counts records appended by this process.
	Appended uint64 `json:"appended"`
	// Syncs counts explicit fsyncs.
	Syncs uint64 `json:"syncs"`
	// LastSyncUnixMs is the wall-clock time of the last fsync (0 when
	// never synced).
	LastSyncUnixMs int64 `json:"lastSyncUnixMs"`
	// SyncFailures counts failed fsyncs (including the background
	// interval syncer's, which has no caller to report to).
	SyncFailures uint64 `json:"syncFailures"`
	// TornRecords counts torn tail records truncated at open.
	TornRecords uint64 `json:"tornRecords"`
	// SnapshotSeq is the sequence number covered by the latest snapshot.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Snapshots counts snapshots written by this process.
	Snapshots uint64 `json:"snapshots"`
	// CompactedSegments counts segments deleted by compaction.
	CompactedSegments uint64 `json:"compactedSegments"`
}

// Log is an append-only write-ahead log over a directory of segment
// files. It is safe for concurrent use.
type Log struct {
	opts Options

	mu     sync.Mutex
	f      *os.File      //stcps:guardedby mu
	w      *bufio.Writer //stcps:guardedby mu
	segs   []segMeta     //stcps:guardedby mu -- ordered; the last one is active
	seq    uint64        //stcps:guardedby mu -- last assigned sequence number
	dirty  bool          //stcps:guardedby mu -- unsynced appends outstanding
	closed bool          //stcps:guardedby mu

	appended  uint64    //stcps:guardedby mu
	syncs     uint64    //stcps:guardedby mu
	lastSync  time.Time //stcps:guardedby mu
	torn      uint64    //stcps:guardedby mu
	snapSeq   uint64    //stcps:guardedby mu
	snapRecs  uint64    //stcps:guardedby mu -- records in the snapshot file
	snapshots uint64    //stcps:guardedby mu
	compacted uint64    //stcps:guardedby mu
	// syncFailures / firstErr record fsync failures — the interval
	// policy's background syncer has no caller to return them to, and a
	// later fsync succeeding does NOT mean the lost pages were written.
	syncFailures uint64 //stcps:guardedby mu
	firstErr     error  //stcps:guardedby mu
	// buf holds the frame being appended or snapshotted; enc keeps one
	// encoder (and attribute schema) per kind, so a steady append
	// allocates nothing.
	buf []byte                          //stcps:guardedby mu
	enc [KindEmit + 1]event.WireEncoder //stcps:guardedby mu

	// lock holds the directory lock file (see lockFile) preventing two
	// processes from appending to the same directory.
	lock *os.File

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

const (
	segSuffix  = ".wal"
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
	// maxPayloadBytes bounds one record. Append and the segment readers
	// must agree: a payload Append accepted but the frame reader rejects
	// would brick the log (sealed segment) or silently truncate an
	// acknowledged record (torn-tail handling) at the next open.
	maxPayloadBytes = 64 << 20
	// maxBufBytes caps the append buffer kept between appends.
	maxBufBytes = 64 << 10
)

func segName(first uint64) string { return fmt.Sprintf("%016d%s", first, segSuffix) }
func snapName(seq uint64) string  { return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	if _, err := fmt.Sscanf(mid, "%d", &v); err != nil || len(mid) != 16 {
		return 0, false
	}
	return v, true
}

// Open opens (or creates) the log in opts.Dir, scanning every segment to
// rebuild positions and truncating a torn tail left by a crash.
//
//stcps:holds mu -- open-time: the Log is not yet published
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncInterval
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = DefaultFsyncEvery
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts}

	// One process per directory: two appenders interleaving frames into
	// the active segment would corrupt it beyond the torn-tail repair.
	// The lock (see lockFile) is per-process and dies with the process,
	// so a crashed daemon's successor is never blocked; it does NOT
	// guard two engines sharing a Dir inside one process.
	lock, err := os.OpenFile(filepath.Join(opts.Dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("wal: %s is locked by another process: %w", opts.Dir, err)
	}
	l.lock = lock
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// A directory from a build that wrote NDJSON snapshots is refused
	// before anything below sweeps, deletes or truncates a file in it.
	if i := slices.IndexFunc(entries, func(e os.DirEntry) bool {
		_, ok := parseSeqName(e.Name(), snapPrefix, ".ndjson")
		return ok
	}); i >= 0 {
		return nil, fmt.Errorf("%w: %s is a JSON snapshot; this build reads v2 snapshots only", ErrVersion, entries[i].Name())
	}
	var segFirsts []uint64
	for _, e := range entries {
		if first, ok := parseSeqName(e.Name(), "", segSuffix); ok {
			segFirsts = append(segFirsts, first)
		}
		if seq, ok := parseSeqName(e.Name(), snapPrefix, snapSuffix); ok && seq > l.snapSeq {
			l.snapSeq = seq
		}
		// A crash between CreateTemp and the rename leaves a tmp file
		// with a full store dump; sweep it.
		if strings.HasPrefix(e.Name(), snapPrefix) && strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(opts.Dir, e.Name()))
		}
	}
	if l.snapSeq > 0 {
		// Check the snapshot's frames now, so a damaged snapshot fails the
		// open instead of a recovery that has loaded half of it.
		meta, err := l.scanSegment(filepath.Join(opts.Dir, snapName(l.snapSeq)), 1, false)
		if err != nil {
			return nil, err
		}
		l.snapRecs = meta.last
	}
	sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })

	var metas []segMeta
	for i, first := range segFirsts {
		meta, err := l.scanSegment(filepath.Join(opts.Dir, segName(first)), first, i == len(segFirsts)-1)
		if err != nil {
			return nil, err
		}
		metas = append(metas, meta)
	}
	// The live log is the maximal contiguous suffix chain. Disconnected
	// earlier segments can only be compaction debris — unlinks whose
	// directory update outlived a crash while an earlier one did not —
	// and must be fully covered by the snapshot; finish deleting them.
	// Anything else disconnected is real corruption.
	start := 0
	for i := len(metas) - 1; i > 0; i-- {
		if metas[i-1].last+1 != metas[i].first {
			start = i
			break
		}
	}
	for _, m := range metas[:start] {
		if m.last > l.snapSeq {
			return nil, fmt.Errorf("%w: segment %s is disconnected and not covered by snapshot %d",
				ErrCorrupt, filepath.Base(m.path), l.snapSeq)
		}
		_ = os.Remove(m.path)
		l.compacted++
	}
	l.segs = metas[start:]
	if len(l.segs) > 0 {
		if first := l.segs[0].first; first > l.snapSeq+1 {
			return nil, fmt.Errorf("%w: records %d..%d missing between snapshot and segment %s",
				ErrCorrupt, l.snapSeq+1, first-1, filepath.Base(l.segs[0].path))
		}
		l.seq = l.segs[len(l.segs)-1].last
	}
	if l.snapSeq > l.seq {
		// Every surviving record is covered by the snapshot (the newer
		// segments did not survive): retire the stale chain and restart
		// numbering after the snapshot.
		for _, m := range l.segs {
			_ = os.Remove(m.path)
			l.compacted++
		}
		l.segs = nil
		l.seq = l.snapSeq
	}

	if len(l.segs) == 0 {
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			return nil, err
		}
	} else {
		active := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
	}

	if opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	ok = true
	return l, nil
}

// scanSegment reads one segment end to end, validating frames. A torn
// tail is truncated when the segment is the last one; otherwise it
// fails the open.
//
//stcps:replay
//stcps:holds mu -- open-time: the Log is not yet published
func (l *Log) scanSegment(path string, first uint64, isLast bool) (segMeta, error) {
	meta := segMeta{path: path, first: first, last: first - 1, maxTick: math.MinInt64}
	f, err := os.Open(path)
	if err != nil {
		return meta, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fr := frame.NewReader(bufio.NewReader(f), maxPayloadBytes)
	var off int64
	for {
		payload, n, err := fr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		var kind Kind
		var now timemodel.Tick
		if err == nil {
			kind, now, _, err = header(payload)
		}
		if errors.Is(err, ErrVersion) {
			// A v1 log is refused whole, never "repaired" as a torn tail.
			return meta, fmt.Errorf("%w: %s holds v1 (JSON) records; this build reads v2 only", ErrVersion, filepath.Base(path))
		}
		if err != nil {
			if !isLast {
				return meta, fmt.Errorf("%w: %s at offset %d: %w", ErrCorrupt, filepath.Base(path), off, err)
			}
			// Torn tail from a crash: drop it.
			if terr := os.Truncate(path, off); terr != nil {
				return meta, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), terr)
			}
			l.torn++
			break
		}
		off += int64(n)
		meta.last++
		meta.noteIngest(kind, now)
	}
	meta.bytes = off
	return meta, nil
}

// noteIngest folds one record into the segment's compaction metadata.
func (m *segMeta) noteIngest(kind Kind, now timemodel.Tick) {
	if kind != KindObservation && kind != KindIngest {
		return
	}
	m.hasIngest = true
	if now > m.maxTick {
		m.maxTick = now
	}
}

// uvarint reads a minimally encoded uvarint and its width (0 when
// truncated or padded), so that, as in the entity codec, decoding and
// encoding are inverse.
func uvarint(p []byte) (uint64, int) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// header parses the kind and tick a payload starts with and returns the
// offset past them. A v1 payload, a JSON object, fails with ErrVersion.
func header(p []byte) (Kind, timemodel.Tick, int, error) {
	switch k := Kind(p[0]); k {
	case KindObservation, KindIngest, KindEmit:
		u, n := uvarint(p[1:])
		if n == 0 {
			return 0, 0, 0, event.ErrWireTruncated
		}
		return k, timemodel.Tick(int64(u>>1) ^ -int64(u&1)), 1 + n, nil
	case '{':
		return 0, 0, 0, ErrVersion
	default:
		return 0, 0, 0, fmt.Errorf("record kind %d: %w", k, event.ErrWireBounds)
	}
}

// appendPayload appends rec's payload to dst, its entity through enc.
func appendPayload(dst []byte, enc *event.WireEncoder, rec *Record) ([]byte, error) {
	dst = append(dst, byte(rec.Kind))
	dst = binary.AppendVarint(dst, int64(rec.Now))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Conf))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Source)))
	dst = append(dst, rec.Source...)
	if rec.Kind == KindObservation {
		return enc.AppendObservation(dst, rec.Observation), nil
	}
	return enc.AppendInstance(dst, rec.Instance)
}

// decodePayload parses p into rec (all but Seq), sharing strings via it (may be nil).
func decodePayload(p []byte, rec *Record, it *event.Interner) error {
	kind, now, off, err := header(p)
	if err != nil {
		return err
	}
	if len(p) < off+8 {
		return event.ErrWireTruncated
	}
	conf := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	n, w := uvarint(p[off:])
	if w == 0 || n > uint64(len(p)-off-w) {
		return event.ErrWireTruncated
	}
	off += w
	*rec = Record{Kind: kind, Now: now, Conf: conf, Source: it.Intern(p[off : off+int(n)])}
	off += int(n)
	if kind == KindObservation {
		rec.Observation = new(event.Observation)
		return event.DecodeObservationWire(p[off:], rec.Observation, it)
	}
	rec.Instance = new(event.Instance)
	return event.DecodeInstanceWire(p[off:], rec.Instance, it)
}

// finite reports whether every float in the record is finite: like the
// v1 JSON payload it replaced, the WAL refuses NaN and ±Inf, in segments
// and snapshots alike. v-v is NaN for a non-finite v; a location's
// bounds are finite iff its coordinates are.
func finite(rec *Record) bool {
	sum := rec.Conf - rec.Conf
	add := func(l spatial.Location, a event.Attrs) {
		x0, y0, x1, y1 := l.Bounds()
		sum += x0 - x0 + y0 - y0 + x1 - x1 + y1 - y1
		for _, v := range a {
			sum += v - v
		}
	}
	if rec.Kind == KindObservation {
		add(rec.Observation.Loc, rec.Observation.Attrs)
	} else {
		sum += rec.Instance.Confidence - rec.Instance.Confidence
		add(rec.Instance.GenLoc, nil)
		add(rec.Instance.Loc, rec.Instance.Attrs)
	}
	return sum == 0
}

// openSegmentLocked creates and activates a fresh segment whose first
// record will be seq first. The directory entry is fsynced before any
// record lands in the file — an fsynced record in a file whose creation
// is not durable is lost with it. Callers hold mu (or are in Open).
//
//stcps:holds mu
func (l *Log) openSegmentLocked(first uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(first)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segs = append(l.segs, segMeta{
		path:    f.Name(),
		first:   first,
		last:    first - 1,
		maxTick: math.MinInt64,
	})
	return nil
}

// syncDir fsyncs the log directory, making file creations, renames and
// removals themselves durable. A no-op under FsyncOff.
func (l *Log) syncDir() error {
	if l.opts.Fsync == FsyncOff {
		return nil
	}
	if err := fsyncDir(l.opts.Dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// fsyncDir fsyncs a directory, making file creations, renames and
// removals in it durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic makes path hold exactly what write produces, or leaves
// it as it was, through path+".tmp" and a rename; with sync the file and
// the directory are fsynced, so the rename is durable when it returns. A
// crash can leave the ".tmp" file behind for the directory's opener.
func WriteFileAtomic(path string, sync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := writeFile(tmp, sync, write)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if sync {
		return fsyncDir(filepath.Dir(path))
	}
	return nil
}

// writeFile creates (or truncates) path and fills it through a buffer.
func writeFile(path string, sync bool, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncLoop is the FsyncInterval timer.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// encodeLocked frames rec into l.buf, which it returns. It refuses, with
// ErrBadRecord, every record Replay would refuse: an unknown kind, a
// missing entity, a non-finite float, an oversized payload, or a field
// over the decoder's bounds. Append and Snapshot both write through it.
//
//stcps:holds mu
func (l *Log) encodeLocked(rec *Record) ([]byte, error) {
	switch rec.Kind {
	case KindObservation:
		if rec.Observation == nil {
			return nil, fmt.Errorf("%w: observation record without observation", ErrBadRecord)
		}
	case KindIngest, KindEmit:
		if rec.Instance == nil {
			return nil, fmt.Errorf("%w: instance record without instance", ErrBadRecord)
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, rec.Kind)
	}
	if !finite(rec) {
		return nil, fmt.Errorf("%w: NaN or infinite float", ErrBadRecord)
	}
	var hdr [frame.HeaderSize]byte
	buf, err := appendPayload(append(l.buf[:0], hdr[:]...), &l.enc[rec.Kind], rec)
	if cap(buf) <= maxBufBytes {
		l.buf = buf
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRecord, err)
	}
	payload := buf[frame.HeaderSize:]
	if len(payload) > maxPayloadBytes {
		return nil, fmt.Errorf("%w: payload is %d bytes (max %d)", ErrBadRecord, len(payload), maxPayloadBytes)
	}
	if len(payload) > event.WireBoundsFreeBytes {
		if err := decodePayload(payload, new(Record), nil); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRecord, err)
		}
	}
	frame.PutHeader(buf[:frame.HeaderSize], payload)
	return buf, nil
}

// Append writes one record and returns its sequence number. Under
// FsyncAlways the record is on stable storage when Append returns.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	buf, err := l.encodeLocked(&rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.w.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq++
	l.appended++
	l.dirty = true
	active := &l.segs[len(l.segs)-1]
	active.last = l.seq
	active.bytes += int64(len(buf))
	active.noteIngest(rec.Kind, rec.Now)
	seq := l.seq

	if l.opts.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if active.bytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// rotateLocked seals the active segment (flushing and syncing it so a
// sealed segment is always durable) and opens the next one.
//
//stcps:holds mu
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	return l.openSegmentLocked(l.seq + 1)
}

// Sync flushes buffered appends and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

//stcps:holds mu
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.noteSyncErrLocked(fmt.Errorf("wal: sync: %w", err))
	}
	if l.opts.Fsync != FsyncOff {
		if err := l.f.Sync(); err != nil {
			return l.noteSyncErrLocked(fmt.Errorf("wal: sync: %w", err))
		}
		// Count only real fsyncs: under FsyncOff the counters would
		// otherwise report durability that never happened.
		l.syncs++
		l.lastSync = time.Now()
	}
	l.dirty = false
	return nil
}

// noteSyncErrLocked records a sync failure so it surfaces through Stats
// and Err even when the caller is the background syncer. Callers hold
// mu.
//
//stcps:holds mu
func (l *Log) noteSyncErrLocked(err error) error {
	l.syncFailures++
	if l.firstErr == nil {
		l.firstErr = err
	}
	return err
}

// Err returns the first fsync failure ever recorded (nil when the log
// has always synced cleanly). A later successful fsync does not clear
// it: the kernel may have dropped the dirty pages the failed sync
// covered.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// Seq returns the sequence number of the newest record.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Complete reports whether the log still holds every record ever
// appended — i.e. compaction has never removed a segment. Replay over a
// complete log reproduces the full ingest history; over an incomplete
// one only the tail.
func (l *Log) Complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) > 0 && l.segs[0].first == 1
}

// Replay streams the live records of the given kinds to fn: the
// snapshot's records first (Seq 0), then the segments' in sequence
// order. It decodes only the wanted payloads (any other record costs its
// CRC check) and shares strings repeated across records. It reads the
// files from disk, so it must run before appends start (recovery time);
// fn must not call back into the log.
//
//stcps:replay
func (l *Log) Replay(kinds []Kind, fn func(Record) error) error {
	l.mu.Lock()
	err := l.w.Flush() // the reads below go through the file system
	segs := append([]segMeta(nil), l.segs...)
	snap := segMeta{path: filepath.Join(l.opts.Dir, snapName(l.snapSeq)), first: 1, last: l.snapRecs}
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}

	it := event.NewInterner()
	if slices.Contains(kinds, KindEmit) { // a snapshot holds emit records only
		fromSnap := func(rec Record) error {
			rec.Seq = 0
			return fn(rec)
		}
		if err := replaySegment(snap, kinds, it, fromSnap); err != nil {
			return err
		}
	}
	for _, seg := range segs {
		if err := replaySegment(seg, kinds, it, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment is Replay over one segment, or over the snapshot, whose
// meta counts its records from 1. A file without records is not opened.
func replaySegment(seg segMeta, kinds []Kind, it *event.Interner, fn func(Record) error) error {
	if seg.last < seg.first {
		return nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	fr := frame.NewReader(bufio.NewReader(f), maxPayloadBytes)
	for seq := seg.first; seq <= seg.last; seq++ {
		payload, _, err := fr.Next()
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(seg.path), err)
		}
		if !slices.Contains(kinds, Kind(payload[0])) {
			continue // Open checked every header: no unknown kind gets here
		}
		var rec Record
		if err := decodePayload(payload, &rec, it); err != nil {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(seg.path), err)
		}
		rec.Seq = seq
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot writes a snapshot covering every record appended so far: walk
// hands it the instances to keep, which it frames as KindEmit records
// exactly as Append would (so Replay reads back everything it wrote);
// the file lands atomically (tmp + rename), older snapshot files are
// removed, and sealed segments fully covered by the snapshot are
// compacted away — unless they still carry ingest records at or after
// horizon, which a detection window may need for replay. Pass horizon
// math.MinInt64 to keep all ingest history, math.MaxInt64 to discard any
// covered segment. Snapshot holds the log's lock throughout, so walk
// must not call back into the log.
func (l *Log) Snapshot(walk func(func(*event.Instance) error) error, horizon timemodel.Tick) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// The snapshot covers exactly the records appended so far; land them
	// first so the snapshot never claims more than the log holds.
	if err := l.syncLocked(); err != nil {
		return err
	}
	seq := l.seq
	var n uint64
	write := func(w io.Writer) error {
		return walk(func(in *event.Instance) error {
			buf, err := l.encodeLocked(&Record{Kind: KindEmit, Instance: in})
			if err == nil {
				_, err = w.Write(buf)
				n++
			}
			return err
		})
	}
	// The rename is durable BEFORE compaction unlinks the segments it
	// covers, or a crash could lose both copies of the data.
	if err := WriteFileAtomic(filepath.Join(l.opts.Dir, snapName(seq)), l.opts.Fsync != FsyncOff, write); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	prev := l.snapSeq
	l.snapSeq = seq
	l.snapRecs = n
	l.snapshots++
	if prev != seq {
		_ = os.Remove(filepath.Join(l.opts.Dir, snapName(prev)))
	}
	l.compactLocked(horizon)
	return l.syncDir()
}

// compactLocked removes sealed segments fully covered by the latest
// snapshot whose ingest records have all aged past horizon. Only a
// contiguous prefix is removed: record sequence numbers are positional,
// so a gap in the middle of the chain would make every later segment
// unreadable on the next open. A young segment therefore pins everything
// behind it — the price of not persisting sequence numbers per record.
//
//stcps:holds mu
func (l *Log) compactLocked(horizon timemodel.Tick) {
	cut := 0
	for i, seg := range l.segs {
		active := i == len(l.segs)-1
		covered := seg.last <= l.snapSeq
		disposable := !seg.hasIngest || seg.maxTick < horizon
		if active || !covered || !disposable {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			break
		}
		l.compacted++
		cut = i + 1
	}
	l.segs = append(l.segs[:0], l.segs[cut:]...)
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments:          len(l.segs),
		LastSeq:           l.seq,
		Appended:          l.appended,
		Syncs:             l.syncs,
		SyncFailures:      l.syncFailures,
		TornRecords:       l.torn,
		SnapshotSeq:       l.snapSeq,
		Snapshots:         l.snapshots,
		CompactedSegments: l.compacted,
	}
	for _, seg := range l.segs {
		s.Bytes += seg.bytes
	}
	if !l.lastSync.IsZero() {
		s.LastSyncUnixMs = l.lastSync.UnixMilli()
	}
	return s
}

// Close syncs and closes the log. Further appends return ErrClosed.
// Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	if l.lock != nil {
		_ = l.lock.Close() // releases the directory lock
	}
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	return err
}
