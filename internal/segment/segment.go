// Package segment implements the store's cold tier: sorted, immutable
// on-disk segment files that hold event instances evicted from the
// in-memory chunked log, so history survives retention instead of
// vanishing with RAM.
//
// A segment covers one contiguous run of global sequence numbers
// [FirstSeq, FirstSeq+Count). Its records are the canonical binary wire
// encoding of event.Instance (encode∘decode is the identity, so a
// merged hot+cold query page is byte-identical to an all-in-RAM one),
// grouped into blocks and framed with the same len+CRC record framing
// the WAL and the wire protocol use (internal/frame). A footer carries
// a per-block index — sequence range, occurrence-time range,
// generation-time range, grid-cell extent and a cell/event bloom — so a
// query touching a narrow time window or region reads only the blocks
// that can match, without scanning the file. The layout is
// read-at-rest friendly: blocks are located by absolute offset and read
// with pread, so the OS page cache (or an mmap) serves repeated scans.
//
// File layout (all integers little-endian, every section CRC-framed):
//
//	frame: header  { magic, version, firstSeq, count, walSeq, cellSize }
//	frame: block 0 { uvarint(len) ++ instance-wire, ... }
//	...
//	frame: block N-1
//	frame: footer  { header fields again, aggregates, block index }
//	trailer (24 B): footerOff u64 | footerLen u32 | magic u32 | crc32 | pad
//
// A segment becomes visible only by an atomic rename of a fully
// written, fsynced temporary file, so a crash mid-spill leaves a *.tmp
// leftover (deleted at the next open), never a half-visible segment.
// Any torn or bit-flipped section fails its CRC (or the header/footer
// cross-check) and the whole file is rejected with ErrCorrupt — a
// corrupt segment never silently serves a partial page.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Segment errors.
var (
	// ErrCorrupt marks a segment file that failed structural or checksum
	// validation. Corrupt segments are rejected whole — a reader never
	// returns a partial page from one.
	ErrCorrupt = errors.New("segment: corrupt segment file")
	// ErrClosed is returned by operations on a closed Dir.
	ErrClosed = errors.New("segment: directory closed")
)

const (
	// fileMagic opens the header and footer payloads ("STSG").
	fileMagic = 0x47535453
	// trailerMagic marks the fixed trailer ("GSTS").
	trailerMagic = 0x53545347
	// formatVersion is bumped on any layout change.
	formatVersion = 1

	// trailerSize is the fixed tail: footerOff u64 + footerLen u32 +
	// magic u32 + crc32 u32 over the preceding 16 bytes.
	trailerSize = 24

	// headerSize is the header frame's payload size.
	headerSize = 4 + 4 + 8 + 8 + 8 + 8

	// blockEntrySize is one footer block-index entry: off u64, len u32,
	// firstSeq u64, count u32, minStart/maxEnd/minGen/maxGen i64,
	// cx0/cy0/cx1/cy1 i64, cellBloom u64, eventBloom u64.
	blockEntrySize = 8 + 4 + 8 + 4 + 4*8 + 4*8 + 8 + 8

	// footerFixedSize is the footer payload before the block entries:
	// the header fields again, segment aggregates, and the block count.
	footerFixedSize = headerSize + 4*8 + 4

	// DefaultBlockSize is the number of instances per block when
	// Config.BlockSize is zero: large enough to amortize the frame and
	// index entry, small enough that a narrow time window reads little.
	DefaultBlockSize = 512
)

// blockMeta is one footer index entry, the unit of query pruning.
type blockMeta struct {
	off      int64  // file offset of the block frame
	length   uint32 // full frame length (header + payload)
	firstSeq uint64
	count    uint32
	minStart timemodel.Tick // min Occ.Start over the block
	maxEnd   timemodel.Tick // max Occ.End over the block
	minGen   timemodel.Tick
	maxGen   timemodel.Tick
	// Inclusive grid-cell extent of the instances' location bounding
	// boxes, at the segment's cell size.
	cx0, cy0, cx1, cy1 int64
	cellBloom          uint64 // 2-bit-per-cell bloom over covered cells
	eventBloom         uint64 // 2-bit-per-event bloom over event ids
}

// Segment is one open, immutable on-disk segment. Safe for concurrent
// reads; lifecycle (refcount, deletion) is managed by Dir.
type Segment struct {
	path     string
	f        *os.File
	size     int64
	firstSeq uint64
	count    uint64
	walSeq   uint64
	cellSize float64
	minStart timemodel.Tick
	maxEnd   timemodel.Tick
	minGen   timemodel.Tick
	maxGen   timemodel.Tick
	blocks   []blockMeta

	// refs guards the file handle against GC racing scans: the Dir owns
	// one reference; each scan holds one while reading. The handle
	// closes when the count reaches zero after the Dir drops its own
	// (see kill). 0 or negative means dead.
	refs atomic.Int64
}

// end is the first sequence number past the segment.
func (s *Segment) end() uint64 { return s.firstSeq + s.count }

// acquire takes a read reference; false means the segment is dead
// (GC'd) and must be skipped.
func (s *Segment) acquire() bool {
	for {
		n := s.refs.Load()
		if n <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops a reference, closing the file on the last one.
func (s *Segment) release() {
	if s.refs.Add(-1) == 0 {
		_ = s.f.Close()
	}
}

// kill drops the Dir's owning reference: no new scans can acquire the
// segment, and the handle closes once in-flight scans drain.
func (s *Segment) kill() { s.release() }

// cellHash mixes a grid cell coordinate pair into the bloom hash.
func cellHash(cx, cy int64) uint64 {
	h := uint64(cx)*0x9E3779B97F4A7C15 ^ (uint64(cy)+0x632BE59BD9B4E019)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return h
}

// eventHash is FNV-1a over the event id for the event bloom.
func eventHash(ev string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(ev); i++ {
		h ^= uint64(ev[i])
		h *= 1099511628211
	}
	return h
}

// bloomMask derives the two-bit bloom mask from a hash.
func bloomMask(h uint64) uint64 {
	return 1<<(h&63) | 1<<((h>>6)&63)
}

// cellRange converts a bounding box to inclusive cell coordinates at
// the segment's cell size — the same floor-division scheme
// spatial.Grid uses, so hot and cold region pruning agree.
func cellRange(cell float64, minX, minY, maxX, maxY float64) (x0, y0, x1, y1 int64) {
	return int64(math.Floor(minX / cell)), int64(math.Floor(minY / cell)),
		int64(math.Floor(maxX / cell)), int64(math.Floor(maxY / cell))
}

// countingWriter tracks the write offset so block frames record their
// absolute position for the footer index.
type countingWriter struct {
	w   io.Writer
	off int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.off += int64(n)
	return n, err
}

// writeTo streams a complete segment — header, blocks, footer, trailer
// — for instances with sequence numbers firstSeq, firstSeq+1, ... in
// order.
func writeTo(w io.Writer, firstSeq, walSeq uint64, cellSize float64, blockSize int, ins []event.Instance) error {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	cw := &countingWriter{w: w}

	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], firstSeq)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(ins)))
	binary.LittleEndian.PutUint64(hdr[24:32], walSeq)
	binary.LittleEndian.PutUint64(hdr[32:40], math.Float64bits(cellSize))
	if err := frame.WriteFrame(cw, hdr); err != nil {
		return err
	}

	var (
		blocks  []blockMeta
		payload []byte
		scratch []byte
		enc     event.WireEncoder
		lenBuf  [binary.MaxVarintLen64]byte
	)
	for bi := 0; bi < len(ins); bi += blockSize {
		hi := bi + blockSize
		if hi > len(ins) {
			hi = len(ins)
		}
		run := ins[bi:hi]
		m := blockMeta{
			off:      cw.off,
			firstSeq: firstSeq + uint64(bi),
			count:    uint32(len(run)),
			minStart: math.MaxInt64, maxEnd: math.MinInt64,
			minGen: math.MaxInt64, maxGen: math.MinInt64,
			cx0: math.MaxInt64, cy0: math.MaxInt64,
			cx1: math.MinInt64, cy1: math.MinInt64,
		}
		payload = payload[:0]
		for i := range run {
			in := &run[i]
			rec, err := enc.AppendInstance(scratch[:0], in)
			if err != nil {
				return fmt.Errorf("segment: encode seq %d: %w", m.firstSeq+uint64(i), err)
			}
			scratch = rec
			n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
			payload = append(payload, lenBuf[:n]...)
			payload = append(payload, rec...)

			if s := in.Occ.Start(); s < m.minStart {
				m.minStart = s
			}
			if e := in.Occ.End(); e > m.maxEnd {
				m.maxEnd = e
			}
			if in.Gen < m.minGen {
				m.minGen = in.Gen
			}
			if in.Gen > m.maxGen {
				m.maxGen = in.Gen
			}
			minX, minY, maxX, maxY := in.Loc.Bounds()
			x0, y0, x1, y1 := cellRange(cellSize, minX, minY, maxX, maxY)
			if x0 < m.cx0 {
				m.cx0 = x0
			}
			if y0 < m.cy0 {
				m.cy0 = y0
			}
			if x1 > m.cx1 {
				m.cx1 = x1
			}
			if y1 > m.cy1 {
				m.cy1 = y1
			}
			// Bound the per-instance bloom work: an instance spanning a
			// huge cell area would degrade the bloom to all-ones anyway,
			// so saturate instead of enumerating.
			if (x1-x0+1)*(y1-y0+1) <= 64 {
				for cx := x0; cx <= x1; cx++ {
					for cy := y0; cy <= y1; cy++ {
						m.cellBloom |= bloomMask(cellHash(cx, cy))
					}
				}
			} else {
				m.cellBloom = ^uint64(0)
			}
			m.eventBloom |= bloomMask(eventHash(in.Event))
		}
		m.length = uint32(frame.HeaderSize + len(payload))
		if err := frame.WriteFrame(cw, payload); err != nil {
			return err
		}
		blocks = append(blocks, m)
	}

	footerOff := cw.off
	foot := make([]byte, footerFixedSize+len(blocks)*blockEntrySize)
	copy(foot, hdr)
	o := headerSize
	putTick := func(t timemodel.Tick) {
		binary.LittleEndian.PutUint64(foot[o:], uint64(t))
		o += 8
	}
	minStart, maxEnd := timemodel.Tick(math.MaxInt64), timemodel.Tick(math.MinInt64)
	minGen, maxGen := timemodel.Tick(math.MaxInt64), timemodel.Tick(math.MinInt64)
	for i := range blocks {
		b := &blocks[i]
		if b.minStart < minStart {
			minStart = b.minStart
		}
		if b.maxEnd > maxEnd {
			maxEnd = b.maxEnd
		}
		if b.minGen < minGen {
			minGen = b.minGen
		}
		if b.maxGen > maxGen {
			maxGen = b.maxGen
		}
	}
	putTick(minStart)
	putTick(maxEnd)
	putTick(minGen)
	putTick(maxGen)
	binary.LittleEndian.PutUint32(foot[o:], uint32(len(blocks)))
	o += 4
	for i := range blocks {
		b := &blocks[i]
		binary.LittleEndian.PutUint64(foot[o:], uint64(b.off))
		binary.LittleEndian.PutUint32(foot[o+8:], b.length)
		binary.LittleEndian.PutUint64(foot[o+12:], b.firstSeq)
		binary.LittleEndian.PutUint32(foot[o+20:], b.count)
		binary.LittleEndian.PutUint64(foot[o+24:], uint64(b.minStart))
		binary.LittleEndian.PutUint64(foot[o+32:], uint64(b.maxEnd))
		binary.LittleEndian.PutUint64(foot[o+40:], uint64(b.minGen))
		binary.LittleEndian.PutUint64(foot[o+48:], uint64(b.maxGen))
		binary.LittleEndian.PutUint64(foot[o+56:], uint64(b.cx0))
		binary.LittleEndian.PutUint64(foot[o+64:], uint64(b.cy0))
		binary.LittleEndian.PutUint64(foot[o+72:], uint64(b.cx1))
		binary.LittleEndian.PutUint64(foot[o+80:], uint64(b.cy1))
		binary.LittleEndian.PutUint64(foot[o+88:], b.cellBloom)
		binary.LittleEndian.PutUint64(foot[o+96:], b.eventBloom)
		o += blockEntrySize
	}
	if err := frame.WriteFrame(cw, foot); err != nil {
		return err
	}

	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(tr[8:12], uint32(frame.HeaderSize+len(foot)))
	binary.LittleEndian.PutUint32(tr[12:16], trailerMagic)
	binary.LittleEndian.PutUint32(tr[16:20], crc32.ChecksumIEEE(tr[0:16]))
	// tr[20:24] pads the trailer to a fixed 8-byte-aligned size; zero.
	if _, err := cw.Write(tr[:]); err != nil {
		return err
	}
	return nil
}

// open maps a segment file: it validates the trailer, the footer frame,
// the header frame and the block index against each other, rejecting
// the whole file with ErrCorrupt on any inconsistency. The record
// payloads themselves are CRC-validated lazily, block by block, at
// read time.
func open(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	s, err := load(f, path)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func load(f *os.File, path string) (*Segment, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	size := st.Size()
	if size < frame.HeaderSize+headerSize+trailerSize {
		return nil, corrupt("truncated: %d bytes", size)
	}

	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, corrupt("trailer read: %v", err)
	}
	if binary.LittleEndian.Uint32(tr[12:16]) != trailerMagic {
		return nil, corrupt("bad trailer magic")
	}
	if crc32.ChecksumIEEE(tr[0:16]) != binary.LittleEndian.Uint32(tr[16:20]) {
		return nil, corrupt("trailer checksum mismatch")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if footerOff < frame.HeaderSize+headerSize || footerLen < frame.HeaderSize+footerFixedSize ||
		footerOff+footerLen != size-trailerSize {
		return nil, corrupt("implausible footer location (%d+%d of %d)", footerOff, footerLen, size)
	}

	foot, err := readFrameAt(f, footerOff, footerLen)
	if err != nil {
		return nil, corrupt("footer: %v", err)
	}
	s := &Segment{path: path, f: f, size: size}
	if err := s.parseFooter(foot, footerOff); err != nil {
		return nil, corrupt("%v", err)
	}

	// Cross-check the header frame: written first, so a file whose
	// header and footer disagree was stitched or corrupted.
	hdr, err := readFrameAt(f, 0, int64(frame.HeaderSize+headerSize))
	if err != nil {
		return nil, corrupt("header: %v", err)
	}
	if string(hdr) != string(foot[:headerSize]) {
		return nil, corrupt("header/footer mismatch")
	}
	s.refs.Store(1)
	return s, nil
}

// readFrameAt reads one complete frame of exactly length bytes at off
// and returns its CRC-verified payload.
func readFrameAt(f *os.File, off, length int64) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("read: %w", err)
	}
	ln := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if int64(ln)+frame.HeaderSize != length {
		return nil, fmt.Errorf("%w: frame length %d != %d", frame.ErrLength, ln, length-frame.HeaderSize)
	}
	payload := buf[frame.HeaderSize:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, frame.ErrChecksum
	}
	return payload, nil
}

// parseFooter decodes and validates the footer payload.
func (s *Segment) parseFooter(foot []byte, footerOff int64) error {
	if binary.LittleEndian.Uint32(foot[0:4]) != fileMagic {
		return errors.New("bad footer magic")
	}
	if v := binary.LittleEndian.Uint32(foot[4:8]); v != formatVersion {
		return fmt.Errorf("unsupported format version %d", v)
	}
	s.firstSeq = binary.LittleEndian.Uint64(foot[8:16])
	s.count = binary.LittleEndian.Uint64(foot[16:24])
	s.walSeq = binary.LittleEndian.Uint64(foot[24:32])
	s.cellSize = math.Float64frombits(binary.LittleEndian.Uint64(foot[32:40]))
	if !(s.cellSize > 0) || math.IsInf(s.cellSize, 0) {
		return fmt.Errorf("implausible cell size %g", s.cellSize)
	}
	o := headerSize
	s.minStart = timemodel.Tick(binary.LittleEndian.Uint64(foot[o:]))
	s.maxEnd = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+8:]))
	s.minGen = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+16:]))
	s.maxGen = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+24:]))
	o += 32
	nblocks := int(binary.LittleEndian.Uint32(foot[o:]))
	o += 4
	if len(foot) != footerFixedSize+nblocks*blockEntrySize {
		return fmt.Errorf("footer size %d does not hold %d block entries", len(foot), nblocks)
	}
	if s.count == 0 || nblocks == 0 {
		return errors.New("empty segment")
	}
	if s.firstSeq+s.count < s.firstSeq {
		return errors.New("sequence range overflows")
	}
	s.blocks = make([]blockMeta, nblocks)
	next := s.firstSeq
	prevEnd := int64(frame.HeaderSize + headerSize)
	var total uint64
	for i := range s.blocks {
		b := &s.blocks[i]
		b.off = int64(binary.LittleEndian.Uint64(foot[o:]))
		b.length = binary.LittleEndian.Uint32(foot[o+8:])
		b.firstSeq = binary.LittleEndian.Uint64(foot[o+12:])
		b.count = binary.LittleEndian.Uint32(foot[o+20:])
		b.minStart = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+24:]))
		b.maxEnd = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+32:]))
		b.minGen = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+40:]))
		b.maxGen = timemodel.Tick(binary.LittleEndian.Uint64(foot[o+48:]))
		b.cx0 = int64(binary.LittleEndian.Uint64(foot[o+56:]))
		b.cy0 = int64(binary.LittleEndian.Uint64(foot[o+64:]))
		b.cx1 = int64(binary.LittleEndian.Uint64(foot[o+72:]))
		b.cy1 = int64(binary.LittleEndian.Uint64(foot[o+80:]))
		b.cellBloom = binary.LittleEndian.Uint64(foot[o+88:])
		b.eventBloom = binary.LittleEndian.Uint64(foot[o+96:])
		o += blockEntrySize

		if b.off != prevEnd || b.length <= frame.HeaderSize {
			return fmt.Errorf("block %d: implausible frame at %d (+%d)", i, b.off, b.length)
		}
		if b.off+int64(b.length) > footerOff {
			return fmt.Errorf("block %d overruns the footer", i)
		}
		if b.firstSeq != next || b.count == 0 {
			return fmt.Errorf("block %d: sequence range not contiguous", i)
		}
		next = b.firstSeq + uint64(b.count)
		total += uint64(b.count)
		prevEnd = b.off + int64(b.length)
	}
	if total != s.count || prevEnd != footerOff {
		return errors.New("block index does not cover the segment")
	}
	return nil
}

// Filter is the pushed-down predicate set of a cold scan: a sequence
// window plus the QueryST predicates. Blocks (and whole segments) that
// cannot match are skipped via the footer index; every yielded instance
// is verified exactly.
type Filter struct {
	// MinSeq is the first sequence number to yield (inclusive).
	MinSeq uint64
	// MaxSeq bounds the scan exclusively; 0 means unbounded.
	MaxSeq uint64
	// Event filters to one event id; empty matches all.
	Event string
	// Region, when non-nil, keeps instances whose location is Joint
	// with it.
	Region *spatial.Location
	// HasTime gates the occurrence-window predicate [From, To].
	HasTime  bool
	From, To timemodel.Tick
}

// match verifies the non-sequence predicates exactly, on the fields a
// record skim yields.
func (f *Filter) match(ev []byte, occ timemodel.Time, loc spatial.Location) bool {
	if f.Event != "" && string(ev) != f.Event {
		return false
	}
	if f.HasTime && (occ.Start() > f.To || occ.End() < f.From) {
		return false
	}
	if f.Region != nil && !spatial.OpJoint.Apply(loc, *f.Region) {
		return false
	}
	return true
}

// pruneBlock reports whether the footer index proves the block cannot
// contain a match.
func (f *Filter) pruneBlock(cellSize float64, b *blockMeta) bool {
	if f.MinSeq >= b.firstSeq+uint64(b.count) {
		return true
	}
	if f.MaxSeq != 0 && f.MaxSeq <= b.firstSeq {
		return true
	}
	if f.HasTime && (b.minStart > f.To || b.maxEnd < f.From) {
		return true
	}
	if f.Event != "" && !bloomHas(b.eventBloom, eventHash(f.Event)) {
		return true
	}
	if f.Region != nil {
		minX, minY, maxX, maxY := f.Region.Bounds()
		qx0, qy0, qx1, qy1 := cellRange(cellSize, minX, minY, maxX, maxY)
		if qx0 < b.cx0 {
			qx0 = b.cx0
		}
		if qy0 < b.cy0 {
			qy0 = b.cy0
		}
		if qx1 > b.cx1 {
			qx1 = b.cx1
		}
		if qy1 > b.cy1 {
			qy1 = b.cy1
		}
		if qx1 < qx0 || qy1 < qy0 {
			return true
		}
		// With a small overlap, consult the bloom cell by cell; a wide
		// one reads the block — enumerating a large rect would cost
		// more than the read it might save.
		if w, h := qx1-qx0+1, qy1-qy0+1; w*h <= 64 {
			hit := false
			for cx := qx0; cx <= qx1 && !hit; cx++ {
				for cy := qy0; cy <= qy1; cy++ {
					if bloomHas(b.cellBloom, cellHash(cx, cy)) {
						hit = true
						break
					}
				}
			}
			if !hit {
				return true
			}
		}
	}
	return false
}

func bloomHas(bloom, h uint64) bool {
	m := bloomMask(h)
	return bloom&m == m
}

// scan yields matching instances of the segment in ascending sequence
// order, pruning blocks via the footer index and reading them into buf,
// which it grows as needed. Each record at or above MinSeq is skimmed
// (validated whole) and only a match is decoded. fn returning false
// stops the scan early. blocksRead/blocksPruned/records (records
// skimmed) report the work done. A CRC or record failure, in a match or
// not, aborts the whole scan with ErrCorrupt: a damaged block never
// yields a silently partial page.
func (s *Segment) scan(f *Filter, it *event.Interner, buf *[]byte, fn func(seq uint64, in *event.Instance) bool) (blocksRead, blocksPruned, records int, stopped bool, err error) {
	var in event.Instance
	for bi := range s.blocks {
		b := &s.blocks[bi]
		if f.pruneBlock(s.cellSize, b) {
			blocksPruned++
			continue
		}
		if int(b.length) > cap(*buf) {
			*buf = make([]byte, b.length)
		}
		block := (*buf)[:b.length]
		if _, rerr := s.f.ReadAt(block, b.off); rerr != nil {
			return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d: %w", ErrCorrupt, s.path, bi, rerr)
		}
		blocksRead++
		ln := binary.LittleEndian.Uint32(block[0:4])
		sum := binary.LittleEndian.Uint32(block[4:8])
		payload := block[frame.HeaderSize:]
		if int(ln) != len(payload) || crc32.ChecksumIEEE(payload) != sum {
			return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d: %w", ErrCorrupt, s.path, bi, frame.ErrChecksum)
		}
		seq := b.firstSeq
		for i := uint32(0); i < b.count; i++ {
			recLen, n := binary.Uvarint(payload)
			if n <= 0 || recLen > uint64(len(payload)-n) {
				return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d: torn record", ErrCorrupt, s.path, bi)
			}
			rec := payload[n : n+int(recLen)]
			payload = payload[n+int(recLen):]
			cur := seq
			seq++
			if cur < f.MinSeq {
				continue
			}
			if f.MaxSeq != 0 && cur >= f.MaxSeq {
				return blocksRead, blocksPruned, records, false, nil
			}
			ev, occ, loc, derr := event.SkimInstanceWire(rec)
			if derr != nil {
				return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d seq %d: %w", ErrCorrupt, s.path, bi, cur, derr)
			}
			records++
			if !f.match(ev, occ, loc) {
				continue
			}
			// The decode repeats the walk the skim passed, so it fails
			// only if the two ever drift apart.
			if derr := event.DecodeInstanceWire(rec, &in, it); derr != nil {
				return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d seq %d: %w", ErrCorrupt, s.path, bi, cur, derr)
			}
			if !fn(cur, &in) {
				return blocksRead, blocksPruned, records, true, nil
			}
		}
		if len(payload) != 0 {
			return blocksRead, blocksPruned, records, false, fmt.Errorf("%w: %s: block %d: trailing bytes", ErrCorrupt, s.path, bi)
		}
	}
	return blocksRead, blocksPruned, records, false, nil
}
