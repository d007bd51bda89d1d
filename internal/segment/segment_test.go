package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// mkIns builds n instances with ascending occurrence times and a
// deterministic spread of locations and event ids.
func mkIns(n int, firstSeq uint64) []event.Instance {
	ins := make([]event.Instance, n)
	for i := range ins {
		ev := "S.hot"
		if i%3 == 0 {
			ev = "S.cold"
		}
		x := float64((i % 7) * 10)
		y := float64((i % 5) * 10)
		tick := timemodel.Tick(100 + int64(firstSeq) + int64(i))
		ins[i] = event.Instance{
			Layer:      event.LayerSensor,
			Observer:   fmt.Sprintf("MT%d", i%4),
			Event:      ev,
			Seq:        firstSeq + uint64(i),
			Gen:        tick,
			GenLoc:     spatial.AtPoint(x, y),
			Occ:        timemodel.At(tick),
			Loc:        spatial.AtPoint(x, y),
			Confidence: 1,
		}
	}
	return ins
}

func writeSegFile(t *testing.T, path string, firstSeq, walSeq uint64, blockSize int, ins []event.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTo(&buf, firstSeq, walSeq, DefaultCellSize, blockSize, ins); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func collect(t *testing.T, s *Segment, f Filter) (seqs []uint64, got []event.Instance) {
	t.Helper()
	it := event.NewInterner()
	_, _, _, _, err := s.scan(&f, it, new([]byte), func(seq uint64, in *event.Instance) bool {
		seqs = append(seqs, seq)
		cp := *in
		cp.Inputs = append([]string(nil), in.Inputs...)
		got = append(got, cp)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, got
}

func TestSegmentRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wantSegmentName(7))
	ins := mkIns(300, 7)
	ins[5].Inputs = []string{"a", "b"}
	ins[5].Attrs = event.Attrs{"k": 1.5}
	writeSegFile(t, path, 7, 42, 64, ins)

	s, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	if s.firstSeq != 7 || s.count != 300 || s.walSeq != 42 {
		t.Fatalf("header = %d/%d/%d", s.firstSeq, s.count, s.walSeq)
	}
	if got, want := len(s.blocks), (300+63)/64; got != want {
		t.Fatalf("blocks = %d, want %d", got, want)
	}
	seqs, got := collect(t, s, Filter{})
	if len(got) != 300 {
		t.Fatalf("scan yielded %d", len(got))
	}
	for i := range got {
		if seqs[i] != 7+uint64(i) {
			t.Fatalf("seq[%d] = %d", i, seqs[i])
		}
		if !reflect.DeepEqual(got[i], ins[i]) {
			t.Fatalf("instance %d mismatch:\n got %+v\nwant %+v", i, got[i], ins[i])
		}
	}
}

func TestSegmentSeqWindow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wantSegmentName(0))
	writeSegFile(t, path, 0, 0, 32, mkIns(100, 0))
	s, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	seqs, _ := collect(t, s, Filter{MinSeq: 40, MaxSeq: 70})
	if len(seqs) != 30 || seqs[0] != 40 || seqs[len(seqs)-1] != 69 {
		t.Fatalf("window scan = %v", seqs)
	}
}

func TestSegmentPruning(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wantSegmentName(0))
	writeSegFile(t, path, 0, 0, 32, mkIns(320, 0))
	s, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()

	// Narrow time window: only blocks covering it are read.
	f := Filter{HasTime: true, From: 110, To: 120}
	read, pruned, _, _, err := s.scan(&f, nil, new([]byte), func(uint64, *event.Instance) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if read != 1 || pruned != len(s.blocks)-1 {
		t.Errorf("time prune: read %d pruned %d of %d", read, pruned, len(s.blocks))
	}

	// Absent event id: the bloom prunes every block.
	f = Filter{Event: "S.absent"}
	read, pruned, _, _, err = s.scan(&f, nil, new([]byte), func(uint64, *event.Instance) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if read != 0 || pruned != len(s.blocks) {
		t.Errorf("event prune: read %d pruned %d", read, pruned)
	}

	// Far-away region: cell extent prunes every block.
	far := spatial.AtPoint(1e6, 1e6)
	f = Filter{Region: &far}
	read, pruned, _, _, err = s.scan(&f, nil, new([]byte), func(uint64, *event.Instance) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if read != 0 || pruned != len(s.blocks) {
		t.Errorf("region prune: read %d pruned %d", read, pruned)
	}

	// Pruning never loses matches: filtered scan == full scan + filter.
	region, err := spatial.Rect(0, 0, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	loc := spatial.InField(region)
	f = Filter{Event: "S.cold", Region: &loc, HasTime: true, From: 100, To: 250}
	var fast []uint64
	if _, _, _, _, err := s.scan(&f, nil, new([]byte), func(seq uint64, in *event.Instance) bool {
		fast = append(fast, seq)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var slow []uint64
	full := Filter{}
	if _, _, _, _, err := s.scan(&full, nil, new([]byte), func(seq uint64, in *event.Instance) bool {
		if f.match([]byte(in.Event), in.Occ, in.Loc) {
			slow = append(slow, seq)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(slow) == 0 {
		t.Fatal("filter matched nothing; test is vacuous")
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("pruned scan %v != filtered full scan %v", fast, slow)
	}
}

func TestSegmentEarlyStop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wantSegmentName(0))
	writeSegFile(t, path, 0, 0, 32, mkIns(100, 0))
	s, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	n := 0
	_, _, _, stopped, err := s.scan(&Filter{}, nil, new([]byte), func(uint64, *event.Instance) bool {
		n++
		return n < 10
	})
	if err != nil || !stopped || n != 10 {
		t.Fatalf("early stop: n=%d stopped=%v err=%v", n, stopped, err)
	}
}

// TestSegmentCorruption flips/truncates every interesting region of a
// valid file and demands a loud ErrCorrupt — never a silent partial
// read.
func TestSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	good := writeSegFile(t, filepath.Join(dir, "good.seg"), 0, 0, 16, mkIns(64, 0))

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-5] }},
		{"truncated to header", func(b []byte) []byte { return b[:20] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"trailer magic", func(b []byte) []byte { b[len(b)-10] ^= 0xFF; return b }},
		{"trailer crc target", func(b []byte) []byte { b[len(b)-trailerSize] ^= 0xFF; return b }},
		{"footer bit flip", func(b []byte) []byte { b[len(b)-trailerSize-10] ^= 0x01; return b }},
		{"header bit flip", func(b []byte) []byte { b[9] ^= 0x01; return b }},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xAB, 0xCD) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mangle(append([]byte(nil), good...))
			path := filepath.Join(dir, "bad.seg")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := open(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open(%s) err = %v, want ErrCorrupt", tc.name, err)
			}
		})
	}

	// Block-body damage is caught lazily at scan time: the footer is
	// intact, open succeeds, and the scan fails loud.
	// The first block frame's payload starts right after the header
	// frame (8 B frame header + headerSize payload) plus its own 8 B
	// frame header.
	buf := append([]byte(nil), good...)
	buf[8+headerSize+8+12] ^= 0x01
	path := filepath.Join(dir, "badblock.seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	_, _, _, _, serr := s.scan(&Filter{}, nil, new([]byte), func(uint64, *event.Instance) bool { return true })
	if !errors.Is(serr, ErrCorrupt) {
		t.Fatalf("scan over damaged block err = %v, want ErrCorrupt", serr)
	}

	// A record that is malformed inside a CRC-valid block still fails
	// the scan when the filter would skip it: seq 1 (an "S.hot" record)
	// gets confidence 1.5, past its location, where a skim that read
	// only what the filter needs would stop; the block CRC is
	// recomputed. A scan for "S.cold" must fail, not skip the record.
	buf = append([]byte(nil), good...)
	payload := buf[8+headerSize+8 : 8+headerSize+8+int(binary.LittleEndian.Uint32(buf[8+headerSize:]))]
	n0, w0 := binary.Uvarint(payload)
	rec1 := payload[w0+int(n0):]
	n1, w1 := binary.Uvarint(rec1)
	rec1 = rec1[w1 : w1+int(n1)]
	if ev, _, _, err := event.SkimInstanceWire(rec1); err != nil || string(ev) != "S.hot" {
		t.Fatalf("record 1 is %q (%v), want a valid S.hot record", ev, err)
	}
	// mkIns records end attrs(0) | f64 confidence | inputs(0).
	binary.LittleEndian.PutUint64(rec1[len(rec1)-9:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint32(buf[8+headerSize+4:], crc32.ChecksumIEEE(payload))
	path = filepath.Join(dir, "badrecord.seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.kill()
	cold := Filter{Event: "S.cold"}
	_, _, _, _, serr = s2.scan(&cold, nil, new([]byte), func(uint64, *event.Instance) bool { return true })
	if !errors.Is(serr, ErrCorrupt) || !errors.Is(serr, event.ErrConfidenceRange) {
		t.Fatalf("scan past a malformed unmatched record err = %v, want ErrCorrupt", serr)
	}
}

// FuzzSegmentOpen feeds mutated segment bytes to the reader: it must
// either reject the file or serve a scan that terminates cleanly —
// never panic, never report corruption-free success with impossible
// structure.
func FuzzSegmentOpen(f *testing.F) {
	var buf bytes.Buffer
	if err := writeTo(&buf, 3, 9, DefaultCellSize, 8, mkIns(40, 3)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	flip := append([]byte(nil), good...)
	flip[len(flip)-20] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := open(path)
		if err != nil {
			return
		}
		defer s.kill()
		prev := uint64(0)
		first := true
		_, _, _, _, serr := s.scan(&Filter{}, event.NewInterner(), new([]byte), func(seq uint64, in *event.Instance) bool {
			if !first && seq != prev+1 {
				t.Fatalf("non-contiguous seqs %d -> %d", prev, seq)
			}
			first, prev = false, seq
			return true
		})
		if serr != nil && !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("scan err = %v, want nil or ErrCorrupt", serr)
		}
	})
}
