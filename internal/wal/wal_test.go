package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// inst builds a valid test instance.
func inst(seq uint64, tick timemodel.Tick) *event.Instance {
	return &event.Instance{
		Layer: event.LayerSensor, Observer: "MT1", Event: "S.t",
		Seq: seq, Gen: tick,
		GenLoc: spatial.AtPoint(0, 0),
		Occ:    timemodel.At(tick),
		Loc:    spatial.AtPoint(1, 2),
		Attrs:  event.Attrs{"v": float64(seq)},
	}
}

func obs(seq uint64, tick timemodel.Tick) *event.Observation {
	return &event.Observation{
		Mote: "MT1", Sensor: "SR1", Seq: seq,
		Time: timemodel.At(tick), Loc: spatial.AtPoint(0, 0),
		Attrs: event.Attrs{"v": float64(seq)},
	}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int, startTick timemodel.Tick) {
	t.Helper()
	for i := 0; i < n; i++ {
		tick := startTick + timemodel.Tick(i)
		var rec Record
		if i%3 == 0 {
			rec = Record{Kind: KindObservation, Source: "SR1", Conf: 1, Now: tick, Observation: obs(uint64(i+1), tick)}
		} else {
			rec = Record{Kind: KindIngest, Source: "S.t", Conf: 0.9, Now: tick, Instance: inst(uint64(i+1), tick)}
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// allKinds asks Replay for every record.
var allKinds = []Kind{KindObservation, KindIngest, KindEmit}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(allKinds, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
	appendN(t, l, 10, 100)
	if _, err := l.Append(Record{Kind: KindEmit, Instance: inst(99, 200)}); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l)
	if len(recs) != 11 {
		t.Fatalf("replayed %d records, want 11", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	if recs[0].Kind != KindObservation || recs[0].Observation == nil {
		t.Errorf("record 0 = %+v, want observation", recs[0])
	}
	if recs[1].Kind != KindIngest || recs[1].Instance == nil || recs[1].Conf != 0.9 {
		t.Errorf("record 1 = %+v, want ingest conf 0.9", recs[1])
	}
	if recs[10].Kind != KindEmit || recs[10].Instance.Seq != 99 {
		t.Errorf("record 10 = %+v, want emit", recs[10])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: positions and records survive.
	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
	defer l2.Close()
	if l2.Seq() != 11 {
		t.Fatalf("reopened seq = %d, want 11", l2.Seq())
	}
	recs2 := collect(t, l2)
	if len(recs2) != 11 {
		t.Fatalf("reopened replay %d records, want 11", len(recs2))
	}
	// Appends continue the numbering.
	seq, err := l2.Append(Record{Kind: KindEmit, Instance: inst(100, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12 {
		t.Errorf("next append got seq %d, want 12", seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	appendN(t, l, 40, 0)
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments (%d bytes)", st.Segments, st.Bytes)
	}
	if st.LastSeq != 40 {
		t.Errorf("lastSeq = %d, want 40", st.LastSeq)
	}
	recs := collect(t, l)
	if len(recs) != 40 {
		t.Fatalf("replay across segments returned %d records, want 40", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	defer l2.Close()
	if got := len(collect(t, l2)); got != 40 {
		t.Fatalf("reopened replay across segments = %d records, want 40", got)
	}
}

// TestTornTailTruncated simulates a crash mid-write: garbage after the
// last full record must be dropped at open, and appending must resume at
// the right sequence number.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	appendN(t, l, 5, 0)
	_ = l.Close()

	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: plausible header, missing payload bytes.
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 1, 2, 3, 4, 'p', 'a', 'r', 't'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	defer l2.Close()
	if l2.Seq() != 5 {
		t.Fatalf("seq after torn-tail open = %d, want 5", l2.Seq())
	}
	if st := l2.Stats(); st.TornRecords != 1 {
		t.Errorf("tornRecords = %d, want 1", st.TornRecords)
	}
	if got := len(collect(t, l2)); got != 5 {
		t.Fatalf("replay after truncation = %d records, want 5", got)
	}
	if seq, err := l2.Append(Record{Kind: KindEmit, Instance: inst(6, 6)}); err != nil || seq != 6 {
		t.Fatalf("append after truncation = (%d, %v), want (6, nil)", seq, err)
	}
}

// TestDanglingHeaderTruncated simulates a crash that cut the tail
// exactly after a frame's 8-byte header. The open must truncate the
// dangling header — not mistake it for a clean segment end — or the
// next append lands after it and a later open CRC-fails the tail,
// discarding records that were already acked and fsynced.
func TestDanglingHeaderTruncated(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	appendN(t, l, 5, 0)
	_ = l.Close()

	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A full header claiming a payload the file does not have.
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	if l2.Seq() != 5 {
		t.Fatalf("seq after dangling-header open = %d, want 5", l2.Seq())
	}
	if st := l2.Stats(); st.TornRecords != 1 {
		t.Errorf("tornRecords = %d, want 1", st.TornRecords)
	}
	// The acked record appended now must survive the next open: if the
	// dangling header was left in place, this write lands after it and
	// the reopen below throws it away as a corrupt tail.
	if seq, err := l2.Append(Record{Kind: KindEmit, Instance: inst(6, 6)}); err != nil || seq != 6 {
		t.Fatalf("append after truncation = (%d, %v), want (6, nil)", seq, err)
	}
	_ = l2.Close()

	l3 := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	defer l3.Close()
	if l3.Seq() != 6 {
		t.Fatalf("seq after reopen = %d, want 6", l3.Seq())
	}
	if st := l3.Stats(); st.TornRecords != 0 {
		t.Errorf("reopen tornRecords = %d, want 0", st.TornRecords)
	}
	recs := collect(t, l3)
	if len(recs) != 6 || recs[5].Seq != 6 {
		t.Fatalf("replay after reopen = %d records (last seq %d), want 6", len(recs), recs[len(recs)-1].Seq)
	}
}

// TestCorruptBody rejects a flipped byte in a record payload.
func TestCorruptBody(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	appendN(t, l, 3, 0)
	_ = l.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The corrupt record is in the (only, hence last) segment: dropped as
	// a torn tail, along with nothing after it.
	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	if l2.Seq() != 2 {
		t.Fatalf("seq after corrupt tail = %d, want 2", l2.Seq())
	}
	_ = l2.Close()
}

// TestCorruptMiddleSegmentFailsOpen: damage in a sealed segment is not
// silently truncated — it fails the open.
func TestCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256})
	appendN(t, l, 30, 0)
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("need >=2 segments, got %d", st.Segments)
	}
	_ = l.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

// none is a snapshot walk over an empty store.
func none(func(*event.Instance) error) error { return nil }

// walkOf is a snapshot walk over ins.
func walkOf(ins ...*event.Instance) func(func(*event.Instance) error) error {
	return func(fn func(*event.Instance) error) error {
		for _, in := range ins {
			if err := fn(in); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	appendN(t, l, 40, 0) // several sealed segments, ticks 0..39
	kept := []*event.Instance{inst(7, 3), inst(8, 4)}
	if err := l.Snapshot(walkOf(kept...), math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SnapshotSeq != 40 {
		t.Errorf("snapshotSeq = %d, want 40", st.SnapshotSeq)
	}
	if st.CompactedSegments == 0 {
		t.Errorf("no segments compacted: %+v", st)
	}
	if st.Segments != 1 {
		t.Errorf("segments after full compaction = %d, want 1 (the active one)", st.Segments)
	}

	// New appends after the snapshot replay behind the snapshot's
	// records (Seq 0, in walk order) alongside whatever the active
	// (never-compacted) segment still holds.
	appendN(t, l, 5, 100)
	var snap []*event.Instance
	fresh := 0
	lastSeq := uint64(0)
	_ = l.Replay(allKinds, func(r Record) error {
		if r.Seq == 0 {
			if lastSeq != 0 || r.Kind != KindEmit {
				t.Fatalf("snapshot record %+v after seq %d", r, lastSeq)
			}
			snap = append(snap, r.Instance)
			return nil
		}
		if r.Seq <= lastSeq {
			t.Fatalf("replay out of order: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		if r.Seq > 40 {
			fresh++
		}
		return nil
	})
	if !reflect.DeepEqual(snap, kept) {
		t.Fatalf("snapshot replay = %+v, want %+v", snap, kept)
	}
	if fresh != 5 {
		t.Fatalf("tail replay = %d post-snapshot records, want 5", fresh)
	}
	_ = l.Close()

	// Reopen: snapshot seq recovered from the file name; appends resume
	// after the tail.
	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	defer l2.Close()
	if l2.Seq() != 45 {
		t.Fatalf("reopened seq = %d, want 45", l2.Seq())
	}
	if st := l2.Stats(); st.SnapshotSeq != 40 {
		t.Errorf("reopened snapshotSeq = %d, want 40", st.SnapshotSeq)
	}
	n := 0
	if err := l2.Replay([]Kind{KindEmit}, func(r Record) error {
		if r.Seq != 0 || n >= len(kept) || !reflect.DeepEqual(r.Instance, kept[n]) {
			t.Fatalf("reopened snapshot record %d = %+v", n, r)
		}
		n++
		return nil
	}); err != nil || n != len(kept) {
		t.Fatalf("reopened snapshot replay = %d records, %v; want %d", n, err, len(kept))
	}
}

// TestSnapshotRefusesUnreadable: a snapshot is written through Append's
// encoder and its checks, so one instance Replay would refuse fails the
// whole snapshot and leaves the previous one in place.
func TestSnapshotRefusesUnreadable(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
	defer l.Close()
	appendN(t, l, 3, 0)
	if err := l.Snapshot(walkOf(inst(1, 1)), math.MinInt64); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 10)
	bad := inst(2, 2)
	bad.Attrs["v"] = math.Inf(1)
	if err := l.Snapshot(walkOf(inst(1, 1), bad), math.MinInt64); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("snapshot with +Inf = %v, want ErrBadRecord", err)
	}
	if st := l.Stats(); st.SnapshotSeq != 3 || st.Snapshots != 1 {
		t.Fatalf("after a refused snapshot: %+v, want snapshot 3 kept", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(6))); !os.IsNotExist(err) {
		t.Fatalf("refused snapshot left a file: %v", err)
	}
}

// TestOpenRefusesJSONSnapshot: a directory left by a build that wrote
// NDJSON snapshots is refused with ErrVersion before Open changes any
// file: the tmp debris, the disconnected segment and the torn tail that
// Open would otherwise sweep, delete or truncate all survive unchanged.
func TestOpenRefusesJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	appendN(t, l, 40, 0)
	if err := l.Snapshot(none, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 100)
	_ = l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	active := segs[len(segs)-1] // zero-padded names sort by first seq
	// Turn it into an old directory: a JSON snapshot in place of the v2
	// one, a resurrected disconnected segment, a snapshot tmp file and a
	// torn tail on the active segment.
	if err := os.Rename(filepath.Join(dir, snapName(40)), filepath.Join(dir, fmt.Sprintf("snapshot-%016d.ndjson", 40))); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		segName(1): "stale",
		fmt.Sprintf("snapshot-%016d.ndjson.tmp", 41): `{"instance":`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{9, 0, 0})
	_ = f.Close()

	before := readDir(t, dir)
	if _, err := Open(Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512}); !errors.Is(err, ErrVersion) {
		t.Fatalf("open over a JSON snapshot = %v, want ErrVersion", err)
	}
	after := readDir(t, dir)
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("%s changed: %d bytes before, %d after", name, len(b), len(after[name]))
		}
	}
}

// readDir maps every file in dir to its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestCompactionHorizon: segments holding ingest records newer than the
// horizon survive compaction — a detection window may still need them.
func TestCompactionHorizon(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	defer l.Close()
	appendN(t, l, 40, 0) // ticks 0..39
	before := l.Stats().Segments
	// Horizon 0: every ingest record (ticks >= 0) is still needed.
	if err := l.Snapshot(none, 0); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != before || st.CompactedSegments != 0 {
		t.Errorf("horizon 0 compacted segments: %+v (had %d)", st, before)
	}
	// Horizon 20: segments whose newest ingest tick < 20 go.
	if err := l.Snapshot(none, 20); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.CompactedSegments == 0 {
		t.Errorf("horizon 20 compacted nothing: %+v", st)
	}
	// Remaining sealed segments must still hold every ingest >= 20.
	seen := make(map[uint64]bool)
	_ = l.Replay(allKinds, func(r Record) error {
		seen[r.Seq] = true
		return nil
	})
	missingNew := false
	for seq := uint64(1); seq <= 40; seq++ {
		tick := timemodel.Tick(seq - 1)
		if tick >= 20 && !seen[seq] {
			missingNew = true
		}
	}
	if missingNew {
		t.Error("compaction dropped ingest records newer than the horizon")
	}
}

// TestOpenSweepsCrashDebris: a crash can leave a snapshot tmp file
// (killed mid-write) or resurrect a compacted segment (unlink batch
// persisted out of order). Open must clean both up rather than leak or
// refuse.
func TestOpenSweepsCrashDebris(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	appendN(t, l, 40, 0)

	// Save a doomed early segment's bytes before compaction removes it.
	firstSeg := filepath.Join(dir, segName(1))
	saved, err := os.ReadFile(firstSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(none, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(firstSeg); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not compacted: %v", err)
	}
	appendN(t, l, 3, 100)
	_ = l.Close()

	// Resurrect the compacted segment and drop a stray snapshot tmp.
	if err := os.WriteFile(firstSeg, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	tmpFile := filepath.Join(dir, "snapshot-12345.tmp")
	if err := os.WriteFile(tmpFile, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512})
	defer l2.Close()
	if l2.Seq() != 43 {
		t.Errorf("seq after debris sweep = %d, want 43", l2.Seq())
	}
	if _, err := os.Stat(firstSeg); !os.IsNotExist(err) {
		t.Errorf("disconnected covered segment not re-deleted: %v", err)
	}
	if _, err := os.Stat(tmpFile); !os.IsNotExist(err) {
		t.Errorf("snapshot tmp file not swept: %v", err)
	}
	fresh := 0
	_ = l2.Replay(allKinds, func(r Record) error {
		if r.Seq > 40 {
			fresh++
		}
		return nil
	})
	if fresh != 3 {
		t.Errorf("replay after sweep = %d post-snapshot records, want 3", fresh)
	}
}

func TestSnapshotReplacesOlder(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff})
	defer l.Close()
	// A snapshot of the empty log (seq 0) is replaced like any other.
	for _, n := range []int{0, 3} {
		appendN(t, l, n, 0)
		if err := l.Snapshot(none, math.MinInt64); err != nil {
			t.Fatal(err)
		}
	}
	appendN(t, l, 3, 10)
	if err := l.Snapshot(none, math.MinInt64); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range entries {
		if _, ok := parseSeqName(e.Name(), snapPrefix, snapSuffix); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files on disk, want 1", snaps)
	}
	if seq := l.Stats().SnapshotSeq; seq != 6 {
		t.Errorf("latest snapshot seq = %d, want 6", seq)
	}
}

func TestFsyncPolicies(t *testing.T) {
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy should fail to parse")
	}
	for _, name := range []string{"", "always", "interval", "off"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		dir := t.TempDir()
		l := mustOpen(t, Options{Dir: dir, Fsync: p, FsyncEvery: 10 * time.Millisecond})
		appendN(t, l, 4, 0)
		if p == FsyncAlways {
			if st := l.Stats(); st.Syncs < 4 {
				t.Errorf("always: %d syncs after 4 appends", st.Syncs)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2 := mustOpen(t, Options{Dir: dir, Fsync: p})
		if got := len(collect(t, l2)); got != 4 {
			t.Errorf("policy %q: reopened replay = %d records, want 4", p, got)
		}
		_ = l2.Close()
	}
}

func TestAppendErrors(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir()})
	if _, err := l.Append(Record{Kind: KindEmit}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("emit without instance = %v", err)
	}
	if _, err := l.Append(Record{Kind: KindObservation}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("observation without observation = %v", err)
	}
	if _, err := l.Append(Record{Kind: 42, Instance: inst(1, 1)}); !errors.Is(err, ErrBadRecord) {
		t.Errorf("unknown kind = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindEmit, Instance: inst(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without Dir should fail")
	}
}

// imuRecord is the ingest record of one 10-axis IMU observation, the
// shape of the benchmark's imu workloads.
func imuRecord(seq uint64) Record {
	tick := timemodel.Tick(1_000_000 + seq)
	return Record{Kind: KindObservation, Source: "IMU3", Conf: 1, Now: tick,
		Observation: &event.Observation{
			Mote: "MT1", Sensor: "IMU3", Seq: seq, Time: timemodel.At(tick),
			Loc: spatial.AtPoint(812.25, 90.5),
			Attrs: event.Attrs{
				"ax": 4.2, "ay": -0.2, "az": 9.8, "gx": 0.01, "gy": 0.02, "gz": 0.03,
				"mx": 41, "my": -12, "mz": 7, "temp": 21.5,
			},
		}}
}

// TestAppendAllocatesNothing pins the steady-state append cost: the
// payload is encoded into a buffer and an encoder the log owns.
func TestAppendAllocatesNothing(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncOff})
	defer l.Close()
	rec := imuRecord(1)
	if _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		rec.Observation.Seq++
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state observation append = %.1f allocs, want 0", allocs)
	}
}

// TestIMURecordSize pins the framed size of one IMU observation record:
// an 8-byte frame header and a 161-byte payload (format v1 framed the
// same record as 282 B, a 274-byte JSON payload).
func TestIMURecordSize(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncOff})
	defer l.Close()
	if _, err := l.Append(imuRecord(1)); err != nil {
		t.Fatal(err)
	}
	if got, want := l.Stats().Bytes, int64(8+161); got != want {
		t.Fatalf("IMU record = %d B framed, want %d", got, want)
	}
}

// writeObservations fills a fresh log with n observation records over
// small segments and returns its directory and segment count.
func writeObservations(t *testing.T, n int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256 << 10})
	for i := 1; i <= n; i++ {
		if _, err := l.Append(imuRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Stats().Segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, segs
}

// allocBudget bounds work that must scale with the segment count, not
// with the record count.
func allocBudget(segs int) float64 { return float64(64 + 32*segs) }

// TestOpenReadsHeadersOnly: Open CRC-checks every frame but parses only
// kind and tick, so its allocations scale with segments, not records.
func TestOpenReadsHeadersOnly(t *testing.T) {
	const n = 10_000
	dir, segs := writeObservations(t, n)
	allocs := testing.AllocsPerRun(3, func() {
		l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256 << 10})
		if l.Seq() != n {
			t.Fatalf("reopened seq = %d, want %d", l.Seq(), n)
		}
		l.Close()
	})
	t.Logf("Open over %d records in %d segments: %.0f allocs", n, segs, allocs)
	if allocs > allocBudget(segs) {
		t.Fatalf("Open over %d records in %d segments = %.0f allocs, want <= %.0f", n, segs, allocs, allocBudget(segs))
	}
}

// TestReplayDecodesOnlyWantedKinds: a Replay filtered to emit records
// over an observation-only log calls nothing and decodes nothing.
func TestReplayDecodesOnlyWantedKinds(t *testing.T) {
	const n = 10_000
	dir, segs := writeObservations(t, n)
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256 << 10})
	defer l.Close()
	calls := 0
	allocs := testing.AllocsPerRun(3, func() {
		if err := l.Replay([]Kind{KindEmit}, func(Record) error {
			calls++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if calls != 0 {
		t.Fatalf("emit-only replay called fn %d times over an observation-only log", calls)
	}
	t.Logf("emit-only replay over %d records in %d segments: %.0f allocs", n, segs, allocs)
	if allocs > allocBudget(segs) {
		t.Fatalf("emit-only replay over %d records in %d segments = %.0f allocs, want <= %.0f", n, segs, allocs, allocBudget(segs))
	}
	got := 0
	if err := l.Replay([]Kind{KindObservation}, func(r Record) error {
		got++
		if r.Kind != KindObservation || r.Seq != uint64(got) || r.Observation.Seq != r.Seq {
			t.Fatalf("record %d = %+v", got, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("observation replay = %d records, want %d", got, n)
	}
}

// TestAppendRefusesUnreadable: what the v1 JSON payload could not hold
// (NaN, ±Inf), invalid instances, and entities past the wire codec's
// decode bounds are refused with ErrBadRecord, and the log stays
// readable.
func TestAppendRefusesUnreadable(t *testing.T) {
	l := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncOff})
	defer l.Close()
	nan, inf := math.NaN(), math.Inf(1)
	huge := event.Attrs{}
	for i := 0; i < 5000; i++ {
		huge[fmt.Sprintf("a%04d", i)] = 1
	}
	bad := map[string]func(*Record){
		"conf":       func(r *Record) { r.Conf = nan },
		"attr":       func(r *Record) { r.Observation.Attrs["ax"] = inf },
		"coordinate": func(r *Record) { r.Observation.Loc = spatial.AtPoint(nan, 0) },
		"attr bound": func(r *Record) { r.Observation.Attrs = huge },
		"confidence": func(r *Record) { r.Kind, r.Instance = KindEmit, inst(1, 1); r.Instance.Confidence = nan },
		"genLoc": func(r *Record) {
			r.Kind, r.Instance = KindEmit, inst(1, 1)
			r.Instance.GenLoc = spatial.AtPoint(0, -inf)
		},
		"invalid inst": func(r *Record) { r.Kind, r.Instance = KindIngest, inst(1, 1); r.Instance.Observer = "" },
	}
	for name, mutate := range bad {
		rec := imuRecord(1)
		mutate(&rec)
		if _, err := l.Append(rec); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: append = %v, want ErrBadRecord", name, err)
		}
	}
	if _, err := l.Append(imuRecord(1)); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, l); len(recs) != 1 || l.Seq() != 1 {
		t.Fatalf("log after refusals: %d records, seq %d; want 1, 1", len(recs), l.Seq())
	}
}

// FuzzWALPayload: decoding arbitrary bytes returns a record or an error
// and never panics, and the payload codec is canonical — a payload that
// decodes (to a loggable record) re-encodes to the same bytes. The seeds
// are observation, ingest and emit records.
func FuzzWALPayload(f *testing.F) {
	var enc event.WireEncoder
	for _, rec := range []Record{
		imuRecord(7),
		{Kind: KindIngest, Source: "S.t", Conf: 0.9, Now: -3, Instance: inst(2, -3)},
		{Kind: KindEmit, Instance: inst(99, 1<<40)},
	} {
		p, err := appendPayload(nil, &enc, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Add([]byte(`{"k":1}`))
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return // a zero-length frame never reaches the decoder
		}
		var rec Record
		if err := decodePayload(p, &rec, event.NewInterner()); err != nil || !finite(&rec) {
			return
		}
		var enc event.WireEncoder
		again, err := appendPayload(nil, &enc, &rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, p)
		}
		var back Record
		if err := decodePayload(again, &back, nil); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("decode(encode(rec)) = %+v, %v; want %+v", back, err, rec)
		}
	})
}

// TestWriteFileAtomic: the snapshot and the cold tier's segment spills
// share this write. A failed write leaves the old file and no ".tmp";
// a successful one replaces the file.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	put := func(s string, err error) error {
		return WriteFileAtomic(path, true, func(w io.Writer) error {
			if _, werr := io.WriteString(w, s); werr != nil {
				return werr
			}
			return err
		})
	}
	if err := put("old", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := put("partial", boom); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temporary file: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if err := put("new", nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q, want new", got)
	}
}
