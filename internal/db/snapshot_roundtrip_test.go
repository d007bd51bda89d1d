package db

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wal"
)

// buildStore populates a store pseudo-randomly from seed: n instances
// across a handful of observers/events (punctual and interval
// occurrences, some with observations and provenance), with the given
// retention applied while logging — so stores with evicted prefixes are
// part of the property.
func buildStore(t testing.TB, seed int64, n int, ret Retention) *Store {
	t.Helper()
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(ret)
	rng := rand.New(rand.NewSource(seed))
	observers := []string{"MT1", "MT2", "sink", "ccu"}
	events := []string{"E.a", "E.b", "E.c"}
	for i := 0; i < n; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		occ := timemodel.At(start)
		if rng.Intn(3) == 0 {
			occ = timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(50)))
		}
		in := event.Instance{
			Layer:      event.LayerSensor,
			Observer:   observers[rng.Intn(len(observers))],
			Event:      events[rng.Intn(len(events))],
			Seq:        uint64(i + 1),
			Gen:        occ.End() + timemodel.Tick(rng.Intn(5)),
			GenLoc:     spatial.AtPoint(0, 0),
			Occ:        occ,
			Loc:        spatial.AtPoint(rng.Float64()*100, rng.Float64()*100),
			Confidence: rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			in.Attrs = event.Attrs{"v": rng.Float64() * 50, "w": float64(rng.Intn(10))}
		}
		if rng.Intn(4) == 0 {
			o := event.Observation{
				Mote: in.Observer, Sensor: "SR1", Seq: uint64(i + 1),
				Time: occ, Loc: in.Loc,
				Attrs: event.Attrs{"raw": rng.Float64()},
			}
			s.LogObservation(o)
			in.Inputs = []string{o.EntityID()}
		}
		if err := s.Log(in); err != nil {
			t.Fatalf("seed %d instance %d: %v", seed, i, err)
		}
	}
	return s
}

// snapshotFile writes s's snapshot through a fresh WAL in its own
// directory, as a durable engine does, and returns the directory and
// the snapshot file's bytes.
func snapshotFile(t testing.TB, s *Store) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot covers the log's records, so the log needs one.
	o := event.Observation{Mote: "M", Sensor: "S", Seq: 1, Time: timemodel.At(0), Loc: spatial.AtPoint(0, 0)}
	if _, err := l.Append(wal.Record{Kind: wal.KindObservation, Observation: &o}); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(s.Snapshot, math.MinInt64); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("snapshot files = %v, %v; want one", paths, err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return dir, b
}

// recoverInto replays the snapshot in dir into dst the way a durable
// engine's recovery does: Open the log, then hand Replay's emit records
// to LogBatch a page at a time.
func recoverInto(dir string, dst *Store) error {
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		return err
	}
	defer l.Close()
	page := make([]event.Instance, 0, 512)
	flush := func() error {
		_, _, err := dst.LogBatch(page)
		page = page[:0]
		return err
	}
	err = l.Replay([]wal.Kind{wal.KindEmit}, func(rec wal.Record) error {
		if page = append(page, *rec.Instance); len(page) == cap(page) {
			return flush()
		}
		return nil
	})
	if err == nil && len(page) > 0 {
		err = flush()
	}
	return err
}

// checkRoundTrip asserts the property: a snapshot written through the
// WAL, replayed into a fresh store and snapshotted again, reproduces
// the first snapshot file byte for byte.
func checkRoundTrip(t testing.TB, src *Store, label string) {
	t.Helper()
	dir, first := snapshotFile(t, src)
	dst, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := recoverInto(dir, dst); err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	_, second := snapshotFile(t, dst)
	if !bytes.Equal(first, second) {
		t.Fatalf("%s: round trip is not byte-identical\n--- first ---\n%x\n--- second ---\n%x",
			label, first, second)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("%s: recovered %d instances, source has %d", label, dst.Len(), src.Len())
	}
}

// TestSnapshotRoundTripProperty runs the round-trip property over many
// pseudo-random stores, including retention-bounded ones whose log
// prefix has been evicted.
func TestSnapshotRoundTripProperty(t *testing.T) {
	retentions := []Retention{
		{},                              // keep everything
		{MaxInstances: 7},               // front eviction by count
		{MaxAge: 120},                   // front eviction by age
		{MaxInstances: 11, MaxAge: 300}, // both
	}
	var evicted uint64
	for seed := int64(1); seed <= 25; seed++ {
		for _, ret := range retentions {
			src := buildStore(t, seed, 40, ret)
			evicted += src.Stats().Evicted
			checkRoundTrip(t, src, "seeded")
		}
	}
	if evicted == 0 {
		t.Fatal("no store exercised an evicted prefix — the property lost half its point")
	}
}

// FuzzSnapshotRoundTrip fuzzes the same property over arbitrary
// (seed, size, retention) triples.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint16(0))
	f.Add(int64(42), uint8(60), uint8(9), uint16(0))
	f.Add(int64(7), uint8(80), uint8(0), uint16(90))
	f.Add(int64(-3), uint8(33), uint8(5), uint16(250))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, maxInstances uint8, maxAge uint16) {
		ret := Retention{MaxInstances: int(maxInstances), MaxAge: timemodel.Tick(maxAge)}
		src := buildStore(t, seed, int(n), ret)
		checkRoundTrip(t, src, "fuzzed")
	})
}
