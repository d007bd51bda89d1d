package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wal"
)

// walkJSON renders the store's snapshot walk, one instance per line.
func walkJSON(t *testing.T, s *Store) string {
	t.Helper()
	var out []byte
	if err := s.Snapshot(func(in *event.Instance) error {
		var err error
		out, err = in.AppendJSON(out)
		out = append(out, '\n')
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, _ := New(0)
	o := event.Observation{Mote: "MT1", Sensor: "SR", Seq: 1, Time: timemodel.At(5), Loc: spatial.AtPoint(0, 0), Attrs: event.Attrs{"v": 3}}
	src.LogObservation(o)

	a := inst("MT1", "S.e", 1, timemodel.At(5), spatial.AtPoint(1, 1))
	a.Inputs = []string{o.EntityID()}
	_ = src.Log(a)
	b := inst("sink", "CP.e", 1, timemodel.MustBetween(5, 9), spatial.AtPoint(2, 2))
	b.Layer = event.LayerCyberPhysical
	b.Inputs = []string{a.EntityID()}
	_ = src.Log(b)

	dir, _ := snapshotFile(t, src)
	dst, _ := New(0)
	if err := recoverInto(dir, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Fatalf("recovered %d instances, want 2", dst.Len())
	}
	// Queries behave identically after recovery.
	got := hotTime(t, dst, "CP.e", 0, 100)
	if len(got) != 1 || !got[0].Occ.Equal(timemodel.MustBetween(5, 9)) {
		t.Fatalf("query after recovery = %+v", got)
	}
	// Provenance chain survives; the observation, which snapshots do not
	// hold, stays as the chain's leaf.
	chain, err := dst.Lineage(b.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[2] != o.EntityID() {
		t.Fatalf("lineage after recovery = %v", chain)
	}
	// Spatial index rebuilt.
	region, _ := spatial.Rect(0.5, 0.5, 1.5, 1.5)
	if hits := hotRegion(t, dst, spatial.InField(region)); len(hits) != 1 {
		t.Fatalf("region query after recovery = %d hits", len(hits))
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s, _ := New(0)
	for i := uint64(1); i <= 5; i++ {
		s.LogObservation(event.Observation{Mote: "M", Sensor: "SR", Seq: i, Time: timemodel.At(timemodel.Tick(i)), Loc: spatial.AtPoint(0, 0)})
		_ = s.Log(inst("M", "E", i, timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i), 0)))
	}
	if walkJSON(t, s) != walkJSON(t, s) {
		t.Fatal("snapshot walks differ")
	}
}

// TestSnapshotOrderIndependent pins the determinism contract: two stores
// holding the same instances logged in different arrival orders (the
// sharded engine's workers race to Log) must walk identically.
func TestSnapshotOrderIndependent(t *testing.T) {
	mk := func(perm []int) string {
		t.Helper()
		s, _ := New(0)
		all := []event.Instance{
			inst("A", "E.x", 1, timemodel.At(5), spatial.AtPoint(1, 1)),
			inst("B", "E.x", 1, timemodel.At(5), spatial.AtPoint(2, 2)),
			inst("A", "E.y", 2, timemodel.MustBetween(3, 8), spatial.AtPoint(3, 3)),
			inst("A", "E.x", 3, timemodel.At(9), spatial.AtPoint(4, 4)),
			inst("B", "E.y", 2, timemodel.At(2), spatial.AtPoint(5, 5)),
		}
		for _, i := range perm {
			if err := s.Log(all[i]); err != nil {
				t.Fatal(err)
			}
		}
		return walkJSON(t, s)
	}
	want := mk([]int{0, 1, 2, 3, 4})
	for _, perm := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}} {
		if got := mk(perm); got != want {
			t.Fatalf("snapshot differs for arrival order %v:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

// TestLoadErrors: a corrupt or truncated snapshot file fails recovery
// with wal.ErrCorrupt, at Open, before any of it is loaded. That holds
// also for a file cut at a record boundary, which is still a run of
// whole, CRC-clean frames: only the record count its trailer carries
// tells that the last record of this 10-instance IMU snapshot is gone.
func TestLoadErrors(t *testing.T) {
	const rec = 102 // one framed IMU emit record, as TestSnapshotIMUBytes pins
	for name, damage := range map[string]func([]byte) []byte{
		"corrupt":             func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"truncated":           func(b []byte) []byte { return b[:len(b)-1] },
		"last record dropped": func(b []byte) []byte { return append(b[:9*rec:9*rec], b[10*rec:]...) },
		"cut after record 9":  func(b []byte) []byte { return b[:9*rec] },
	} {
		dir, body := snapshotFile(t, imuStore(t, 10))
		paths, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
		if err := os.WriteFile(paths[0], damage(bytes.Clone(body)), 0o644); err != nil {
			t.Fatal(err)
		}
		dst, _ := New(0)
		if err := recoverInto(dir, dst); !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s snapshot: recovery = %v, want wal.ErrCorrupt", name, err)
		}
		if dst.Len() != 0 {
			t.Errorf("%s snapshot: recovery loaded %d instances, want none", name, dst.Len())
		}
	}
}

func TestLoadIdempotentWithExisting(t *testing.T) {
	s, _ := New(0)
	a := inst("M", "E", 1, timemodel.At(1), spatial.AtPoint(0, 0))
	_ = s.Log(a)
	dir, _ := snapshotFile(t, s)
	if err := recoverInto(dir, s); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate recovery changed Len = %d", s.Len())
	}
}

// imuStore holds n instances of the shape the imu benchmark daemon
// emits: one sensor-layer filter hit per IMU observation, with its
// provenance input and no attrs (wire-ingested observations carry none
// into an emission).
func imuStore(t testing.TB, n int) *Store {
	t.Helper()
	s, _ := New(0)
	for i := 0; i < n; i++ {
		tick := timemodel.Tick(1_000_000 + i)
		loc := spatial.AtPoint(812.25, 90.5)
		o := event.Observation{Mote: "MT1", Sensor: "IMU3", Seq: uint64(100_000 + i), Time: timemodel.At(tick), Loc: loc}
		in := event.Instance{
			Layer: event.LayerSensor, Observer: "stcpsd", Event: "F3", Seq: uint64(1_000 + i),
			Gen: tick, GenLoc: spatial.AtPoint(0, 0), Occ: timemodel.At(tick), Loc: loc,
			Confidence: 1, Inputs: []string{o.EntityID()},
		}
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSnapshotIMUBytes pins the snapshot's size per IMU instance: a
// framed v2 emit record is 102 B, and the file ends in an 11-byte
// trailer (frame header, kind, uvarint 1000). The NDJSON snapshot it
// replaced wrote the same instance as a 237-byte line.
func TestSnapshotIMUBytes(t *testing.T) {
	const n = 1000
	_, body := snapshotFile(t, imuStore(t, n))
	if got, want := len(body), n*102+11; got != want {
		t.Fatalf("snapshot of %d IMU instances = %d B (%.1f B each), want %d", n, got, float64(got)/n, want)
	}
}

// TestRecoverAllocs bounds the allocations to recover a snapshot of 1000
// IMU instances into a fresh store: the WAL decode shares repeated
// strings through one interner, so the count is dominated by each
// instance's own strings and the store's indexes: 4.2 per instance. The
// JSON snapshot's Load took 24.2 per instance for the same recovery.
func TestRecoverAllocs(t *testing.T) {
	const n = 1000
	dir, _ := snapshotFile(t, imuStore(t, n))
	allocs := testing.AllocsPerRun(5, func() {
		dst, _ := New(0)
		if err := recoverInto(dir, dst); err != nil || dst.Len() != n {
			t.Fatalf("recovered %d instances, %v", dst.Len(), err)
		}
	})
	t.Logf("recovering %d IMU instances: %.0f allocs (%.1f each)", n, allocs, allocs/n)
	if allocs > 5*n {
		t.Fatalf("recovering %d IMU instances = %.0f allocs, want <= %d", n, allocs, 5*n)
	}
}
