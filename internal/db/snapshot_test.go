package db

import (
	"bytes"
	"strings"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

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

	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := New(0)
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Fatalf("loaded %d instances, want 2", dst.Len())
	}
	// Queries behave identically after reload.
	got := hotTime(t, dst, "CP.e", 0, 100)
	if len(got) != 1 || !got[0].Occ.Equal(timemodel.MustBetween(5, 9)) {
		t.Fatalf("query after load = %+v", got)
	}
	// Provenance chain survives, including the observation leaf.
	chain, err := dst.Lineage(b.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[2] != o.EntityID() {
		t.Fatalf("lineage after load = %v", chain)
	}
	// Spatial index rebuilt.
	region, _ := spatial.Rect(0.5, 0.5, 1.5, 1.5)
	if hits := hotRegion(t, dst, spatial.InField(region)); len(hits) != 1 {
		t.Fatalf("region query after load = %d hits", len(hits))
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s, _ := New(0)
	for i := uint64(1); i <= 5; i++ {
		s.LogObservation(event.Observation{Mote: "M", Sensor: "SR", Seq: i, Time: timemodel.At(timemodel.Tick(i)), Loc: spatial.AtPoint(0, 0)})
		_ = s.Log(inst("M", "E", i, timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i), 0)))
	}
	var b1, b2 bytes.Buffer
	if err := s.Snapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("snapshots are not byte-identical")
	}
}

// TestSnapshotOrderIndependent pins the determinism contract: two stores
// holding the same instances logged in different arrival orders (the
// sharded engine's workers race to Log) must snapshot byte-identically.
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
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := mk([]int{0, 1, 2, 3, 4})
	for _, perm := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}} {
		if got := mk(perm); got != want {
			t.Fatalf("snapshot differs for arrival order %v:\n%s\nvs\n%s", perm, got, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	s, _ := New(0)
	if err := s.Load(strings.NewReader(`{"instance": {"layer": 99}}`)); err == nil {
		t.Error("invalid instance should fail to load")
	}
	if err := s.Load(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed snapshot should fail")
	}
	if err := s.Load(strings.NewReader(``)); err != nil {
		t.Errorf("empty snapshot should load cleanly: %v", err)
	}
	// Unknown record kinds (both fields nil) are skipped.
	if err := s.Load(strings.NewReader(`{}`)); err != nil {
		t.Errorf("empty record should be skipped: %v", err)
	}
}

func TestLoadIdempotentWithExisting(t *testing.T) {
	s, _ := New(0)
	a := inst("M", "E", 1, timemodel.At(1), spatial.AtPoint(0, 0))
	_ = s.Log(a)
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate load changed Len = %d", s.Len())
	}
}
