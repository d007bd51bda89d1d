package db

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func inst(observer, eventID string, seq uint64, occ timemodel.Time, loc spatial.Location) event.Instance {
	return event.Instance{
		Layer:      event.LayerSensor,
		Observer:   observer,
		Event:      eventID,
		Seq:        seq,
		Gen:        occ.End() + 1,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        occ,
		Loc:        loc,
		Confidence: 1,
	}
}

// hotTime is a time-window QueryST over the hot tier, re-sorted by
// occurrence start (stably, so ties keep arrival order): the form the
// ScanTime oracle returns.
func hotTime(t *testing.T, s *Store, eventID string, from, to timemodel.Tick) []event.Instance {
	t.Helper()
	res, err := s.QueryST(QuerySpec{Event: eventID, Window: &TimeWindow{From: from, To: to}, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Instances
	sort.SliceStable(out, func(i, j int) bool { return out[i].Occ.Start() < out[j].Occ.Start() })
	return out
}

// hotRegion is a region QueryST over the hot tier, in arrival order like
// the ScanRegion oracle.
func hotRegion(t *testing.T, s *Store, region spatial.Location) []event.Instance {
	t.Helper()
	res, err := s.QueryST(QuerySpec{Region: &region, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	return res.Instances
}

// orderedIDs renders a result's entity ids, in order.
func orderedIDs(list []event.Instance) []string {
	out := make([]string, len(list))
	for i, in := range list {
		out[i] = in.EntityID()
	}
	return out
}

func TestLogAndSeqOf(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	in := inst("MT1", "S.hot", 1, timemodel.At(10), spatial.AtPoint(1, 1))
	if err := s.Log(in); err != nil {
		t.Fatal(err)
	}
	seq, ok := s.SeqOf(&in)
	if !ok {
		t.Fatal("logged instance does not resolve")
	}
	if got := s.All(); len(got) != 1 || got[0].EntityID() != in.EntityID() || seq != 0 {
		t.Errorf("SeqOf = %d, All = %v", seq, orderedIDs(got))
	}
	if _, ok := s.SeqOf(&event.Instance{Observer: "x", Event: "y", Seq: 9}); ok {
		t.Error("unknown entity id resolved")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	// Duplicate log is idempotent.
	if err := s.Log(in); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("duplicate changed Len = %d", s.Len())
	}
	// Invalid instance rejected.
	bad := in
	bad.Confidence = 5
	if err := s.Log(bad); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestQueryTime(t *testing.T) {
	s, _ := New(0)
	// Insert out of occurrence order to exercise the ordered index.
	_ = s.Log(inst("M", "E", 1, timemodel.MustBetween(50, 60), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "E", 2, timemodel.At(10), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "E", 3, timemodel.MustBetween(90, 120), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "other", 4, timemodel.At(55), spatial.AtPoint(0, 0)))

	got := hotTime(t, s, "E", 0, 200)
	if len(got) != 3 {
		t.Fatalf("all = %d, want 3", len(got))
	}
	if got[0].Occ.Start() != 10 || got[1].Occ.Start() != 50 || got[2].Occ.Start() != 90 {
		t.Fatalf("order wrong: %v %v %v", got[0].Occ, got[1].Occ, got[2].Occ)
	}
	// Range intersecting only the interval [50,60].
	got = hotTime(t, s, "E", 55, 70)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("range query = %+v", got)
	}
	// Empty range.
	if got := hotTime(t, s, "E", 200, 100); len(got) != 0 {
		t.Fatal("inverted range should be empty")
	}
	if got := hotTime(t, s, "E", 61, 89); len(got) != 0 {
		t.Fatalf("gap query = %d", len(got))
	}
	// Empty event id scans everything.
	if got := hotTime(t, s, "", 0, 200); len(got) != 4 {
		t.Fatalf("scan-all = %d, want 4", len(got))
	}
}

func TestQueryTimeMatchesScan(t *testing.T) {
	s, _ := New(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		length := timemodel.Tick(rng.Intn(50))
		_ = s.Log(inst("M", "E", uint64(i+1), timemodel.MustBetween(start, start+length),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100)))
	}
	for trial := 0; trial < 30; trial++ {
		from := timemodel.Tick(rng.Intn(1000))
		to := from + timemodel.Tick(rng.Intn(200))
		a, b := orderedIDs(hotTime(t, s, "E", from, to)), orderedIDs(s.ScanTime("E", from, to))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: index %v != scan %v", trial, a, b)
		}
	}
}

func TestQueryRegionMatchesScan(t *testing.T) {
	s, _ := New(8)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		_ = s.Log(inst("M", "E", uint64(i+1), timemodel.At(timemodel.Tick(i)),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100)))
	}
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*80, rng.Float64()*80
		f, err := spatial.Rect(x, y, x+15, y+15)
		if err != nil {
			t.Fatal(err)
		}
		region := spatial.InField(f)
		a, b := orderedIDs(hotRegion(t, s, region)), orderedIDs(s.ScanRegion(region))
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: index %v != scan %v", trial, a, b)
		}
	}
}

func TestLineage(t *testing.T) {
	s, _ := New(0)
	o := event.Observation{Mote: "MT1", Sensor: "SR", Seq: 1, Time: timemodel.At(5), Loc: spatial.AtPoint(0, 0)}
	s.LogObservation(o)

	sensor := inst("MT1", "S.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	sensor.Inputs = []string{o.EntityID()}
	_ = s.Log(sensor)

	cp := inst("sink1", "CP.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	cp.Layer = event.LayerCyberPhysical
	cp.Inputs = []string{sensor.EntityID()}
	_ = s.Log(cp)

	cyber := inst("CCU1", "E.e", 1, timemodel.At(5), spatial.AtPoint(0, 0))
	cyber.Layer = event.LayerCyber
	cyber.Inputs = []string{cp.EntityID()}
	_ = s.Log(cyber)

	chain, err := s.Lineage(cyber.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{cyber.EntityID(), cp.EntityID(), sensor.EntityID(), o.EntityID()}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	if _, err := s.Lineage("E(none,none,0)"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lineage err = %v", err)
	}
	// Lineage of a logged observation resolves to itself.
	chain, err = s.Lineage(o.EntityID())
	if err != nil || len(chain) != 1 {
		t.Errorf("observation lineage = %v, %v", chain, err)
	}
}

func TestLineageCycleSafe(t *testing.T) {
	s, _ := New(0)
	a := inst("M", "E", 1, timemodel.At(1), spatial.AtPoint(0, 0))
	b := inst("M", "E", 2, timemodel.At(2), spatial.AtPoint(0, 0))
	a.Inputs = []string{b.EntityID()}
	b.Inputs = []string{a.EntityID()} // pathological cycle
	_ = s.Log(a)
	_ = s.Log(b)
	chain, err := s.Lineage(a.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("cycle chain = %v", chain)
	}
}

func TestEventCountAndAll(t *testing.T) {
	s, _ := New(0)
	_ = s.Log(inst("M", "B", 1, timemodel.At(1), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "A", 1, timemodel.At(2), spatial.AtPoint(0, 0)))
	_ = s.Log(inst("M", "A", 2, timemodel.At(3), spatial.AtPoint(0, 0)))
	if n := s.Stats().Events; n != 2 {
		t.Errorf("Stats().Events = %d, want 2", n)
	}
	all := s.All()
	if len(all) != 3 || all[0].Event != "B" {
		t.Errorf("All = %v", all)
	}
}

func TestConcurrentLogAndQuery(t *testing.T) {
	s, _ := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in := inst(fmt.Sprintf("M%d", g), "E", uint64(i+1), timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i), float64(g)))
				if err := s.Log(in); err != nil {
					t.Errorf("log: %v", err)
					return
				}
				if _, err := s.QueryST(QuerySpec{Event: "E", Window: &TimeWindow{From: 0, To: timemodel.Tick(i)}, Tier: TierHot}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

// TestRegionQueryFarOutAndWide: a region QueryST served by the grid
// returns an instance at (1e21, 1e21) and one whose field spans 15,625
// grid cells, agreeing with the ScanRegion oracle. Unclamped, the
// far-out instance sat in a wrapped cell and the grid never found it.
func TestRegionQueryFarOutAndWide(t *testing.T) {
	s, _ := New(0)
	for i := 0; i < 20; i++ {
		_ = s.Log(inst("M", "E", uint64(i+1), timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i), float64(i))))
	}
	far := inst("M", "E", 100, timemodel.At(100), spatial.AtPoint(1e21, 1e21))
	wideField, err := spatial.Rect(0, 0, 2000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	wide := inst("M", "E", 101, timemodel.At(101), spatial.InField(wideField))
	for _, in := range []event.Instance{far, wide} {
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	rect := func(x0, y0, x1, y1 float64) spatial.Location {
		f, err := spatial.Rect(x0, y0, x1, y1)
		if err != nil {
			t.Fatal(err)
		}
		return spatial.InField(f)
	}
	for _, tt := range []struct {
		name   string
		region spatial.Location
		want   []string
	}{
		{"around the far-out instance", rect(9e20, 9e20, 2e21, 2e21), []string{far.EntityID()}},
		{"inside the wide instance", rect(100, 100, 200, 200), []string{wide.EntityID()}},
	} {
		res, err := s.QueryST(QuerySpec{Region: &tt.region, Tier: TierHot})
		if err != nil {
			t.Fatal(err)
		}
		if res.Index != "region" {
			t.Fatalf("%s: served by %q, want the grid", tt.name, res.Index)
		}
		got, oracle := orderedIDs(res.Instances), orderedIDs(s.ScanRegion(tt.region))
		if fmt.Sprint(got) != fmt.Sprint(oracle) || fmt.Sprint(got) != fmt.Sprint(tt.want) {
			t.Fatalf("%s: QueryST %v, ScanRegion %v, want %v", tt.name, got, oracle, tt.want)
		}
	}
	everywhere := rect(-1e22, -1e22, 1e22, 1e22)
	if got, oracle := orderedIDs(hotRegion(t, s, everywhere)), orderedIDs(s.ScanRegion(everywhere)); len(got) != 22 || fmt.Sprint(got) != fmt.Sprint(oracle) {
		t.Fatalf("all-covering region: QueryST %v, ScanRegion %v", got, oracle)
	}
}
