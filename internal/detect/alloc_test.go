package detect

import (
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// wireViews builds n zero-copy observation views of one sensor the way
// the wire path delivers them: record i at tick i, all within the join
// radius of each other.
func wireViews(t *testing.T, sensor string, n int) []event.ObservationView {
	t.Helper()
	views := make([]event.ObservationView, n)
	it := event.NewInterner()
	for i := range views {
		o := event.Observation{
			Mote: "M7", Sensor: sensor, Seq: uint64(i + 1),
			Time:  timemodel.At(timemodel.Tick(i)),
			Loc:   spatial.AtPoint(32+0.01*float64(i%8), 32),
			Attrs: event.Attrs{"temp": 21.5},
		}
		if err := event.DecodeObservationView(new(event.WireEncoder).AppendObservation(nil, &o), &views[i], it); err != nil {
			t.Fatal(err)
		}
	}
	return views
}

// TestOfferAllocBudget is the dynamic twin of the hotpath annotations on
// the ledger's join_flatout detector — two roles, `before` + `dist`,
// windows of 8, fed *event.ObservationView: an Offer that emits nothing
// allocates at most twice (its window entry; amortized window growth),
// and an emitted instance costs at most six allocations (the dedup key,
// the Inputs slice, at most one freshly rendered input id, and the
// instance's share of the round). Before the ids were cached and the
// binding copies moved to slabs it was 5 and ≈ 25.
func TestOfferAllocBudget(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "E7", Layer: event.LayerSensor,
		Roles: []RoleSpec{{Name: "x", Source: "S7", Window: 8}, {Name: "y", Source: "T7", Window: 8}},
		Cond:  condition.MustParse("x.time before y.time and dist(x.loc, y.loc) < 2"),
	})
	if !d.Planned() {
		t.Fatalf("the join is not planned: %s", d.PlanDesc())
	}
	const runs = 200
	genLoc := spatial.AtPoint(0, 0)
	xs, ys := wireViews(t, "S7", 3*runs), wireViews(t, "T7", 3*runs)

	// Warm up: fill both windows and let every scratch buffer reach its
	// steady size. x never follows a y in time here, so nothing emits.
	next := 0
	for ; next < 16; next++ {
		d.Offer("T7", &ys[next], 1, timemodel.Tick(next), genLoc)
	}
	offerX := func() int {
		out := d.Offer("S7", &xs[next], 1, timemodel.Tick(next), genLoc)
		next++
		return len(out)
	}
	for i := 0; i < 16; i++ {
		if n := offerX(); n != 0 {
			t.Fatalf("an x offer emitted %d instances: the non-emitting case is mis-built", n)
		}
	}
	if got := testing.AllocsPerRun(runs, func() { offerX() }); got > 2 {
		t.Errorf("non-emitting Offer allocates %.0f times, budget 2", got)
	}

	// Every y now follows the 8 buffered x in time and space: 8 instances
	// per offer.
	emitted := 0
	got := testing.AllocsPerRun(runs, func() {
		emitted += len(d.Offer("T7", &ys[next], 1, timemodel.Tick(next), genLoc))
		next++
	})
	perOffer := float64(emitted) / float64(runs+1) // AllocsPerRun adds one warm-up call
	if perOffer != 8 {
		t.Fatalf("a y offer emitted %.2f instances, want 8: the emitting case is mis-built", perOffer)
	}
	if perInst := got / perOffer; perInst > 6 {
		t.Errorf("an emitted instance costs %.1f allocations (%.0f per offer of %.0f), budget 6", perInst, got, perOffer)
	} else {
		t.Logf("emitting Offer: %.0f allocations for %.0f instances (%.1f each)", got, perOffer, perInst)
	}
}
