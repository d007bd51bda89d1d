package detect

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func mkObs(mote string, seq uint64, at timemodel.Tick, p spatial.Point, attrs event.Attrs) event.Observation {
	return event.Observation{
		Mote: mote, Sensor: "SR", Seq: seq,
		Time: timemodel.At(at), Loc: spatial.AtPt(p), Attrs: attrs,
	}
}

func mustDetector(t *testing.T, spec Spec) *Detector {
	t.Helper()
	d, err := New("OB1", spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cond := condition.MustParse("x.v > 0")
	// A programmatic condition the slot compiler rejects (dist over
	// numbers) behind an or the interpreter short-circuits before
	// reaching: the detector has one evaluator, so this is a bad spec,
	// not a condition that fires whenever x.v > 1.
	uncompilable := condition.Or{L: condition.MustParse("x.v > 1"), R: condition.CmpNum{
		L:  condition.Call{Fn: "dist", Args: []condition.Term{condition.NumLit{V: 1}, condition.NumLit{V: 2}}},
		Op: condition.OpLt,
		R:  condition.NumLit{V: 3},
	}}
	base := Spec{
		EventID: "E1",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "s"}},
		Cond:    cond,
	}
	tests := []struct {
		name    string
		mutate  func(*Spec)
		obs     string
		wantErr error
	}{
		{"valid", func(*Spec) {}, "OB1", nil},
		{"no observer", func(*Spec) {}, "", ErrBadSpec},
		{"no event id", func(s *Spec) { s.EventID = "" }, "OB1", ErrBadSpec},
		{"bad layer", func(s *Spec) { s.Layer = event.LayerPhysical }, "OB1", ErrBadSpec},
		{"no condition", func(s *Spec) { s.Cond = nil }, "OB1", ErrNoCondition},
		{"unfed role", func(s *Spec) { s.Cond = condition.MustParse("y.v > 0") }, "OB1", ErrRoleUnfed},
		{"role missing source", func(s *Spec) { s.Roles = []RoleSpec{{Name: "x"}} }, "OB1", ErrBadSpec},
		{"bad base confidence", func(s *Spec) { s.BaseConfidence = 2 }, "OB1", ErrBadSpec},
		{"uncompilable condition", func(s *Spec) { s.Cond = uncompilable }, "OB1", ErrBadSpec},
		{"uncompilable interval condition wraps the compile error", func(s *Spec) {
			s.Cond, s.Mode, s.Planner = uncompilable, ModeInterval, PlannerOff
		}, "OB1", condition.ErrTypeMismatch},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			spec.Roles = append([]RoleSpec(nil), base.Roles...)
			tt.mutate(&spec)
			_, err := New(tt.obs, spec)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestPunctualSingleRole(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.hot",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "temp"}},
		Cond:    condition.MustParse("x.temp > 30"),
	})
	genLoc := spatial.AtPoint(0, 0)

	cold := mkObs("MT1", 1, 10, spatial.Pt(0, 0), event.Attrs{"temp": 22})
	if out := d.Offer("temp", cold, 1, 10, genLoc); len(out) != 0 {
		t.Fatalf("cold observation triggered %d instances", len(out))
	}
	hot := mkObs("MT1", 2, 20, spatial.Pt(1, 1), event.Attrs{"temp": 35})
	out := d.Offer("temp", hot, 1, 21, genLoc)
	if len(out) != 1 {
		t.Fatalf("hot observation produced %d instances, want 1", len(out))
	}
	inst := out[0]
	if err := inst.Validate(); err != nil {
		t.Fatalf("invalid instance: %v", err)
	}
	if inst.Event != "S.hot" || inst.Observer != "OB1" {
		t.Errorf("instance identity wrong: %+v", inst)
	}
	if inst.Gen != 21 {
		t.Errorf("t^g = %d, want 21", inst.Gen)
	}
	if !inst.Occ.Equal(timemodel.At(20)) {
		t.Errorf("t^eo = %v, want @20", inst.Occ)
	}
	if !inst.OccLoc().Point().Equal(spatial.Pt(1, 1)) {
		t.Errorf("l^eo = %v", inst.OccLoc())
	}
	if inst.Attrs["temp"] != 35 {
		t.Errorf("attrs = %v", inst.Attrs)
	}
	if len(inst.Inputs) != 1 || inst.Inputs[0] != hot.EntityID() {
		t.Errorf("provenance = %v", inst.Inputs)
	}
	if inst.DetectionLatency() != 1 {
		t.Errorf("EDL = %d, want 1", inst.DetectionLatency())
	}
	// The same entity must not re-trigger.
	if out := d.Offer("temp", hot, 1, 22, genLoc); len(out) != 0 {
		t.Fatal("duplicate binding re-emitted")
	}
	// Unknown source is ignored.
	if out := d.Offer("hum", hot, 1, 23, genLoc); len(out) != 0 {
		t.Fatal("unknown source produced instances")
	}
}

func TestPunctualTwoRoleJoin(t *testing.T) {
	// The paper's S1: x before y and dist < 5.
	d := mustDetector(t, Spec{
		EventID: "S1",
		Layer:   event.LayerSensor,
		Roles: []RoleSpec{
			{Name: "x", Source: "obsX"},
			{Name: "y", Source: "obsY"},
		},
		Cond: condition.MustParse("x.time before y.time and dist(x.loc, y.loc) < 5"),
	})
	genLoc := spatial.AtPoint(0, 0)

	x1 := mkObs("MT1", 1, 10, spatial.Pt(0, 0), nil)
	if out := d.Offer("obsX", x1, 1, 10, genLoc); len(out) != 0 {
		t.Fatal("incomplete binding emitted")
	}
	y1 := mkObs("MT2", 1, 20, spatial.Pt(3, 0), nil)
	out := d.Offer("obsY", y1, 1, 20, genLoc)
	if len(out) != 1 {
		t.Fatalf("S1 detections = %d, want 1", len(out))
	}
	inst := out[0]
	if !inst.Occ.Equal(timemodel.MustBetween(10, 20)) {
		t.Errorf("t^eo span = %v, want [10,20]", inst.Occ)
	}
	if !inst.OccLoc().Point().Equal(spatial.Pt(1.5, 0)) {
		t.Errorf("centroid = %v, want (1.5,0)", inst.OccLoc().Point())
	}
	if len(inst.Inputs) != 2 {
		t.Errorf("inputs = %v", inst.Inputs)
	}

	// A second y joins with the retained x; a y too far does not.
	y2 := mkObs("MT2", 2, 30, spatial.Pt(4, 0), nil)
	if out := d.Offer("obsY", y2, 1, 30, genLoc); len(out) != 1 {
		t.Fatalf("second y should bind with retained x, got %d", len(out))
	}
	yFar := mkObs("MT2", 3, 40, spatial.Pt(50, 0), nil)
	if out := d.Offer("obsY", yFar, 1, 40, genLoc); len(out) != 0 {
		t.Fatal("distant y must not satisfy S1")
	}
}

func TestWindowEviction(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.pair",
		Layer:   event.LayerSensor,
		Roles: []RoleSpec{
			{Name: "x", Source: "sx", Window: 2},
			{Name: "y", Source: "sy", Window: 2},
		},
		Cond: condition.MustParse("x.time before y.time"),
	})
	genLoc := spatial.AtPoint(0, 0)
	for i := uint64(1); i <= 5; i++ {
		d.Offer("sx", mkObs("MT1", i, timemodel.Tick(i*10), spatial.Pt(0, 0), nil), 1, timemodel.Tick(i*10), genLoc)
	}
	// Only the last 2 x entities remain (ticks 40, 50).
	y := mkObs("MT2", 1, 100, spatial.Pt(0, 0), nil)
	out := d.Offer("sy", y, 1, 100, genLoc)
	if len(out) != 2 {
		t.Fatalf("detections = %d, want 2 (window=2)", len(out))
	}
}

func TestMaxAgeEviction(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.fresh",
		Layer:   event.LayerSensor,
		Roles: []RoleSpec{
			{Name: "x", Source: "sx", MaxAge: 50},
			{Name: "y", Source: "sy"},
		},
		Cond: condition.MustParse("x.time before y.time"),
	})
	genLoc := spatial.AtPoint(0, 0)
	d.Offer("sx", mkObs("MT1", 1, 10, spatial.Pt(0, 0), nil), 1, 10, genLoc)
	d.Offer("sx", mkObs("MT1", 2, 200, spatial.Pt(0, 0), nil), 1, 200, genLoc)
	// At t=240, x@10 is 230 old (evicted); x@200 is 40 old (kept).
	y := mkObs("MT2", 1, 240, spatial.Pt(0, 0), nil)
	out := d.Offer("sy", y, 1, 240, genLoc)
	if len(out) != 1 {
		t.Fatalf("detections = %d, want 1 (stale x evicted, fresh x kept)", len(out))
	}
	// Much later, every x has expired: no bindings at all.
	y2 := mkObs("MT2", 2, 900, spatial.Pt(0, 0), nil)
	if out := d.Offer("sy", y2, 1, 900, genLoc); len(out) != 0 {
		t.Fatalf("expired x still bound: %d detections", len(out))
	}
}

func TestIntervalMode(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.occupied",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "range"}},
		Cond:    condition.MustParse("x.range < 3"),
		Mode:    ModeInterval,
	})
	genLoc := spatial.AtPoint(0, 0)
	offer := func(seq uint64, at timemodel.Tick, r float64) []event.Instance {
		return d.Offer("range", mkObs("MT1", seq, at, spatial.Pt(0, 0), event.Attrs{"range": r}), 1, at, genLoc)
	}
	if out := offer(1, 10, 9); len(out) != 0 {
		t.Fatal("false state emitted")
	}
	if out := offer(2, 20, 2); len(out) != 0 {
		t.Fatal("rising edge must open, not emit")
	}
	if out := offer(3, 30, 1); len(out) != 0 {
		t.Fatal("sustained state must not emit")
	}
	out := offer(4, 40, 8)
	if len(out) != 1 {
		t.Fatalf("falling edge emitted %d instances, want 1", len(out))
	}
	inst := out[0]
	if !inst.Occ.Equal(timemodel.MustBetween(20, 30)) {
		t.Errorf("interval = %v, want [20,30]", inst.Occ)
	}
	if inst.TemporalClass() != event.Interval {
		t.Error("instance should classify interval")
	}
	if inst.Gen != 40 {
		t.Errorf("t^g = %d, want 40", inst.Gen)
	}
	// A new episode opens and is closed by Flush.
	offer(5, 50, 1)
	flushed := d.Flush(60, genLoc)
	if len(flushed) != 1 {
		t.Fatalf("Flush emitted %d, want 1", len(flushed))
	}
	if !flushed[0].Occ.Equal(timemodel.MustBetween(50, 50)) {
		t.Errorf("flushed interval = %v", flushed[0].Occ)
	}
	if again := d.Flush(70, genLoc); len(again) != 0 {
		t.Fatal("second Flush must be empty")
	}
}

func TestIntervalModeTwoRoles(t *testing.T) {
	// Interval state over two streams: both users inside the same room.
	d := mustDetector(t, Spec{
		EventID: "S.meeting",
		Layer:   event.LayerCyber,
		Roles: []RoleSpec{
			{Name: "a", Source: "ua"},
			{Name: "b", Source: "ub"},
		},
		Cond: condition.MustParse("dist(a.loc, b.loc) < 2"),
		Mode: ModeInterval,
	})
	genLoc := spatial.AtPoint(0, 0)
	d.Offer("ua", mkObs("A", 1, 10, spatial.Pt(0, 0), nil), 1, 10, genLoc)
	if out := d.Offer("ub", mkObs("B", 1, 10, spatial.Pt(1, 0), nil), 1, 10, genLoc); len(out) != 0 {
		t.Fatal("open, not emit")
	}
	out := d.Offer("ub", mkObs("B", 2, 50, spatial.Pt(10, 0), nil), 1, 50, genLoc)
	if len(out) != 1 {
		t.Fatalf("separation emitted %d, want 1", len(out))
	}
	if !out[0].Occ.Equal(timemodel.MustBetween(10, 10)) {
		t.Errorf("interval = %v", out[0].Occ)
	}
}

func TestConfidenceCombination(t *testing.T) {
	mk := func(p ConfidencePolicy) *Detector {
		return mustDetector(t, Spec{
			EventID:    "CP.e",
			Layer:      event.LayerCyberPhysical,
			Roles:      []RoleSpec{{Name: "x", Source: "sx"}, {Name: "y", Source: "sy"}},
			Cond:       condition.MustParse("true"),
			Confidence: p,
		})
	}
	feed := func(d *Detector) []event.Instance {
		genLoc := spatial.AtPoint(0, 0)
		d.Offer("sx", mkObs("M1", 1, 10, spatial.Pt(0, 0), nil), 0.8, 10, genLoc)
		return d.Offer("sy", mkObs("M2", 1, 10, spatial.Pt(0, 0), nil), 0.5, 10, genLoc)
	}
	tests := []struct {
		policy ConfidencePolicy
		want   float64
	}{
		{PolicyMin, 0.5},
		{PolicyProduct, 0.4},
		{PolicyMean, 0.65},
		{PolicyNoisyOr, 0.9},
	}
	for _, tt := range tests {
		t.Run(tt.policy.String(), func(t *testing.T) {
			out := feed(mk(tt.policy))
			if len(out) != 1 {
				t.Fatalf("instances = %d", len(out))
			}
			if math.Abs(out[0].Confidence-tt.want) > 1e-9 {
				t.Fatalf("ρ = %v, want %v", out[0].Confidence, tt.want)
			}
		})
	}
}

func TestBaseConfidenceScaling(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID:        "S.e",
		Layer:          event.LayerSensor,
		Roles:          []RoleSpec{{Name: "x", Source: "s"}},
		Cond:           condition.MustParse("true"),
		BaseConfidence: 0.5,
	})
	out := d.Offer("s", mkObs("M", 1, 0, spatial.Pt(0, 0), nil), 0.8, 0, spatial.AtPoint(0, 0))
	if len(out) != 1 || math.Abs(out[0].Confidence-0.4) > 1e-9 {
		t.Fatalf("ρ = %v, want 0.4", out[0].Confidence)
	}
}

func TestTimeAndLocEstimatePolicies(t *testing.T) {
	mk := func(te TimeEstimate, le LocEstimate) *Detector {
		return mustDetector(t, Spec{
			EventID: "S.e",
			Layer:   event.LayerSensor,
			Roles:   []RoleSpec{{Name: "x", Source: "sx"}, {Name: "y", Source: "sy"}},
			Cond:    condition.MustParse("true"),
			TimeEst: te,
			LocEst:  le,
		})
	}
	feed := func(d *Detector) event.Instance {
		genLoc := spatial.AtPoint(0, 0)
		d.Offer("sx", mkObs("M1", 1, 10, spatial.Pt(0, 0), nil), 1, 10, genLoc)
		out := d.Offer("sy", mkObs("M2", 1, 30, spatial.Pt(4, 0), nil), 1, 30, genLoc)
		if len(out) != 1 {
			t.Fatalf("instances = %d", len(out))
		}
		return out[0]
	}
	if inst := feed(mk(EstimateEarliest, EstimateFirst)); !inst.Occ.Equal(timemodel.At(10)) {
		t.Errorf("earliest = %v", inst.Occ)
	}
	if inst := feed(mk(EstimateLatest, EstimateFirst)); !inst.Occ.Equal(timemodel.At(30)) {
		t.Errorf("latest = %v", inst.Occ)
	}
	if inst := feed(mk(EstimateSpan, EstimateCentroid)); !inst.Occ.Equal(timemodel.MustBetween(10, 30)) {
		t.Errorf("span = %v", inst.Occ)
	}
	inst := feed(mk(EstimateSpan, EstimateFirst))
	if !inst.OccLoc().Point().Equal(spatial.Pt(0, 0)) {
		t.Errorf("first loc = %v", inst.OccLoc())
	}
	inst = feed(mk(EstimateSpan, EstimateCentroid))
	if !inst.OccLoc().Point().Equal(spatial.Pt(2, 0)) {
		t.Errorf("centroid loc = %v", inst.OccLoc())
	}
	// Hull of 2 points degenerates to centroid.
	inst = feed(mk(EstimateSpan, EstimateHull))
	if !inst.OccLoc().IsPoint() {
		t.Errorf("degenerate hull should fall back to point, got %v", inst.OccLoc())
	}
}

func TestHullEstimateProducesField(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "CP.zone",
		Layer:   event.LayerCyberPhysical,
		Roles: []RoleSpec{
			{Name: "a", Source: "sa"},
			{Name: "b", Source: "sb"},
			{Name: "c", Source: "sc"},
		},
		Cond:   condition.MustParse("true"),
		LocEst: EstimateHull,
	})
	genLoc := spatial.AtPoint(0, 0)
	d.Offer("sa", mkObs("M1", 1, 0, spatial.Pt(0, 0), nil), 1, 0, genLoc)
	d.Offer("sb", mkObs("M2", 1, 0, spatial.Pt(4, 0), nil), 1, 0, genLoc)
	out := d.Offer("sc", mkObs("M3", 1, 0, spatial.Pt(2, 3), nil), 1, 0, genLoc)
	if len(out) != 1 {
		t.Fatalf("instances = %d", len(out))
	}
	if out[0].SpatialClass() != event.FieldEvent {
		t.Errorf("hull estimate should yield a field event, got %v", out[0].OccLoc())
	}
}

func TestEvalErrorsCounted(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.e",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "s"}},
		Cond:    condition.MustParse("x.missing > 0"),
	})
	out := d.Offer("s", mkObs("M", 1, 0, spatial.Pt(0, 0), event.Attrs{"v": 1}), 1, 0, spatial.AtPoint(0, 0))
	if len(out) != 0 {
		t.Fatal("error binding must not emit")
	}
	if n := d.Stats().EvalErrors; n != 1 {
		t.Fatalf("EvalErrors = %d, want 1", n)
	}
}

func TestSourcesAndAccessors(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.e",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "b"}, {Name: "y", Source: "a"}},
		Cond:    condition.MustParse("true"),
	})
	src := d.Sources()
	if len(src) != 2 || src[0] != "a" || src[1] != "b" {
		t.Errorf("Sources = %v", src)
	}
	if d.EventID() != "S.e" {
		t.Errorf("EventID = %q", d.EventID())
	}
	if ModePunctual.String() != "punctual" || ModeInterval.String() != "interval" || Mode(9).String() == "" {
		t.Error("mode names wrong")
	}
}

func TestMaxBindingsCap(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID:     "S.e",
		Layer:       event.LayerSensor,
		Roles:       []RoleSpec{{Name: "x", Source: "sx", Window: 64}, {Name: "y", Source: "sy", Window: 64}},
		Cond:        condition.MustParse("true"),
		MaxBindings: 8,
	})
	genLoc := spatial.AtPoint(0, 0)
	for i := uint64(1); i <= 20; i++ {
		d.Offer("sx", mkObs("M1", i, timemodel.Tick(i), spatial.Pt(0, 0), nil), 1, timemodel.Tick(i), genLoc)
	}
	out := d.Offer("sy", mkObs("M2", 1, 100, spatial.Pt(0, 0), nil), 1, 100, genLoc)
	if len(out) > 8 {
		t.Fatalf("bindings exceeded cap: %d", len(out))
	}
}

// Property-style test: instance confidence is always within [0,1] for any
// policy and any input confidences.
func TestConfidenceAlwaysInRange(t *testing.T) {
	for _, p := range []ConfidencePolicy{PolicyMin, PolicyProduct, PolicyMean, PolicyNoisyOr} {
		for _, confs := range [][]float64{
			{}, {0}, {1}, {0.5}, {0.1, 0.9}, {1, 1, 1}, {0, 0}, {0.3, 0.7, 0.2, 0.95},
		} {
			got := p.Combine(confs)
			if got < 0 || got > 1 {
				t.Errorf("%v.Combine(%v) = %v out of range", p, confs, got)
			}
		}
	}
	if _, ok := ParsePolicy("noisy-or"); !ok {
		t.Error("ParsePolicy failed for noisy-or")
	}
	if _, ok := ParsePolicy("magic"); ok {
		t.Error("ParsePolicy accepted unknown")
	}
	if ConfidencePolicy(99).String() == "" {
		t.Error("unknown policy must render")
	}
	if got := ConfidencePolicy(99).Combine([]float64{0.5, 0.2}); got != 0.2 {
		t.Errorf("unknown policy should fall back to min, got %v", got)
	}
}

func TestDedupSetBounded(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID:     "S.e",
		Layer:       event.LayerSensor,
		Roles:       []RoleSpec{{Name: "x", Source: "s", Window: 4}},
		Cond:        condition.MustParse("x.v > 0"),
		MaxBindings: 4,
	})
	genLoc := spatial.AtPoint(0, 0)
	total := 0
	for i := uint64(1); i <= 200; i++ {
		out := d.Offer("s", mkObs("M", i, timemodel.Tick(i), spatial.Pt(0, 0), event.Attrs{"v": 1}), 1, timemodel.Tick(i), genLoc)
		total += len(out)
	}
	if total != 200 {
		t.Fatalf("each fresh entity should emit once: %d", total)
	}
	if len(d.emitted) > 16+1 {
		t.Fatalf("dedup set unbounded: %d", len(d.emitted))
	}
}

func TestInstanceSeqMonotonic(t *testing.T) {
	d := mustDetector(t, Spec{
		EventID: "S.e",
		Layer:   event.LayerSensor,
		Roles:   []RoleSpec{{Name: "x", Source: "s"}},
		Cond:    condition.MustParse("x.v > 0"),
	})
	genLoc := spatial.AtPoint(0, 0)
	var last uint64
	for i := uint64(1); i <= 10; i++ {
		out := d.Offer("s", mkObs("M", i, timemodel.Tick(i), spatial.Pt(0, 0), event.Attrs{"v": 1}), 1, timemodel.Tick(i), genLoc)
		for _, inst := range out {
			if inst.Seq <= last {
				t.Fatalf("seq not monotonic: %d after %d", inst.Seq, last)
			}
			last = inst.Seq
			if inst.EntityID() != fmt.Sprintf("E(OB1,S.e,%d)", inst.Seq) {
				t.Fatalf("entity id = %q", inst.EntityID())
			}
		}
	}
}
