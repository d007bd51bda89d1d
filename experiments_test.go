package stcps

// Named experiment tests matching the DESIGN.md §4 index. F1/F2 live in
// internal/node (TestF1ClosedLoop, TestF2LayerHierarchy) and E8 in
// internal/baseline (TestE8CompareMatrix); the X-series and E10 are
// exercised here through the public API.

import (
	"math"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// evalCondition compiles e over its own roles and evaluates it with the
// entities bound by role name — the evaluator the detectors run.
func evalCondition(t *testing.T, e condition.Expr, b map[string]event.Entity) (bool, error) {
	t.Helper()
	slots := condition.NewSlotMap(e.Roles())
	c, err := condition.Compile(e, slots)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	ents := make([]event.Entity, slots.Len())
	for role, ent := range b {
		if i, ok := slots.Slot(role); ok {
			ents[i] = ent
		}
	}
	return c.Eval(ents)
}

// entityAt builds a test entity with the given occurrence time, location
// and value.
func entityAt(id string, occ Time, loc Location, v float64) Observation {
	return Observation{
		Mote: id, Sensor: "SR", Seq: 1,
		Time: occ, Loc: loc, Attrs: Attrs{"v": v},
	}
}

// TestX1_S1WorkedExample reproduces the paper's Section 4.1 example S1
// end to end through the condition language: sequence plus proximity.
func TestX1_S1WorkedExample(t *testing.T) {
	s1, err := ParseCondition("x.time before y.time and dist(x.loc, y.loc) < 5")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		x, y Observation
		want bool
	}{
		{
			name: "sequence and proximity hold",
			x:    entityAt("MT1", At(10), AtPoint(0, 0), 1),
			y:    entityAt("MT2", At(20), AtPoint(3, 0), 1),
			want: true,
		},
		{
			name: "wrong order",
			x:    entityAt("MT1", At(30), AtPoint(0, 0), 1),
			y:    entityAt("MT2", At(20), AtPoint(3, 0), 1),
			want: false,
		},
		{
			name: "too far apart",
			x:    entityAt("MT1", At(10), AtPoint(0, 0), 1),
			y:    entityAt("MT2", At(20), AtPoint(30, 0), 1),
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := evalCondition(t, s1, map[string]event.Entity{"x": tt.x, "y": tt.y})
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("S1 = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestX2_NearbyWindow reproduces the Section 4.2 worked example in both
// temporal classifications: the punctual reading ("once the user is
// detected entering") and the interval reading ("starts on entry, ends on
// exit") of the same physical situation.
func TestX2_NearbyWindow(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 7, Radio: Radio{Range: 60, HopDelay: 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := sys.World()
	if err := w.AddObject(&Object{ID: "userA", Traj: NewWaypoints([]Waypoint{
		{T: 0, P: Pt(0, 5)},
		{T: 400, P: Pt(100, 5)},
	})}); err != nil {
		t.Fatal(err)
	}
	window, err := Rect(40, 0, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WatchRegion("P.nearby", "userA", window); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSensorMote("MT1", Pt(50, 8), []SensorConfig{
		{ID: "SRrange", Object: "userA", Period: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSink("sink1", Pt(50, 20)); err != nil {
		t.Fatal(err)
	}
	// Ungated range stream so the interval variant can observe the exit.
	if err := sys.OnMote("MT1", EventSpec{
		ID:    "S.range",
		Roles: []Role{{Name: "x", Source: "SRrange", Window: 1}},
		When:  "true",
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.OnSink("sink1", EventSpec{
		ID:    "CP.enter",
		Roles: []Role{{Name: "x", Source: "S.range", Window: 1}},
		When:  "x.range < 11",
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.OnSink("sink1", EventSpec{
		ID:       "CP.stay",
		Roles:    []Role{{Name: "x", Source: "S.range", Window: 1}},
		When:     "x.range < 11",
		Interval: true,
	}); err != nil {
		t.Fatal(err)
	}
	report, err := sys.Run(600)
	if err != nil {
		t.Fatal(err)
	}

	punctual := report.OfEvent("CP.enter")
	if len(punctual) == 0 {
		t.Fatal("punctual variant detected nothing")
	}
	for _, in := range punctual {
		if in.TemporalClass() != event.Punctual {
			t.Fatalf("punctual variant produced %v", in.TemporalClass())
		}
	}
	stays := report.OfEvent("CP.stay")
	if len(stays) != 1 {
		t.Fatalf("interval variant produced %d instances, want 1", len(stays))
	}
	if stays[0].TemporalClass() != event.Interval {
		t.Fatal("interval variant must classify interval")
	}
	// The stay must cover (approximately) the ground-truth interval.
	truth := report.Truth[0]
	if !stays[0].Occ.Intersects(truth.Time) {
		t.Fatalf("stay %v does not intersect truth %v", stays[0].Occ, truth.Time)
	}
	// Classification difference is the paper's point: same physical
	// situation, two valid event definitions.
	if punctual[0].Occ.IsInterval() {
		t.Fatal("punctual detections must be time points")
	}
}

// TestX3_OperatorMatrix exercises every operator keyword of the three
// condition families (the Section 4 operator tables) once through the
// parser and evaluator.
func TestX3_OperatorMatrix(t *testing.T) {
	room := InField(spatial.MustField(spatial.Pt(0, 0), spatial.Pt(10, 0), spatial.Pt(10, 10), spatial.Pt(0, 10)))
	x := entityAt("X", timemodel.MustBetween(10, 20), AtPoint(5, 5), 4)
	y := entityAt("Y", timemodel.MustBetween(20, 40), room, 6)
	b := map[string]event.Entity{"x": x, "y": y}

	tests := []struct {
		expr string
		want bool
	}{
		// Relational operators OP_R (Eq. 4.2).
		{"x.v > 3", true},
		{"x.v >= 4", true},
		{"x.v < 3", false},
		{"x.v <= 4", true},
		{"x.v == 4", true},
		{"x.v != 6", true},
		// Temporal operators OP_T (Eq. 4.3 / Sec. 4.2).
		{"x.start before y.start", true},
		{"y.end after x.end", true},
		{"x.start during y.time", false},
		{"x.end during y.time", true},
		{"x.time begins x.time", true},
		{"x.time ends x.time", true},
		{"x.time meets y.time", true},
		{"x.time overlaps y.time", true},
		{"x.time equals x.time", true},
		// Spatial operators OP_S (Eq. 4.4 / Sec. 4.2).
		{"x.loc inside y.loc", true},
		{"x.loc outside y.loc", false},
		{"x.loc joint y.loc", true},
		{"x.loc equal x.loc", true},
		{"y.loc covers x.loc", true},
		// Logical operators OP_L (Eq. 4.5).
		{"x.v > 3 and x.v < 5", true},
		{"x.v > 5 or x.v == 4", true},
		{"not x.v > 5", true},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			cond, err := ParseCondition(tt.expr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := evalCondition(t, cond, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("%q = %v, want %v", tt.expr, got, tt.want)
			}
		})
	}
}

// TestE10_ConfidenceAblation compares the four confidence combination
// policies on the same corroboration pattern: three observers at 0.7.
func TestE10_ConfidenceAblation(t *testing.T) {
	confs := []float64{0.7, 0.7, 0.7}
	got := map[string]float64{}
	for _, p := range []detect.ConfidencePolicy{
		detect.PolicyMin, detect.PolicyProduct, detect.PolicyMean, detect.PolicyNoisyOr,
	} {
		got[p.String()] = p.Combine(confs)
	}
	// Ordering: product < min == mean < noisy-or for identical inputs.
	if !(got["product"] < got["min"]) {
		t.Errorf("product %v should be below min %v", got["product"], got["min"])
	}
	if math.Abs(got["min"]-got["mean"]) > 1e-9 {
		t.Errorf("min %v should equal mean %v on identical inputs", got["min"], got["mean"])
	}
	if !(got["noisy-or"] > got["mean"]) {
		t.Errorf("noisy-or %v should exceed mean %v (corroboration)", got["noisy-or"], got["mean"])
	}
	// Noisy-or grows with more witnesses; min does not.
	more := detect.PolicyNoisyOr.Combine([]float64{0.7, 0.7, 0.7, 0.7})
	if !(more > got["noisy-or"]) {
		t.Error("noisy-or should increase with additional witnesses")
	}
	same := detect.PolicyMin.Combine([]float64{0.7, 0.7, 0.7, 0.7})
	if same != got["min"] {
		t.Error("min should be invariant to additional identical witnesses")
	}
}
