package baseline

import (
	"errors"
	"testing"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func prim(id string, t timemodel.Time) Prim {
	return Prim{ID: id, Time: t, Loc: spatial.AtPoint(0, 0)}
}

func TestPointEngineSeq(t *testing.T) {
	e, err := NewPointEngine(PointRule{Name: "r", Op: PSeq, A: "A", B: "B"})
	if err != nil {
		t.Fatal(err)
	}
	if out := e.Offer(prim("B", timemodel.At(5))); len(out) != 0 {
		t.Fatal("B before any A must not detect")
	}
	if out := e.Offer(prim("A", timemodel.At(10))); len(out) != 0 {
		t.Fatal("A alone must not detect")
	}
	out := e.Offer(prim("B", timemodel.At(20)))
	if len(out) != 1 {
		t.Fatalf("detections = %d, want 1", len(out))
	}
	if !out[0].Occ.Equal(timemodel.At(20)) {
		t.Errorf("occurrence = %v, want @20 (point semantics)", out[0].Occ)
	}
	if !out[0].Occ.IsPunctual() {
		t.Error("point engine must report punctual occurrences")
	}
}

func TestPointEngineSeqWindow(t *testing.T) {
	e, _ := NewPointEngine(PointRule{Name: "r", Op: PSeq, A: "A", B: "B", Window: 10})
	e.Offer(prim("A", timemodel.At(10)))
	if out := e.Offer(prim("B", timemodel.At(50))); len(out) != 0 {
		t.Fatal("out-of-window sequence must not detect")
	}
	e.Offer(prim("A", timemodel.At(60)))
	if out := e.Offer(prim("B", timemodel.At(65))); len(out) != 1 {
		t.Fatal("in-window sequence should detect")
	}
}

func TestPointEngineAndOr(t *testing.T) {
	e, _ := NewPointEngine(
		PointRule{Name: "and", Op: PAnd, A: "A", B: "B"},
		PointRule{Name: "or", Op: POr, A: "A", B: "B"},
	)
	out := e.Offer(prim("B", timemodel.At(5)))
	if len(out) != 1 || out[0].Rule != "or" {
		t.Fatalf("first B should fire only or: %+v", out)
	}
	out = e.Offer(prim("A", timemodel.At(9)))
	// A completes the And (at max(5,9)=9) and fires Or.
	if len(out) != 2 {
		t.Fatalf("detections = %d, want 2", len(out))
	}
	for _, d := range out {
		if d.Rule == "and" && !d.Occ.Equal(timemodel.At(9)) {
			t.Errorf("and occurrence = %v, want @9", d.Occ)
		}
	}
}

func TestPointEngineLossyIntervalAbstraction(t *testing.T) {
	// The point engine sees only occurrence ends: a During pattern gets
	// misread as a sequence. [20,40] during [10,60] -> ends 40, 60.
	e, _ := NewPointEngine(PointRule{Name: "seq", Op: PSeq, A: "A", B: "B"})
	e.Offer(prim("A", timemodel.MustBetween(20, 40)))
	out := e.Offer(prim("B", timemodel.MustBetween(10, 60)))
	if len(out) != 1 {
		t.Fatal("point engine abstraction should (wrongly) detect a sequence")
	}
}

func TestIntervalEngineOps(t *testing.T) {
	tests := []struct {
		name    string
		op      IntervalOp
		a, b    timemodel.Time
		want    bool
		wantOcc timemodel.Time
	}{
		{"seq holds", ISeq, timemodel.MustBetween(1, 5), timemodel.MustBetween(8, 12), true, timemodel.MustBetween(1, 12)},
		{"seq fails on overlap", ISeq, timemodel.MustBetween(1, 9), timemodel.MustBetween(8, 12), false, timemodel.Time{}},
		{"during holds", IDuring, timemodel.MustBetween(20, 40), timemodel.MustBetween(10, 60), true, timemodel.MustBetween(20, 40)},
		{"during fails", IDuring, timemodel.MustBetween(20, 70), timemodel.MustBetween(10, 60), false, timemodel.Time{}},
		{"overlap holds", IOverlap, timemodel.MustBetween(10, 30), timemodel.MustBetween(25, 50), true, timemodel.MustBetween(10, 50)},
		{"overlap fails", IOverlap, timemodel.MustBetween(10, 20), timemodel.MustBetween(25, 50), false, timemodel.Time{}},
		{"and hull", IAnd, timemodel.MustBetween(1, 5), timemodel.MustBetween(20, 30), true, timemodel.MustBetween(1, 30)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := NewIntervalEngine(IntervalRule{Name: "r", Op: tt.op, A: "A", B: "B"})
			if err != nil {
				t.Fatal(err)
			}
			e.Offer(prim("A", tt.a))
			out := e.Offer(prim("B", tt.b))
			if (len(out) > 0) != tt.want {
				t.Fatalf("detected = %v, want %v", len(out) > 0, tt.want)
			}
			if tt.want && !out[0].Occ.Equal(tt.wantOcc) {
				t.Fatalf("occurrence = %v, want %v", out[0].Occ, tt.wantOcc)
			}
		})
	}
}

func TestIntervalEngineDirectionalityBothOrders(t *testing.T) {
	// During should complete regardless of arrival order.
	e, _ := NewIntervalEngine(IntervalRule{Name: "r", Op: IDuring, A: "A", B: "B"})
	e.Offer(prim("B", timemodel.MustBetween(10, 60)))
	out := e.Offer(prim("A", timemodel.MustBetween(20, 40)))
	if len(out) != 1 {
		t.Fatal("during should detect when A arrives second")
	}
	if !out[0].Occ.Equal(timemodel.MustBetween(20, 40)) {
		t.Errorf("during occurrence = %v", out[0].Occ)
	}
}

func TestRTLMonitor(t *testing.T) {
	m, err := NewRTLMonitor(RTLConstraint{Name: "deadline", A: "A", B: "B", MinGap: 5, MaxGap: 20})
	if err != nil {
		t.Fatal(err)
	}
	m.Offer(prim("A", timemodel.At(100)))
	if out := m.Offer(prim("B", timemodel.At(102))); len(out) != 0 {
		t.Fatal("gap below MinGap must not satisfy")
	}
	m.Offer(prim("A", timemodel.At(200)))
	out := m.Offer(prim("B", timemodel.At(215)))
	if len(out) != 1 {
		t.Fatalf("in-bounds gap should satisfy: %+v", out)
	}
	m.Offer(prim("A", timemodel.At(300)))
	if out := m.Offer(prim("B", timemodel.At(400))); len(out) != 0 {
		t.Fatal("gap above MaxGap must not satisfy")
	}
}

func TestRuleValidation(t *testing.T) {
	if _, err := NewPointEngine(PointRule{}); !errors.Is(err, ErrBadRule) {
		t.Errorf("empty point rule err = %v", err)
	}
	if _, err := NewPointEngine(PointRule{Name: "r", A: "A", B: "B", Op: PointOp(9)}); !errors.Is(err, ErrBadRule) {
		t.Errorf("bad point op err = %v", err)
	}
	if _, err := NewIntervalEngine(IntervalRule{}); !errors.Is(err, ErrBadRule) {
		t.Errorf("empty interval rule err = %v", err)
	}
	if _, err := NewIntervalEngine(IntervalRule{Name: "r", A: "A", B: "B", Op: IntervalOp(9)}); !errors.Is(err, ErrBadRule) {
		t.Errorf("bad interval op err = %v", err)
	}
	if _, err := NewRTLMonitor(RTLConstraint{}); !errors.Is(err, ErrBadRule) {
		t.Errorf("empty constraint err = %v", err)
	}
	if _, err := NewRTLMonitor(RTLConstraint{Name: "r", A: "A", B: "B", MinGap: 5, MaxGap: 1}); !errors.Is(err, ErrBadRule) {
		t.Errorf("inverted gap err = %v", err)
	}
}

// TestE8CompareMatrix pins the whole measured E8 matrix, in report
// order: per scenario, each engine's outcome in AllEngines order — "-"
// when the engine refused the class as inexpressible, "D" when it
// detected the composite, "." when it did not. Every expressible
// outcome must also be correct.
func TestE8CompareMatrix(t *testing.T) {
	want := []struct{ scenario, outcomes string }{
		{"sequence", "DDDD"},
		{"sequence-negative", "...."},
		{"conjunction", "DD-D"},
		{"during", "-D-D"},
		{"during-negative", "-.-."},
		{"overlap", "-D-D"},
		{"spatial", "---D"},
		{"spatial-negative", "---."},
		{"spatio-temporal-S1", "---D"},
		{"spatio-temporal-S1-negative", "---."},
	}
	outcomes, err := Compare(StandardScenarios())
	if err != nil {
		t.Fatal(err)
	}
	engines := AllEngines()
	if len(outcomes) != len(want)*len(engines) {
		t.Fatalf("%d outcomes, want %d", len(outcomes), len(want)*len(engines))
	}
	for i, o := range outcomes {
		w := want[i/len(engines)]
		mark := "-"
		switch {
		case o.Expressible && o.Detected:
			mark = "D"
		case o.Expressible:
			mark = "."
		}
		if o.Scenario != w.scenario || o.Engine != engines[i%len(engines)] || mark != w.outcomes[i%len(engines):i%len(engines)+1] {
			t.Errorf("outcome %d = %s on %s: %q, want %s: %q", i, o.Engine, o.Scenario, mark, w.scenario, w.outcomes[i%len(engines)])
		}
		if o.Expressible != o.Correct {
			t.Errorf("%s on %s: expressible %v, correct %v", o.Engine, o.Scenario, o.Expressible, o.Correct)
		}
	}
}

func TestOperatorStrings(t *testing.T) {
	for _, s := range []string{PAnd.String(), POr.String(), PSeq.String(), PointOp(9).String(),
		IAnd.String(), IOr.String(), ISeq.String(), IDuring.String(), IOverlap.String(), IntervalOp(9).String()} {
		if s == "" {
			t.Fatal("operator must render")
		}
	}
}
