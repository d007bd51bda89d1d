package condition

import (
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func kinds(a Analysis) []ClauseKind {
	out := make([]ClauseKind, len(a.Clauses))
	for i, c := range a.Clauses {
		out[i] = c.Kind
	}
	return out
}

func TestAnalyzeClassification(t *testing.T) {
	cases := []struct {
		cond string
		want []ClauseKind
	}{
		{"x.a > 5", []ClauseKind{KindFilter}},
		{"true", []ClauseKind{KindFilter}},
		{"x.time before y.time", []ClauseKind{KindTemporal}},
		{"x.start + 3 after y.end - 2", []ClauseKind{KindTemporal}},
		{"dist(x.loc, y.loc) < 4", []ClauseKind{KindSpatial}},
		{"7 >= dist(x.loc, y.loc)", []ClauseKind{KindSpatial}},
		{"x.a > y.b", []ClauseKind{KindResidual}},
		{"dist(x.loc, y.loc) > 4", []ClauseKind{KindResidual}},
		{"x.time before x.time + 5", []ClauseKind{KindFilter}}, // one role
		{"x.a > 5 and x.time before y.time and dist(x.loc, y.loc) < 4 and x.a > y.b",
			[]ClauseKind{KindFilter, KindTemporal, KindSpatial, KindResidual}},
		{"x.a > 1 or y.b > 1", []ClauseKind{KindResidual}},
		{"not (x.time before y.time)", []ClauseKind{KindResidual}},
		// AND below an OR stays one residual clause.
		{"(x.a > 1 and y.b > 1) or x.a < 0", []ClauseKind{KindResidual}},
	}
	for _, tc := range cases {
		a := Analyze(MustParse(tc.cond))
		got := kinds(a)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d clauses %v, want %v", tc.cond, len(got), got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: clause %d is %v, want %v", tc.cond, i, got[i], tc.want[i])
			}
		}
	}
}

func TestAnalyzeIndexable(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"x.time before y.time", true},
		{"x.a > 1 and y.b > 1", true},
		{"x.a > y.b and y.b > x.a", true}, // two residuals still split
		{"x.a > 1 or y.b > 1", false},
		{"not (x.a > y.b)", false},
		{"x.a > y.b", false},
	}
	for _, tc := range cases {
		if got := Analyze(MustParse(tc.cond)).Indexable(); got != tc.want {
			t.Errorf("Indexable(%s) = %v, want %v", tc.cond, got, tc.want)
		}
	}
}

// TestAnalyzeConjunctionEquivalence checks that the decomposition is
// exact: the conjunction of the clauses evaluates like the original
// condition.
func TestAnalyzeConjunctionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed + 7000))
		g := &exprGen{rng: rng}
		e := g.expr(3)
		a := Analyze(e)
		for trial := 0; trial < 6; trial++ {
			b := randomBinding(rng)
			want, wantErr := interpret(e, b)
			got := true
			anyErr := false
			for _, cl := range a.Clauses {
				v, err := interpret(cl.Expr, b)
				if err != nil {
					anyErr = true
					got = false
					break
				}
				if !v {
					got = false
					break
				}
			}
			// Errors gate emission like false, so the decomposition only
			// has to agree on "satisfied without error".
			wantSat := wantErr == nil && want
			gotSat := !anyErr && got
			if wantSat != gotSat {
				t.Fatalf("seed %d: %s\noriginal satisfied=%v (err=%v), clauses satisfied=%v",
					seed, e, want, wantErr, gotSat)
			}
		}
	}
}

// TestStartBoundsSound property-tests the planner's core guarantee:
// whenever a temporal clause holds for a candidate, the candidate's
// occurrence start lies within StartBounds derived from the other role.
func TestStartBoundsSound(t *testing.T) {
	ops := []timemodel.Operator{
		timemodel.OpBefore, timemodel.OpAfter, timemodel.OpDuring,
		timemodel.OpBegin, timemodel.OpEnd, timemodel.OpMeet,
		timemodel.OpOverlap, timemodel.OpEqualT,
	}
	parts := []TimePart{WholeTime, StartTime, EndTime}
	rng := rand.New(rand.NewSource(42))
	randTime := func() timemodel.Time {
		s := timemodel.Tick(rng.Intn(60))
		return timemodel.MustBetween(s, s+timemodel.Tick(rng.Intn(10)))
	}
	mkEnt := func(tm timemodel.Time) event.Entity {
		return event.Observation{Mote: "M", Sensor: "S", Time: tm, Loc: spatial.AtPoint(0, 0)}
	}
	for trial := 0; trial < 20000; trial++ {
		link := &TemporalLink{
			LRole: "x", RRole: "y",
			LPart: parts[rng.Intn(3)], RPart: parts[rng.Intn(3)],
			LShift: timemodel.Tick(rng.Intn(11) - 5), RShift: timemodel.Tick(rng.Intn(11) - 5),
			Op: ops[rng.Intn(len(ops))],
		}
		// Reconstruct the clause the link came from.
		mkSide := func(role string, part TimePart, shift timemodel.Tick) Term {
			ref := TimeRef{Role: role, Part: part}
			if shift == 0 {
				return ref
			}
			if shift < 0 {
				return TimeShift{T: ref, D: NumLit{V: float64(-shift)}, Neg: true}
			}
			return TimeShift{T: ref, D: NumLit{V: float64(shift)}}
		}
		clause := CmpTime{
			L:  mkSide(link.LRole, link.LPart, link.LShift),
			R:  mkSide(link.RRole, link.RPart, link.RShift),
			Op: link.Op,
		}
		xt, yt := randTime(), randTime()
		b := Binding{"x": mkEnt(xt), "y": mkEnt(yt)}
		sat, err := interpret(clause, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sat {
			continue
		}
		// x as probe given y, and y as probe given x.
		bx := link.StartBounds("x", yt)
		if (bx.HasLo && xt.Start() < bx.Lo) || (bx.HasHi && xt.Start() > bx.Hi) {
			t.Fatalf("clause %s holds for x=%v y=%v but x.start outside bounds %+v",
				clause, xt, yt, bx)
		}
		by := link.StartBounds("y", xt)
		if (by.HasLo && yt.Start() < by.Lo) || (by.HasHi && yt.Start() > by.Hi) {
			t.Fatalf("clause %s holds for x=%v y=%v but y.start outside bounds %+v",
				clause, xt, yt, by)
		}
	}
}
