package condition

import (
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// differential_test.go cross-checks the parser, printer and evaluator on
// randomly generated condition ASTs: for every generated expression e,
// Parse(e.String()) must succeed and evaluate identically to e on random
// bindings (same truth value, or both erroring).

// exprGen generates random well-typed expressions. Arithmetic right
// operands are always leaves so the printed form reparses with identical
// associativity.
type exprGen struct {
	rng *rand.Rand
}

func (g *exprGen) roles() string {
	if g.rng.Intn(2) == 0 {
		return "x"
	}
	return "y"
}

func (g *exprGen) attr() string {
	if g.rng.Intn(2) == 0 {
		return "a"
	}
	return "b"
}

func (g *exprGen) numLeaf() Term {
	switch g.rng.Intn(3) {
	case 0:
		return NumLit{V: float64(g.rng.Intn(21) - 10)}
	default:
		return AttrRef{Role: g.roles(), Name: g.attr()}
	}
}

func (g *exprGen) numTerm(depth int) Term {
	if depth <= 0 {
		return g.numLeaf()
	}
	switch g.rng.Intn(6) {
	case 0:
		return NumArith{L: g.numTerm(depth - 1), R: g.numLeaf(), Sub: g.rng.Intn(2) == 0}
	case 1:
		c, err := NewCall("avg", g.numTerm(depth-1), g.numLeaf())
		if err != nil {
			panic(err)
		}
		return c
	case 2:
		c, err := NewCall("abs", g.numTerm(depth-1))
		if err != nil {
			panic(err)
		}
		return c
	case 3:
		c, err := NewCall("dist", g.locTerm(depth-1), g.locTerm(depth-1))
		if err != nil {
			panic(err)
		}
		return c
	case 4:
		c, err := NewCall("duration", g.timeTerm(depth-1))
		if err != nil {
			panic(err)
		}
		return c
	default:
		return g.numLeaf()
	}
}

func (g *exprGen) timeLeaf() Term {
	switch g.rng.Intn(3) {
	case 0:
		start := timemodel.Tick(g.rng.Intn(100))
		return TimeLit{T: timemodel.MustBetween(start, start+timemodel.Tick(g.rng.Intn(20)))}
	default:
		parts := []TimePart{WholeTime, StartTime, EndTime}
		return TimeRef{Role: g.roles(), Part: parts[g.rng.Intn(len(parts))]}
	}
}

func (g *exprGen) timeTerm(depth int) Term {
	if depth <= 0 {
		return g.timeLeaf()
	}
	switch g.rng.Intn(4) {
	case 0:
		return TimeShift{T: g.timeTerm(depth - 1), D: NumLit{V: float64(g.rng.Intn(9))}, Neg: g.rng.Intn(2) == 0}
	case 1:
		c, err := NewCall("span", g.timeTerm(depth-1), g.timeLeaf())
		if err != nil {
			panic(err)
		}
		return c
	case 2:
		c, err := NewCall("earliest", g.timeTerm(depth-1), g.timeLeaf())
		if err != nil {
			panic(err)
		}
		return c
	default:
		return g.timeLeaf()
	}
}

func (g *exprGen) locLeaf() Term {
	switch g.rng.Intn(3) {
	case 0:
		c, err := NewCall("point",
			NumLit{V: float64(g.rng.Intn(21) - 10)},
			NumLit{V: float64(g.rng.Intn(21) - 10)})
		if err != nil {
			panic(err)
		}
		return c
	case 1:
		c, err := NewCall("rect",
			NumLit{V: float64(g.rng.Intn(10))},
			NumLit{V: float64(g.rng.Intn(10))},
			NumLit{V: float64(g.rng.Intn(10) + 11)},
			NumLit{V: float64(g.rng.Intn(10) + 11)})
		if err != nil {
			panic(err)
		}
		return c
	default:
		return LocRef{Role: g.roles()}
	}
}

func (g *exprGen) locTerm(depth int) Term {
	if depth <= 0 {
		return g.locLeaf()
	}
	switch g.rng.Intn(4) {
	case 0:
		c, err := NewCall("centroid", g.locTerm(depth-1), g.locLeaf())
		if err != nil {
			panic(err)
		}
		return c
	case 1:
		c, err := NewCall("hull", g.locTerm(depth-1), g.locLeaf(), g.locLeaf())
		if err != nil {
			panic(err)
		}
		return c
	default:
		return g.locLeaf()
	}
}

func (g *exprGen) predicate(depth int) Expr {
	switch g.rng.Intn(3) {
	case 0:
		ops := []RelOp{OpGt, OpGe, OpLt, OpLe, OpEq, OpNe}
		return CmpNum{L: g.numTerm(depth), Op: ops[g.rng.Intn(len(ops))], R: g.numTerm(depth)}
	case 1:
		ops := []timemodel.Operator{
			timemodel.OpBefore, timemodel.OpAfter, timemodel.OpDuring,
			timemodel.OpBegin, timemodel.OpEnd, timemodel.OpMeet,
			timemodel.OpOverlap, timemodel.OpEqualT,
		}
		return CmpTime{L: g.timeTerm(depth), Op: ops[g.rng.Intn(len(ops))], R: g.timeTerm(depth)}
	default:
		ops := []spatial.Operator{
			spatial.OpInside, spatial.OpOutside, spatial.OpJoint,
			spatial.OpEqualS, spatial.OpCovers,
		}
		return CmpLoc{L: g.locTerm(depth), Op: ops[g.rng.Intn(len(ops))], R: g.locTerm(depth)}
	}
}

func (g *exprGen) expr(depth int) Expr {
	if depth <= 0 {
		return g.predicate(1)
	}
	switch g.rng.Intn(5) {
	case 0:
		return And{L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 1:
		return Or{L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 2:
		return Not{X: g.expr(depth - 1)}
	default:
		return g.predicate(depth)
	}
}

// randomBinding builds a binding with both roles populated.
func randomBinding(rng *rand.Rand) Binding {
	mk := func(id string) event.Observation {
		start := timemodel.Tick(rng.Intn(100))
		occ := timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(30)))
		var loc spatial.Location
		if rng.Intn(2) == 0 {
			loc = spatial.AtPoint(float64(rng.Intn(41)-20), float64(rng.Intn(41)-20))
		} else {
			f, err := spatial.Rect(
				float64(rng.Intn(10)), float64(rng.Intn(10)),
				float64(rng.Intn(10)+11), float64(rng.Intn(10)+11))
			if err != nil {
				panic(err)
			}
			loc = spatial.InField(f)
		}
		return event.Observation{
			Mote: id, Sensor: "SR", Seq: 1,
			Time: occ, Loc: loc,
			Attrs: event.Attrs{
				"a": float64(rng.Intn(21) - 10),
				"b": float64(rng.Intn(21) - 10),
			},
		}
	}
	return Binding{"x": mk("X"), "y": mk("Y")}
}

// TestDifferentialParsePrintEval is the parser/printer/evaluator
// triangle check over 400 random expressions × 3 random bindings each.
func TestDifferentialParsePrintEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	g := &exprGen{rng: rng}
	for trial := 0; trial < 400; trial++ {
		orig := g.expr(3)
		printed := orig.String()
		reparsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("trial %d: generated expression does not reparse:\n%s\n%v", trial, printed, err)
		}
		if reparsed.String() != printed {
			t.Fatalf("trial %d: print not a fixpoint:\n %s\n %s", trial, printed, reparsed.String())
		}
		for bi := 0; bi < 3; bi++ {
			b := randomBinding(rng)
			v1, err1 := interpret(orig, b)
			v2, err2 := interpret(reparsed, b)
			if (err1 != nil) != (err2 != nil) {
				t.Fatalf("trial %d: error divergence on %s: %v vs %v", trial, printed, err1, err2)
			}
			if err1 == nil && v1 != v2 {
				t.Fatalf("trial %d: value divergence on %s: %v vs %v", trial, printed, v1, v2)
			}
		}
	}
}

// TestDifferentialRolesStable: Roles() of the reparsed expression matches
// the original.
func TestDifferentialRolesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := &exprGen{rng: rng}
	for trial := 0; trial < 100; trial++ {
		orig := g.expr(2)
		reparsed, err := Parse(orig.String())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		a, b := orig.Roles(), reparsed.Roles()
		if len(a) != len(b) {
			t.Fatalf("trial %d: roles %v vs %v", trial, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: roles %v vs %v", trial, a, b)
			}
		}
	}
}
