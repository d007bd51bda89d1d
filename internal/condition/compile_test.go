package condition

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// compile_test.go cross-checks the slot compiler against the interpreter
// oracle (interp_test.go): for every generated expression and binding, the compiled
// form must produce the same truth value (or error exactly when the
// interpreter errors), and evaluation must not allocate.

// slotBinding converts a map binding to the compiled slice form.
func slotBinding(t *testing.T, m *SlotMap, b Binding) []event.Entity {
	t.Helper()
	ents := make([]event.Entity, m.Len())
	for role, e := range b {
		slot, ok := m.Slot(role)
		if !ok {
			t.Fatalf("role %q missing from slot map", role)
		}
		ents[slot] = e
	}
	return ents
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	slots := NewSlotMap([]string{"x", "y"})
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &exprGen{rng: rng}
		e := g.expr(3)
		c, err := Compile(e, slots)
		if err != nil {
			t.Fatalf("seed %d: compile %s: %v", seed, e, err)
		}
		for trial := 0; trial < 8; trial++ {
			b := randomBinding(rng)
			want, wantErr := interpret(e, b)
			got, gotErr := c.Eval(slotBinding(t, slots, b))
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("seed %d trial %d: %s\ninterpreted err=%v, compiled err=%v",
					seed, trial, e, wantErr, gotErr)
			}
			if wantErr == nil && want != got {
				t.Fatalf("seed %d trial %d: %s\ninterpreted=%v, compiled=%v",
					seed, trial, e, want, got)
			}
		}
	}
}

func TestCompiledUnboundRole(t *testing.T) {
	slots := NewSlotMap([]string{"x", "y"})
	c, err := Compile(MustParse("x.a > 0 and y.b > 0"), slots)
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]event.Entity, slots.Len())
	ents[0] = event.Observation{Mote: "M", Sensor: "S", Attrs: event.Attrs{"a": 1}}
	if _, err := c.Eval(ents); err == nil {
		t.Fatal("unbound slot must error")
	}
}

func TestCompileRejectsUnknownRole(t *testing.T) {
	slots := NewSlotMap([]string{"x"})
	if _, err := Compile(MustParse("z.a > 0"), slots); err == nil {
		t.Fatal("compile must reject roles missing from the slot map")
	}
}

// TestCompiledConstantFolding pins what the compiler folds. Role-free
// terms and comparisons become literals; a role-free term whose
// evaluation errors stays a live node that errors on every Eval; an
// ill-typed role-free call fails Compile instead of folding.
func TestCompiledConstantFolding(t *testing.T) {
	slots := NewSlotMap([]string{"x"})
	root := func(c *Compiled) any { return c.root }
	right := func(c *Compiled) any {
		switch n := c.root.(type) {
		case *cCmpNum:
			return n.r
		case *cCmpTime:
			return n.r
		case *cCmpLoc:
			return n.r
		case *cAnd:
			return n.r
		}
		return nil
	}
	left := func(c *Compiled) any { return c.root.(*cAnd).l }
	illTyped := CmpNum{
		L:  Call{Fn: "dist", Args: []Term{NumLit{V: 1}, NumLit{V: 2}}, Result: TypeNum},
		Op: OpLt,
		R:  NumLit{V: 3},
	}
	tests := []struct {
		name string
		expr Expr
		node func(*Compiled) any // the node whose type is checked
		want string              // its dynamic type
		// evalErr: every Eval of the compiled condition errors.
		evalErr bool
		// compileErr: Compile fails with this error.
		compileErr error
	}{
		{name: "numeric term", expr: MustParse("x.a > avg(1, 2, 3)"), node: right, want: "*condition.cNumLit"},
		{name: "temporal term", expr: MustParse("x.time before latest(@1, [3, 9])"), node: right, want: "*condition.cTimeLit"},
		{name: "spatial term", expr: MustParse("x.loc inside rect(0, 0, 10, 10)"), node: right, want: "*condition.cLocLit"},
		{name: "comparison", expr: MustParse("avg(1, 2, 3) > 1 and x.a > 0"), node: left, want: "*condition.cBool"},
		{name: "role-free condition", expr: MustParse("dist(point(0, 0), point(3, 4)) == 5"), node: root, want: "*condition.cBool"},
		{name: "erroring term", expr: MustParse("duration(common(@1, @5)) > 0"), node: root, want: "*condition.cCmpNum", evalErr: true},
		{name: "erroring clause", expr: MustParse("x.a > 0 and common(@1, @5) before @9"), node: right, want: "*condition.cCmpTime", evalErr: true},
		{name: "ill-typed call", expr: illTyped, compileErr: ErrTypeMismatch},
		{name: "unknown function", expr: CmpNum{L: Call{Fn: "nope", Result: TypeNum}, Op: OpLt, R: NumLit{V: 3}}, compileErr: ErrUnknownFunc},
	}
	ents := []event.Entity{event.Observation{
		Mote: "M", Sensor: "S", Seq: 1,
		Time: timemodel.At(2), Loc: spatial.AtPoint(1, 1), Attrs: event.Attrs{"a": 5},
	}}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Compile(tt.expr, slots)
			if tt.compileErr != nil {
				if !errors.Is(err, tt.compileErr) {
					t.Fatalf("Compile(%s) err = %v, want %v", tt.expr, err, tt.compileErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Compile(%s): %v", tt.expr, err)
			}
			if got := fmt.Sprintf("%T", tt.node(c)); got != tt.want {
				t.Fatalf("%s: node compiled to %s, want %s", tt.expr, got, tt.want)
			}
			for i := 0; i < 2; i++ {
				if _, err := c.Eval(ents); (err != nil) != tt.evalErr {
					t.Fatalf("%s: Eval #%d err = %v, want error %v", tt.expr, i, err, tt.evalErr)
				}
			}
		})
	}
}

// TestCompiledEvalAllocs pins the planner's hot-loop contract: compiled
// evaluation of a multi-clause spatio-temporal condition over a slot
// binding performs zero allocations. The second condition is the
// three-role chain of the retired E10 join benchmark.
func TestCompiledEvalAllocs(t *testing.T) {
	slots := NewSlotMap([]string{"x", "y", "z"})
	mk := func(id string, tick timemodel.Tick, x float64) event.Observation {
		return event.Observation{
			Mote: id, Sensor: "S", Seq: 1,
			Time:  timemodel.At(tick),
			Loc:   spatial.AtPoint(x, 0),
			Attrs: event.Attrs{"a": 1, "v": 0.5},
		}
	}
	ents := []event.Entity{mk("A", 1, 0), mk("B", 2, 1), mk("C", 3, 2)}
	for _, src := range []string{
		"x.time before y.time and dist(x.loc, y.loc) < 5 and x.a > 0.5 and avg(x.a, y.a, z.a) < 10",
		"x.time before y.time and y.time before z.time and " +
			"dist(x.loc, y.loc) < 4 and dist(y.loc, z.loc) < 4 and x.v > 0.2",
	} {
		c, err := Compile(MustParse(src), slots)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := c.Eval(ents); err != nil || !ok {
			t.Fatalf("%s = %v, %v; want true", src, ok, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := c.Eval(ents); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: compiled eval allocates %v times per run, want 0", src, allocs)
		}
	}
}
