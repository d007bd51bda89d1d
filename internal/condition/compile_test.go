package condition

import (
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// compile_test.go cross-checks the slot compiler against the interpreted
// evaluator: for every generated expression and binding, the compiled
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
			want, wantErr := e.Eval(b)
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

func TestCompiledConstantFolding(t *testing.T) {
	slots := NewSlotMap([]string{"x"})
	// A role-free subterm folds; the whole role-free comparison folds to
	// a boolean literal.
	c, err := Compile(MustParse("avg(1, 2, 3) > 1 and x.a > 0"), slots)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := c.root.(*cAnd)
	if !ok {
		t.Fatalf("root = %T, want *cAnd", c.root)
	}
	if _, ok := and.l.(*cBool); !ok {
		t.Errorf("constant conjunct compiled to %T, want folded *cBool", and.l)
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
