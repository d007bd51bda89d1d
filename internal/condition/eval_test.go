package condition

import (
	"errors"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// evalCompiled compiles e over its own roles and evaluates it against b:
// the paper-semantics cases run through Compile, the evaluator
// production uses.
func evalCompiled(t *testing.T, e Expr, b Binding) (bool, error) {
	t.Helper()
	slots := NewSlotMap(e.Roles())
	c, err := Compile(e, slots)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	return c.Eval(slotBinding(t, slots, b))
}

// obs builds a test observation entity.
func obs(mote string, seq uint64, t timemodel.Time, loc spatial.Location, attrs event.Attrs) event.Observation {
	return event.Observation{
		Mote: mote, Sensor: "SR", Seq: seq,
		Time: t, Loc: loc, Attrs: attrs,
	}
}

func TestEvalPaperS1(t *testing.T) {
	// S1 (Sec. 4.1): "every instance of physical observation x occurs
	// before physical observation y and the distance between the location
	// of x and the location of y is less than 5 meters".
	s1 := MustParse("x.time before y.time and dist(x.loc, y.loc) < 5")

	tests := []struct {
		name string
		x, y event.Entity
		want bool
	}{
		{
			name: "both conditions hold",
			x:    obs("MT1", 1, timemodel.At(10), spatial.AtPoint(0, 0), nil),
			y:    obs("MT2", 1, timemodel.At(20), spatial.AtPoint(3, 0), nil),
			want: true,
		},
		{
			name: "temporal fails",
			x:    obs("MT1", 2, timemodel.At(30), spatial.AtPoint(0, 0), nil),
			y:    obs("MT2", 2, timemodel.At(20), spatial.AtPoint(3, 0), nil),
			want: false,
		},
		{
			name: "spatial fails",
			x:    obs("MT1", 3, timemodel.At(10), spatial.AtPoint(0, 0), nil),
			y:    obs("MT2", 3, timemodel.At(20), spatial.AtPoint(9, 0), nil),
			want: false,
		},
		{
			name: "boundary distance excluded",
			x:    obs("MT1", 4, timemodel.At(10), spatial.AtPoint(0, 0), nil),
			y:    obs("MT2", 4, timemodel.At(20), spatial.AtPoint(5, 0), nil),
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := evalCompiled(t, s1, Binding{"x": tt.x, "y": tt.y})
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if got != tt.want {
				t.Fatalf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEvalPaperOffsetExample(t *testing.T) {
	// "every event instance of event x must occur AFTER 5 time units
	// Before event y": t°x + 5 Before t°y.
	e := MustParse("x.time + 5 before y.time")
	x := obs("MT1", 1, timemodel.At(10), spatial.AtPoint(0, 0), nil)
	tests := []struct {
		name  string
		yTick timemodel.Tick
		want  bool
	}{
		{"far enough after", 20, true},
		{"exactly at shifted point", 15, false},
		{"too soon", 12, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			y := obs("MT2", 1, timemodel.At(tt.yTick), spatial.AtPoint(0, 0), nil)
			got, err := evalCompiled(t, e, Binding{"x": x, "y": y})
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("y@%d: got %v, want %v", tt.yTick, got, tt.want)
			}
		})
	}
}

func TestEvalSpatialInside(t *testing.T) {
	// "every event instance of event x must occur Inside event y".
	e := MustParse("x.loc inside y.loc")
	roomField := spatial.MustField(
		spatial.Pt(0, 0), spatial.Pt(10, 0), spatial.Pt(10, 10), spatial.Pt(0, 10))
	y := obs("MT2", 1, timemodel.At(0), spatial.InField(roomField), nil)

	in := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(5, 5), nil)
	out := obs("MT1", 2, timemodel.At(0), spatial.AtPoint(15, 5), nil)

	if got, _ := evalCompiled(t, e, Binding{"x": in, "y": y}); !got {
		t.Error("point in room should be inside")
	}
	if got, _ := evalCompiled(t, e, Binding{"x": out, "y": y}); got {
		t.Error("point out of room must not be inside")
	}
}

func TestEvalAttributeAggregation(t *testing.T) {
	// "The average attribute of physical observation x and y is Greater
	// than C": Average(Vx, Vy) > C.
	e := MustParse("avg(x.v, y.v) > 20")
	x := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"v": 18})
	y := obs("MT2", 1, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"v": 25})
	got, err := evalCompiled(t, e, Binding{"x": x, "y": y})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("avg(18,25)=21.5 > 20 should hold")
	}
	y2 := obs("MT2", 2, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"v": 21})
	if got, _ := evalCompiled(t, e, Binding{"x": x, "y": y2}); got {
		t.Error("avg(18,21)=19.5 > 20 must not hold")
	}
}

func TestEvalErrors(t *testing.T) {
	x := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"v": 1})
	tests := []struct {
		name    string
		expr    string
		binding Binding
		wantErr error
	}{
		{"unbound role", "x.v > 0 and y.v > 0", Binding{"x": x}, ErrUnboundRole},
		{"unknown attribute", "x.missing > 0", Binding{"x": x}, ErrUnknownAttr},
		{"nil entity", "x.v > 0", Binding{"x": nil}, ErrUnboundRole},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := evalCompiled(t, MustParse(tt.expr), tt.binding)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestEvalShortCircuit(t *testing.T) {
	x := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"v": 1})
	// The second operand references an unbound role but must never be
	// evaluated.
	and := MustParse("x.v < 0 and y.v > 0")
	if got, err := evalCompiled(t, and, Binding{"x": x}); err != nil || got {
		t.Errorf("and short-circuit: got (%v, %v), want (false, nil)", got, err)
	}
	or := MustParse("x.v > 0 or y.v > 0")
	if got, err := evalCompiled(t, or, Binding{"x": x}); err != nil || !got {
		t.Errorf("or short-circuit: got (%v, %v), want (true, nil)", got, err)
	}
}

func TestEvalIntervalSemantics(t *testing.T) {
	// An interval occurrence (the "light on for 30 minutes" style event).
	lightOn := obs("MT1", 1, timemodel.MustBetween(100, 160), spatial.AtPoint(0, 0), nil)
	probe := obs("MT2", 1, timemodel.At(120), spatial.AtPoint(0, 0), nil)

	during := MustParse("x.time during y.time")
	if got, _ := evalCompiled(t, during, Binding{"x": probe, "y": lightOn}); !got {
		t.Error("@120 should be during [100,160]")
	}
	dur := MustParse("duration(y.time) >= 60")
	if got, _ := evalCompiled(t, dur, Binding{"y": lightOn}); !got {
		t.Error("duration 60 >= 60 should hold")
	}
	startEnd := MustParse("y.start before y.end")
	if got, _ := evalCompiled(t, startEnd, Binding{"y": lightOn}); !got {
		t.Error("interval start should be before its end")
	}
}

func TestEvalSpatialAggregations(t *testing.T) {
	a := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(0, 0), nil)
	b := obs("MT2", 1, timemodel.At(0), spatial.AtPoint(4, 0), nil)
	c := obs("MT3", 1, timemodel.At(0), spatial.AtPoint(2, 4), nil)

	e := MustParse("centroid(a.loc, b.loc, c.loc) inside rect(1, 0, 3, 2)")
	got, err := evalCompiled(t, e, Binding{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("centroid (2, 1.33) should be inside rect(1,0,3,2)")
	}

	hull := MustParse("area(hull(a.loc, b.loc, c.loc)) == 8")
	got, err = evalCompiled(t, hull, Binding{"a": a, "b": b, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("hull area of triangle (0,0),(4,0),(2,4) should be 8")
	}
}

func TestEvalNumericEdgeCases(t *testing.T) {
	x := obs("MT1", 1, timemodel.At(0), spatial.AtPoint(0, 0), event.Attrs{"a": -3, "b": 2})
	tests := []struct {
		expr string
		want bool
	}{
		{"abs(x.a) == 3", true},
		{"x.a + x.b == -1", true},
		{"x.a - x.b == -5", true},
		{"min(x.a, x.b) == -3", true},
		{"max(x.a, x.b) == 2", true},
		{"sum(x.a, x.b) != -1", false},
		{"area(x.loc) == 0", true}, // points have zero area
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			got, err := evalCompiled(t, MustParse(tt.expr), Binding{"x": x})
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEvalRelOpTable(t *testing.T) {
	tests := []struct {
		op   RelOp
		a, b float64
		want bool
	}{
		{OpGt, 2, 1, true}, {OpGt, 1, 1, false},
		{OpGe, 1, 1, true}, {OpGe, 0, 1, false},
		{OpLt, 0, 1, true}, {OpLt, 1, 1, false},
		{OpLe, 1, 1, true}, {OpLe, 2, 1, false},
		{OpEq, 3, 3, true}, {OpEq, 3, 4, false},
		{OpNe, 3, 4, true}, {OpNe, 3, 3, false},
	}
	for _, tt := range tests {
		if got := tt.op.Apply(tt.a, tt.b); got != tt.want {
			t.Errorf("%v(%g,%g) = %v, want %v", tt.op, tt.a, tt.b, got, tt.want)
		}
	}
	if RelOp(99).Apply(1, 2) {
		t.Error("unknown relop must evaluate false")
	}
	if RelOp(99).String() == "" || Type(99).String() == "" {
		t.Error("unknown enums must render")
	}
}
