package condition

import (
	"errors"
	"strconv"
	"strings"

	"github.com/stcps/stcps/internal/timemodel"
)

// Evaluation errors.
var (
	// ErrUnboundRole is returned when a condition references a role with
	// no bound entity.
	ErrUnboundRole = errors.New("condition: unbound role")
	// ErrUnknownAttr is returned when a bound entity lacks a referenced
	// attribute.
	ErrUnknownAttr = errors.New("condition: unknown attribute")
	// ErrTypeMismatch is returned when operand types do not fit an
	// operator or function.
	ErrTypeMismatch = errors.New("condition: type mismatch")
	// ErrUnknownFunc is returned for calls to unregistered functions.
	ErrUnknownFunc = errors.New("condition: unknown function")
	// ErrArity is returned when a function receives a wrong number of
	// arguments.
	ErrArity = errors.New("condition: wrong argument count")
)

// Term is a typed expression fragment: a value of numeric, temporal or
// spatial type.
type Term interface {
	// TermType returns the static type of the term.
	TermType() Type
	// String renders the term in the condition language.
	String() string
}

// NumLit is a numeric constant C (Eq. 4.2).
type NumLit struct {
	// V is the constant value.
	V float64
}

// TermType implements Term.
func (NumLit) TermType() Type { return TypeNum }

// String implements Term.
func (n NumLit) String() string { return strconv.FormatFloat(n.V, 'g', -1, 64) }

// AttrRef references a bound entity's attribute: "x.temp".
type AttrRef struct {
	// Role is the entity role name.
	Role string
	// Name is the attribute name.
	Name string
}

// TermType implements Term.
func (AttrRef) TermType() Type { return TypeNum }

// String implements Term.
func (a AttrRef) String() string { return a.Role + "." + a.Name }

// TimePart selects which part of an entity's occurrence time a TimeRef
// denotes.
type TimePart int

// Time parts.
const (
	// WholeTime denotes the full occurrence time t° (point or interval).
	WholeTime TimePart = iota + 1
	// StartTime denotes the punctual start of the occurrence.
	StartTime
	// EndTime denotes the punctual end of the occurrence.
	EndTime
)

// TimeRef references a bound entity's occurrence time: "x.time",
// "x.start", "x.end".
type TimeRef struct {
	// Role is the entity role name.
	Role string
	// Part selects the whole occurrence, its start, or its end.
	Part TimePart
}

// TermType implements Term.
func (TimeRef) TermType() Type { return TypeTime }

// String implements Term.
func (t TimeRef) String() string {
	switch t.Part {
	case StartTime:
		return t.Role + ".start"
	case EndTime:
		return t.Role + ".end"
	default:
		return t.Role + ".time"
	}
}

// TimeLit is a time constant C_t (Eq. 4.3): "@5" or "[3,9]".
type TimeLit struct {
	// T is the constant occurrence time.
	T timemodel.Time
}

// TermType implements Term.
func (TimeLit) TermType() Type { return TypeTime }

// String implements Term.
func (t TimeLit) String() string { return t.T.String() }

// TimeShift is a time term translated by a numeric term:
// "x.time + 5" (the paper's "+5 time units" example, Section 4.1).
type TimeShift struct {
	// T is the time operand.
	T Term
	// D is the numeric displacement in ticks; negative shifts earlier.
	D Term
	// Neg records whether the displacement was written with "-".
	Neg bool
}

// TermType implements Term.
func (TimeShift) TermType() Type { return TypeTime }

// String implements Term.
func (t TimeShift) String() string {
	op := " + "
	if t.Neg {
		op = " - "
	}
	return t.T.String() + op + t.D.String()
}

// NumArith is numeric addition or subtraction of two numeric terms:
// "x.temp - y.temp".
type NumArith struct {
	// L and R are the numeric operands.
	L, R Term
	// Sub selects subtraction instead of addition.
	Sub bool
}

// TermType implements Term.
func (NumArith) TermType() Type { return TypeNum }

// String implements Term.
func (n NumArith) String() string {
	op := " + "
	if n.Sub {
		op = " - "
	}
	return n.L.String() + op + n.R.String()
}

// LocRef references a bound entity's occurrence location: "x.loc".
type LocRef struct {
	// Role is the entity role name.
	Role string
}

// TermType implements Term.
func (LocRef) TermType() Type { return TypeLoc }

// String implements Term.
func (l LocRef) String() string { return l.Role + ".loc" }

// Call is a function application: an aggregation g_v, g_t, g_s or a
// helper such as dist, duration, area. The result type is fixed by the
// function's registry entry.
type Call struct {
	// Fn is the function name.
	Fn string
	// Args are the argument terms.
	Args []Term
	// Result is the resolved result type (set by the checker/builders).
	Result Type
}

// TermType implements Term.
func (c Call) TermType() Type { return c.Result }

// String implements Term.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}
