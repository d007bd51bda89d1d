package condition

import (
	"fmt"
	"math"

	"github.com/stcps/stcps/internal/spatial"
)

// funcSig describes a registered function: its result type and the
// accepted argument types. Variadic functions accept 1..n arguments of
// the same type.
type funcSig struct {
	result   Type
	args     []Type // exact signature when variadic is false
	variadic Type   // when nonzero, any positive number of this type
	min      int    // minimum arity for variadic functions
}

// funcs is the registry of condition-language functions: the paper's
// aggregation functions g_v (avg, sum, min, max), g_t (earliest, latest,
// span, common), g_s (centroid, bbox, hull) and the measurement helpers
// used in its examples (dist — the S1 example's g_distance — duration,
// area) plus location constructors (point, rect, circle).
var funcs = map[string]funcSig{
	// Attribute aggregations g_v (Eq. 4.2).
	"avg": {result: TypeNum, variadic: TypeNum, min: 1},
	"sum": {result: TypeNum, variadic: TypeNum, min: 1},
	"min": {result: TypeNum, variadic: TypeNum, min: 1},
	"max": {result: TypeNum, variadic: TypeNum, min: 1},
	"abs": {result: TypeNum, args: []Type{TypeNum}},

	// Temporal aggregations g_t (Eq. 4.3).
	"earliest": {result: TypeTime, variadic: TypeTime, min: 1},
	"latest":   {result: TypeTime, variadic: TypeTime, min: 1},
	"span":     {result: TypeTime, variadic: TypeTime, min: 1},
	"common":   {result: TypeTime, variadic: TypeTime, min: 1},

	// Spatial aggregations g_s (Eq. 4.4).
	"centroid": {result: TypeLoc, variadic: TypeLoc, min: 1},
	"bbox":     {result: TypeLoc, variadic: TypeLoc, min: 1},
	"hull":     {result: TypeLoc, variadic: TypeLoc, min: 1},

	// Measurements.
	"dist":     {result: TypeNum, args: []Type{TypeLoc, TypeLoc}},
	"duration": {result: TypeNum, args: []Type{TypeTime}},
	"area":     {result: TypeNum, args: []Type{TypeLoc}},

	// Location constructors.
	"point":  {result: TypeLoc, args: []Type{TypeNum, TypeNum}},
	"rect":   {result: TypeLoc, args: []Type{TypeNum, TypeNum, TypeNum, TypeNum}},
	"circle": {result: TypeLoc, args: []Type{TypeNum, TypeNum, TypeNum}},
}

// circleSegments is the polygon resolution used for the circle()
// constructor.
const circleSegments = 32

// resolveFunc validates a call's name and argument types and returns its
// result type.
func resolveFunc(name string, argTypes []Type) (Type, error) {
	sig, ok := funcs[name]
	if !ok {
		return 0, fmt.Errorf("%q: %w", name, ErrUnknownFunc)
	}
	if sig.variadic != 0 {
		if len(argTypes) < sig.min {
			return 0, fmt.Errorf("%s wants at least %d args, got %d: %w", name, sig.min, len(argTypes), ErrArity)
		}
		for i, at := range argTypes {
			if at != sig.variadic {
				return 0, fmt.Errorf("%s arg %d is %v, want %v: %w", name, i+1, at, sig.variadic, ErrTypeMismatch)
			}
		}
		return sig.result, nil
	}
	if len(argTypes) != len(sig.args) {
		return 0, fmt.Errorf("%s wants %d args, got %d: %w", name, len(sig.args), len(argTypes), ErrArity)
	}
	for i, at := range argTypes {
		if at != sig.args[i] {
			return 0, fmt.Errorf("%s arg %d is %v, want %v: %w", name, i+1, at, sig.args[i], ErrTypeMismatch)
		}
	}
	return sig.result, nil
}

// NewCall builds a type-checked Call term.
func NewCall(name string, args ...Term) (Call, error) {
	argTypes := make([]Type, len(args))
	for i, a := range args {
		argTypes[i] = a.TermType()
	}
	res, err := resolveFunc(name, argTypes)
	if err != nil {
		return Call{}, err
	}
	return Call{Fn: name, Args: args, Result: res}, nil
}

// applyNumAgg is the shared avg/sum/min/max kernel: the slot compiler
// and the interpreter the tests use as its oracle both evaluate through
// it. vals must be non-empty.
func applyNumAgg(fn string, vals []float64) float64 {
	switch fn {
	case "avg":
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case "sum":
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Min(m, v)
		}
		return m
	default: // max
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Max(m, v)
		}
		return m
	}
}

// buildLoc is the shared point/rect/circle constructor kernel.
func buildLoc(fn string, vals []float64) (spatial.Location, error) {
	switch fn {
	case "point":
		return spatial.AtPoint(vals[0], vals[1]), nil
	case "rect":
		f, err := spatial.Rect(vals[0], vals[1], vals[2], vals[3])
		if err != nil {
			return spatial.Location{}, fmt.Errorf("condition: rect: %w", err) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
		}
		return spatial.InField(f), nil
	default: // circle
		f, err := spatial.Circle(spatial.Pt(vals[0], vals[1]), vals[2], circleSegments)
		if err != nil {
			return spatial.Location{}, fmt.Errorf("condition: circle: %w", err) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
		}
		return spatial.InField(f), nil
	}
}
