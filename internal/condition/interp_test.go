package condition

import (
	"fmt"
	"math"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// interp_test.go holds the tree-walking interpreter of the condition
// language (Eqs. 4.2–4.5): the oracle the slot compiler, the parser and
// the analyzer are checked against. Production evaluates through
// Compile only.

// Binding maps condition roles (the paper's entities x, y, ...) to the
// observations or event instances being evaluated.
type Binding map[string]event.Entity

// interpret evaluates a condition against a binding. Errors indicate
// unbound roles, missing attributes, or evaluation failures; And and Or
// short-circuit.
func interpret(e Expr, b Binding) (bool, error) {
	switch v := e.(type) {
	case And:
		lv, err := interpret(v.L, b)
		if err != nil || !lv {
			return false, err
		}
		return interpret(v.R, b)
	case Or:
		lv, err := interpret(v.L, b)
		if err != nil || lv {
			return lv, err
		}
		return interpret(v.R, b)
	case Not:
		x, err := interpret(v.X, b)
		if err != nil {
			return false, err
		}
		return !x, nil
	case CmpNum:
		lv, err := evalNum(v.L, b)
		if err != nil {
			return false, err
		}
		rv, err := evalNum(v.R, b)
		if err != nil {
			return false, err
		}
		return v.Op.Apply(lv, rv), nil
	case CmpTime:
		lv, err := evalTime(v.L, b)
		if err != nil {
			return false, err
		}
		rv, err := evalTime(v.R, b)
		if err != nil {
			return false, err
		}
		return v.Op.Apply(lv, rv), nil
	case CmpLoc:
		lv, err := evalLoc(v.L, b)
		if err != nil {
			return false, err
		}
		rv, err := evalLoc(v.R, b)
		if err != nil {
			return false, err
		}
		return v.Op.Apply(lv, rv), nil
	case BoolLit:
		return v.V, nil
	default:
		return false, fmt.Errorf("cannot interpret %T", e)
	}
}

// lookupEntity resolves a role in the binding.
func lookupEntity(b Binding, role string) (event.Entity, error) {
	e, ok := b[role]
	if !ok || e == nil {
		return nil, fmt.Errorf("%q: %w", role, ErrUnboundRole)
	}
	return e, nil
}

// evalNum evaluates a numeric term against a binding.
func evalNum(t Term, b Binding) (float64, error) {
	switch v := t.(type) {
	case NumLit:
		return v.V, nil
	case AttrRef:
		e, err := lookupEntity(b, v.Role)
		if err != nil {
			return 0, err
		}
		val, ok := e.Attr(v.Name)
		if !ok {
			return 0, fmt.Errorf("%s.%s: %w", v.Role, v.Name, ErrUnknownAttr)
		}
		return val, nil
	case NumArith:
		lv, err := evalNum(v.L, b)
		if err != nil {
			return 0, err
		}
		rv, err := evalNum(v.R, b)
		if err != nil {
			return 0, err
		}
		if v.Sub {
			return lv - rv, nil
		}
		return lv + rv, nil
	case Call:
		return evalNumCall(v, b)
	default:
		return 0, fmt.Errorf("%s is not numeric: %w", t, ErrTypeMismatch)
	}
}

// evalTime evaluates a temporal term against a binding.
func evalTime(t Term, b Binding) (timemodel.Time, error) {
	switch v := t.(type) {
	case TimeLit:
		return v.T, nil
	case TimeRef:
		e, err := lookupEntity(b, v.Role)
		if err != nil {
			return timemodel.Time{}, err
		}
		occ := e.OccTime()
		switch v.Part {
		case StartTime:
			return timemodel.At(occ.Start()), nil
		case EndTime:
			return timemodel.At(occ.End()), nil
		default:
			return occ, nil
		}
	case TimeShift:
		base, err := evalTime(v.T, b)
		if err != nil {
			return timemodel.Time{}, err
		}
		d, err := evalNum(v.D, b)
		if err != nil {
			return timemodel.Time{}, err
		}
		if v.Neg {
			d = -d
		}
		return base.Shift(timemodel.Tick(d)), nil
	case Call:
		return evalTimeCall(v, b)
	default:
		return timemodel.Time{}, fmt.Errorf("%s is not temporal: %w", t, ErrTypeMismatch)
	}
}

// evalLoc evaluates a spatial term against a binding.
func evalLoc(t Term, b Binding) (spatial.Location, error) {
	switch v := t.(type) {
	case LocRef:
		e, err := lookupEntity(b, v.Role)
		if err != nil {
			return spatial.Location{}, err
		}
		return e.OccLoc(), nil
	case Call:
		return evalLocCall(v, b)
	default:
		return spatial.Location{}, fmt.Errorf("%s is not spatial: %w", t, ErrTypeMismatch)
	}
}

func evalNumArgs(args []Term, b Binding) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		v, err := evalNum(a, b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func evalNumCall(c Call, b Binding) (float64, error) {
	switch c.Fn {
	case "avg", "sum", "min", "max":
		vals, err := evalNumArgs(c.Args, b)
		if err != nil {
			return 0, err
		}
		if len(vals) == 0 {
			return 0, fmt.Errorf("%s: %w", c.Fn, ErrArity)
		}
		return applyNumAgg(c.Fn, vals), nil
	case "abs":
		v, err := evalNum(c.Args[0], b)
		if err != nil {
			return 0, err
		}
		return math.Abs(v), nil
	case "dist":
		la, err := evalLoc(c.Args[0], b)
		if err != nil {
			return 0, err
		}
		lb, err := evalLoc(c.Args[1], b)
		if err != nil {
			return 0, err
		}
		return spatial.Dist(la, lb), nil
	case "duration":
		tv, err := evalTime(c.Args[0], b)
		if err != nil {
			return 0, err
		}
		return float64(tv.Duration()), nil
	case "area":
		lv, err := evalLoc(c.Args[0], b)
		if err != nil {
			return 0, err
		}
		if f, ok := lv.Field(); ok {
			return f.Area(), nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("%q as num: %w", c.Fn, ErrUnknownFunc)
	}
}

func evalTimeCall(c Call, b Binding) (timemodel.Time, error) {
	agg, ok := timemodel.Aggregation(c.Fn)
	if !ok {
		return timemodel.Time{}, fmt.Errorf("%q as time: %w", c.Fn, ErrUnknownFunc)
	}
	times := make([]timemodel.Time, len(c.Args))
	for i, a := range c.Args {
		tv, err := evalTime(a, b)
		if err != nil {
			return timemodel.Time{}, err
		}
		times[i] = tv
	}
	out, err := agg(times)
	if err != nil {
		return timemodel.Time{}, fmt.Errorf("condition: %s: %w", c.Fn, err)
	}
	return out, nil
}

func evalLocCall(c Call, b Binding) (spatial.Location, error) {
	switch c.Fn {
	case "point", "rect", "circle":
		vals, err := evalNumArgs(c.Args, b)
		if err != nil {
			return spatial.Location{}, err
		}
		return buildLoc(c.Fn, vals)
	}
	agg, ok := spatial.Aggregation(c.Fn)
	if !ok {
		return spatial.Location{}, fmt.Errorf("%q as loc: %w", c.Fn, ErrUnknownFunc)
	}
	locs := make([]spatial.Location, len(c.Args))
	for i, a := range c.Args {
		lv, err := evalLoc(a, b)
		if err != nil {
			return spatial.Location{}, err
		}
		locs[i] = lv
	}
	out, err := agg(locs)
	if err != nil {
		return spatial.Location{}, fmt.Errorf("condition: %s: %w", c.Fn, err)
	}
	return out, nil
}
