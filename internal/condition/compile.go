package condition

import (
	"fmt"
	"math"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// SlotMap assigns each condition role a dense integer slot, so a binding
// can be a slice indexed by slot instead of a map keyed by role name.
// Roles keep the order of first appearance.
type SlotMap struct {
	names []string
	idx   map[string]int
}

// NewSlotMap builds a slot map from the role names in order; duplicates
// keep their first slot.
func NewSlotMap(roles []string) *SlotMap {
	m := &SlotMap{idx: make(map[string]int, len(roles))}
	for _, r := range roles {
		if _, ok := m.idx[r]; ok {
			continue
		}
		m.idx[r] = len(m.names)
		m.names = append(m.names, r)
	}
	return m
}

// Slot returns the slot of a role and whether the role is mapped.
func (m *SlotMap) Slot(role string) (int, bool) {
	i, ok := m.idx[role]
	return i, ok
}

// Len returns the number of distinct roles.
func (m *SlotMap) Len() int { return len(m.names) }

// Names returns the role names in slot order. The caller must not modify
// the returned slice.
func (m *SlotMap) Names() []string { return m.names }

// Compiled is a condition compiled against a SlotMap: every role
// reference is resolved to an integer slot at compile time, constant
// subterms are folded, and evaluation runs over a slice binding without
// allocating. A Compiled condition owns scratch buffers for aggregation
// calls, so it is not safe for concurrent use — compile one per
// evaluation context (the detector model is single-threaded anyway).
type Compiled struct {
	root cexpr
}

// Compile resolves e's role references against the slot map and returns
// the compiled condition. It fails when e references a role missing from
// the map, or contains a call the registry does not know.
func Compile(e Expr, m *SlotMap) (*Compiled, error) {
	root, err := compileExpr(e, m)
	if err != nil {
		return nil, err
	}
	return &Compiled{root: root}, nil
}

// Eval evaluates the compiled condition over a slot-indexed binding.
// ents[slot] holds the entity bound to that slot's role; a nil entry is
// an unbound role. Errors indicate unbound roles, missing attributes or
// failed aggregations, and callers treat erroring bindings as
// unsatisfied. And and Or short-circuit.
//
//stcps:hotpath
func (c *Compiled) Eval(ents []event.Entity) (bool, error) {
	return c.root.eval(ents)
}

// Compiled node interfaces: one per term type, mirroring Expr/Term.
type cexpr interface {
	eval(ents []event.Entity) (bool, error)
}

type cnum interface {
	num(ents []event.Entity) (float64, error)
}

type ctime interface {
	time(ents []event.Entity) (timemodel.Time, error)
}

type cloc interface {
	loc(ents []event.Entity) (spatial.Location, error)
}

// slotEntity resolves a slot in the binding.
func slotEntity(ents []event.Entity, slot int, role string) (event.Entity, error) {
	if slot >= len(ents) || ents[slot] == nil {
		return nil, fmt.Errorf("%q: %w", role, ErrUnboundRole) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
	}
	return ents[slot], nil
}

// --- boolean nodes ---

type cAnd struct{ l, r cexpr }

func (n *cAnd) eval(ents []event.Entity) (bool, error) {
	lv, err := n.l.eval(ents)
	if err != nil || !lv {
		return false, err
	}
	return n.r.eval(ents)
}

type cOr struct{ l, r cexpr }

func (n *cOr) eval(ents []event.Entity) (bool, error) {
	lv, err := n.l.eval(ents)
	if err != nil || lv {
		return lv, err
	}
	return n.r.eval(ents)
}

type cNot struct{ x cexpr }

func (n *cNot) eval(ents []event.Entity) (bool, error) {
	v, err := n.x.eval(ents)
	if err != nil {
		return false, err
	}
	return !v, nil
}

type cBool struct{ v bool }

func (n *cBool) eval([]event.Entity) (bool, error) { return n.v, nil }

type cCmpNum struct {
	l, r cnum
	op   RelOp
}

func (n *cCmpNum) eval(ents []event.Entity) (bool, error) {
	lv, err := n.l.num(ents)
	if err != nil {
		return false, err
	}
	rv, err := n.r.num(ents)
	if err != nil {
		return false, err
	}
	return n.op.Apply(lv, rv), nil
}

type cCmpTime struct {
	l, r ctime
	op   timemodel.Operator
}

func (n *cCmpTime) eval(ents []event.Entity) (bool, error) {
	lv, err := n.l.time(ents)
	if err != nil {
		return false, err
	}
	rv, err := n.r.time(ents)
	if err != nil {
		return false, err
	}
	return n.op.Apply(lv, rv), nil
}

type cCmpLoc struct {
	l, r cloc
	op   spatial.Operator
}

func (n *cCmpLoc) eval(ents []event.Entity) (bool, error) {
	lv, err := n.l.loc(ents)
	if err != nil {
		return false, err
	}
	rv, err := n.r.loc(ents)
	if err != nil {
		return false, err
	}
	return n.op.Apply(lv, rv), nil
}

// --- numeric nodes ---

type cNumLit struct{ v float64 }

func (n *cNumLit) num([]event.Entity) (float64, error) { return n.v, nil }

type cAttrRef struct {
	slot int
	role string
	name string
}

func (n *cAttrRef) num(ents []event.Entity) (float64, error) {
	e, err := slotEntity(ents, n.slot, n.role)
	if err != nil {
		return 0, err
	}
	v, ok := e.Attr(n.name)
	if !ok {
		return 0, fmt.Errorf("%s.%s: %w", n.role, n.name, ErrUnknownAttr) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
	}
	return v, nil
}

type cNumArith struct {
	l, r cnum
	sub  bool
}

func (n *cNumArith) num(ents []event.Entity) (float64, error) {
	lv, err := n.l.num(ents)
	if err != nil {
		return 0, err
	}
	rv, err := n.r.num(ents)
	if err != nil {
		return 0, err
	}
	if n.sub {
		return lv - rv, nil
	}
	return lv + rv, nil
}

// cNumAgg is a compiled avg/sum/min/max call with a reusable argument
// buffer.
type cNumAgg struct {
	fn      string
	args    []cnum
	scratch []float64
}

func (n *cNumAgg) num(ents []event.Entity) (float64, error) {
	vals := n.scratch[:0]
	for _, a := range n.args {
		v, err := a.num(ents)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return applyNumAgg(n.fn, vals), nil
}

type cAbs struct{ x cnum }

func (n *cAbs) num(ents []event.Entity) (float64, error) {
	v, err := n.x.num(ents)
	if err != nil {
		return 0, err
	}
	return math.Abs(v), nil
}

type cDist struct{ a, b cloc }

func (n *cDist) num(ents []event.Entity) (float64, error) {
	la, err := n.a.loc(ents)
	if err != nil {
		return 0, err
	}
	lb, err := n.b.loc(ents)
	if err != nil {
		return 0, err
	}
	return spatial.Dist(la, lb), nil
}

type cDuration struct{ t ctime }

func (n *cDuration) num(ents []event.Entity) (float64, error) {
	tv, err := n.t.time(ents)
	if err != nil {
		return 0, err
	}
	return float64(tv.Duration()), nil
}

type cArea struct{ l cloc }

func (n *cArea) num(ents []event.Entity) (float64, error) {
	lv, err := n.l.loc(ents)
	if err != nil {
		return 0, err
	}
	if f, ok := lv.Field(); ok {
		return f.Area(), nil
	}
	return 0, nil
}

// --- temporal nodes ---

type cTimeLit struct{ t timemodel.Time }

func (n *cTimeLit) time([]event.Entity) (timemodel.Time, error) { return n.t, nil }

type cTimeRef struct {
	slot int
	role string
	part TimePart
}

func (n *cTimeRef) time(ents []event.Entity) (timemodel.Time, error) {
	e, err := slotEntity(ents, n.slot, n.role)
	if err != nil {
		return timemodel.Time{}, err
	}
	occ := e.OccTime()
	switch n.part {
	case StartTime:
		return timemodel.At(occ.Start()), nil
	case EndTime:
		return timemodel.At(occ.End()), nil
	default:
		return occ, nil
	}
}

type cTimeShift struct {
	t   ctime
	d   cnum
	neg bool
}

func (n *cTimeShift) time(ents []event.Entity) (timemodel.Time, error) {
	base, err := n.t.time(ents)
	if err != nil {
		return timemodel.Time{}, err
	}
	d, err := n.d.num(ents)
	if err != nil {
		return timemodel.Time{}, err
	}
	if n.neg {
		d = -d
	}
	return base.Shift(timemodel.Tick(d)), nil
}

// cTimeAgg is a compiled earliest/latest/span/common call.
type cTimeAgg struct {
	fn      string
	agg     timemodel.AggFunc
	args    []ctime
	scratch []timemodel.Time
}

func (n *cTimeAgg) time(ents []event.Entity) (timemodel.Time, error) {
	times := n.scratch[:0]
	for _, a := range n.args {
		tv, err := a.time(ents)
		if err != nil {
			return timemodel.Time{}, err
		}
		times = append(times, tv)
	}
	out, err := n.agg(times)
	if err != nil {
		return timemodel.Time{}, fmt.Errorf("condition: %s: %w", n.fn, err) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
	}
	return out, nil
}

// --- spatial nodes ---

type cLocLit struct{ l spatial.Location }

func (n *cLocLit) loc([]event.Entity) (spatial.Location, error) { return n.l, nil }

type cLocRef struct {
	slot int
	role string
}

func (n *cLocRef) loc(ents []event.Entity) (spatial.Location, error) {
	e, err := slotEntity(ents, n.slot, n.role)
	if err != nil {
		return spatial.Location{}, err
	}
	return e.OccLoc(), nil
}

// cLocAgg is a compiled centroid/bbox/hull call.
type cLocAgg struct {
	fn      string
	agg     spatial.AggFunc
	args    []cloc
	scratch []spatial.Location
}

func (n *cLocAgg) loc(ents []event.Entity) (spatial.Location, error) {
	locs := n.scratch[:0]
	for _, a := range n.args {
		lv, err := a.loc(ents)
		if err != nil {
			return spatial.Location{}, err
		}
		locs = append(locs, lv)
	}
	out, err := n.agg(locs)
	if err != nil {
		return spatial.Location{}, fmt.Errorf("condition: %s: %w", n.fn, err) //stcps:ignore hotpath error path; erroring bindings count as unsatisfied
	}
	return out, nil
}

// cLocCtor is a compiled point/rect/circle constructor with non-constant
// arguments (constant ones fold to cLocLit).
type cLocCtor struct {
	fn      string
	args    []cnum
	scratch []float64
}

func (n *cLocCtor) loc(ents []event.Entity) (spatial.Location, error) {
	vals := n.scratch[:0]
	for _, a := range n.args {
		v, err := a.num(ents)
		if err != nil {
			return spatial.Location{}, err
		}
		vals = append(vals, v)
	}
	return buildLoc(n.fn, vals)
}

// --- compilation ---

// compileExpr compiles a condition node and folds it to a literal when it
// is role-free and its compiled form evaluates without a binding. A
// role-free node whose evaluation errors stays unfolded, so the error
// surfaces on every evaluation. compileNum, compileTime and compileLoc
// fold the same way.
func compileExpr(e Expr, m *SlotMap) (cexpr, error) {
	c, err := compileExprNode(e, m)
	if err != nil || len(e.Roles()) > 0 {
		return c, err
	}
	if v, err := c.eval(nil); err == nil {
		return &cBool{v: v}, nil
	}
	return c, nil
}

func compileExprNode(e Expr, m *SlotMap) (cexpr, error) {
	switch v := e.(type) {
	case And:
		l, err := compileExpr(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cAnd{l: l, r: r}, nil
	case Or:
		l, err := compileExpr(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cOr{l: l, r: r}, nil
	case Not:
		x, err := compileExpr(v.X, m)
		if err != nil {
			return nil, err
		}
		return &cNot{x: x}, nil
	case CmpNum:
		l, err := compileNum(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cCmpNum{l: l, r: r, op: v.Op}, nil
	case CmpTime:
		l, err := compileTime(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileTime(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cCmpTime{l: l, r: r, op: v.Op}, nil
	case CmpLoc:
		l, err := compileLoc(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileLoc(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cCmpLoc{l: l, r: r, op: v.Op}, nil
	case BoolLit:
		return &cBool{v: v.V}, nil
	default:
		return nil, fmt.Errorf("condition: cannot compile %T", e)
	}
}

// resolveSlot maps a role to its slot.
func resolveSlot(m *SlotMap, role string) (int, error) {
	slot, ok := m.Slot(role)
	if !ok {
		return 0, fmt.Errorf("%q: %w", role, ErrUnboundRole)
	}
	return slot, nil
}

// compileNum compiles a numeric term, constant-folding role-free terms.
func compileNum(t Term, m *SlotMap) (cnum, error) {
	c, err := compileNumNode(t, m)
	if err != nil || len(termRoles(t)) > 0 {
		return c, err
	}
	if v, err := c.num(nil); err == nil {
		return &cNumLit{v: v}, nil
	}
	return c, nil
}

func compileNumNode(t Term, m *SlotMap) (cnum, error) {
	switch v := t.(type) {
	case NumLit:
		return &cNumLit{v: v.V}, nil
	case AttrRef:
		slot, err := resolveSlot(m, v.Role)
		if err != nil {
			return nil, err
		}
		return &cAttrRef{slot: slot, role: v.Role, name: v.Name}, nil
	case NumArith:
		l, err := compileNum(v.L, m)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(v.R, m)
		if err != nil {
			return nil, err
		}
		return &cNumArith{l: l, r: r, sub: v.Sub}, nil
	case Call:
		return compileNumCall(v, m)
	default:
		return nil, fmt.Errorf("%s is not numeric: %w", t, ErrTypeMismatch)
	}
}

func compileNumCall(c Call, m *SlotMap) (cnum, error) {
	switch c.Fn {
	case "avg", "sum", "min", "max":
		if len(c.Args) == 0 {
			return nil, fmt.Errorf("%s: %w", c.Fn, ErrArity)
		}
		args, err := compileNumArgs(c.Args, m)
		if err != nil {
			return nil, err
		}
		return &cNumAgg{fn: c.Fn, args: args, scratch: make([]float64, 0, len(args))}, nil
	case "abs":
		x, err := compileNum(c.Args[0], m)
		if err != nil {
			return nil, err
		}
		return &cAbs{x: x}, nil
	case "dist":
		a, err := compileLoc(c.Args[0], m)
		if err != nil {
			return nil, err
		}
		b, err := compileLoc(c.Args[1], m)
		if err != nil {
			return nil, err
		}
		return &cDist{a: a, b: b}, nil
	case "duration":
		t, err := compileTime(c.Args[0], m)
		if err != nil {
			return nil, err
		}
		return &cDuration{t: t}, nil
	case "area":
		l, err := compileLoc(c.Args[0], m)
		if err != nil {
			return nil, err
		}
		return &cArea{l: l}, nil
	default:
		return nil, fmt.Errorf("%q as num: %w", c.Fn, ErrUnknownFunc)
	}
}

// compileTime compiles a temporal term, constant-folding role-free terms.
func compileTime(t Term, m *SlotMap) (ctime, error) {
	c, err := compileTimeNode(t, m)
	if err != nil || len(termRoles(t)) > 0 {
		return c, err
	}
	if v, err := c.time(nil); err == nil {
		return &cTimeLit{t: v}, nil
	}
	return c, nil
}

func compileTimeNode(t Term, m *SlotMap) (ctime, error) {
	switch v := t.(type) {
	case TimeLit:
		return &cTimeLit{t: v.T}, nil
	case TimeRef:
		slot, err := resolveSlot(m, v.Role)
		if err != nil {
			return nil, err
		}
		return &cTimeRef{slot: slot, role: v.Role, part: v.Part}, nil
	case TimeShift:
		base, err := compileTime(v.T, m)
		if err != nil {
			return nil, err
		}
		d, err := compileNum(v.D, m)
		if err != nil {
			return nil, err
		}
		return &cTimeShift{t: base, d: d, neg: v.Neg}, nil
	case Call:
		agg, ok := timemodel.Aggregation(v.Fn)
		if !ok {
			return nil, fmt.Errorf("%q as time: %w", v.Fn, ErrUnknownFunc)
		}
		args := make([]ctime, len(v.Args))
		for i, a := range v.Args {
			ca, err := compileTime(a, m)
			if err != nil {
				return nil, err
			}
			args[i] = ca
		}
		return &cTimeAgg{fn: v.Fn, agg: agg, args: args, scratch: make([]timemodel.Time, 0, len(args))}, nil
	default:
		return nil, fmt.Errorf("%s is not temporal: %w", t, ErrTypeMismatch)
	}
}

// compileLoc compiles a spatial term, constant-folding role-free terms.
func compileLoc(t Term, m *SlotMap) (cloc, error) {
	c, err := compileLocNode(t, m)
	if err != nil || len(termRoles(t)) > 0 {
		return c, err
	}
	if v, err := c.loc(nil); err == nil {
		return &cLocLit{l: v}, nil
	}
	return c, nil
}

func compileLocNode(t Term, m *SlotMap) (cloc, error) {
	switch v := t.(type) {
	case LocRef:
		slot, err := resolveSlot(m, v.Role)
		if err != nil {
			return nil, err
		}
		return &cLocRef{slot: slot, role: v.Role}, nil
	case Call:
		switch v.Fn {
		case "point", "rect", "circle":
			args, err := compileNumArgs(v.Args, m)
			if err != nil {
				return nil, err
			}
			return &cLocCtor{fn: v.Fn, args: args, scratch: make([]float64, 0, len(args))}, nil
		}
		agg, ok := spatial.Aggregation(v.Fn)
		if !ok {
			return nil, fmt.Errorf("%q as loc: %w", v.Fn, ErrUnknownFunc)
		}
		args := make([]cloc, len(v.Args))
		for i, a := range v.Args {
			ca, err := compileLoc(a, m)
			if err != nil {
				return nil, err
			}
			args[i] = ca
		}
		return &cLocAgg{fn: v.Fn, agg: agg, args: args, scratch: make([]spatial.Location, 0, len(args))}, nil
	default:
		return nil, fmt.Errorf("%s is not spatial: %w", t, ErrTypeMismatch)
	}
}

func compileNumArgs(args []Term, m *SlotMap) ([]cnum, error) {
	out := make([]cnum, len(args))
	for i, a := range args {
		ca, err := compileNum(a, m)
		if err != nil {
			return nil, err
		}
		out[i] = ca
	}
	return out, nil
}
