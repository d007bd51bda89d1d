package condition

import (
	"fmt"
	"sort"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Expr is a composite event condition (Eq. 4.5): a tree of attribute-based,
// temporal and spatial conditions combined with the logical operators AND,
// OR, NOT.
//
// Evaluation goes through Compile, which resolves roles to slots.
type Expr interface {
	// Roles reports all role names referenced by the condition.
	Roles() []string
	// String renders the condition in the condition language; the output
	// parses back to an equivalent condition.
	String() string
}

// And is the logical conjunction of two conditions.
type And struct {
	// L and R are the operands.
	L, R Expr
}

// Roles implements Expr.
func (a And) Roles() []string { return mergeRoles(a.L.Roles(), a.R.Roles()) }

// String implements Expr.
func (a And) String() string {
	return fmt.Sprintf("(%s and %s)", a.L, a.R)
}

// Or is the logical disjunction of two conditions.
type Or struct {
	// L and R are the operands.
	L, R Expr
}

// Roles implements Expr.
func (o Or) Roles() []string { return mergeRoles(o.L.Roles(), o.R.Roles()) }

// String implements Expr.
func (o Or) String() string {
	return fmt.Sprintf("(%s or %s)", o.L, o.R)
}

// Not is the logical negation of a condition.
type Not struct {
	// X is the negated condition.
	X Expr
}

// Roles implements Expr.
func (n Not) Roles() []string { return n.X.Roles() }

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(not %s)", n.X) }

// CmpNum is an attribute-based event condition g_v[..] OP_R C (Eq. 4.2).
// Both sides are numeric terms, so both the paper's constant form
// (avg(x.v, y.v) > 5) and entity-to-entity comparisons are expressible.
type CmpNum struct {
	// L and R are the numeric operands.
	L, R Term
	// Op is the relational operator.
	Op RelOp
}

// Roles implements Expr.
func (c CmpNum) Roles() []string { return mergeRoles(termRoles(c.L), termRoles(c.R)) }

// String implements Expr.
func (c CmpNum) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// CmpTime is a temporal event condition g_t[..] OP_T C_t (Eq. 4.3).
type CmpTime struct {
	// L and R are the temporal operands.
	L, R Term
	// Op is the temporal operator.
	Op timemodel.Operator
}

// Roles implements Expr.
func (c CmpTime) Roles() []string { return mergeRoles(termRoles(c.L), termRoles(c.R)) }

// String implements Expr.
func (c CmpTime) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// CmpLoc is a spatial event condition g_s[..] OP_S C_s (Eq. 4.4).
type CmpLoc struct {
	// L and R are the spatial operands.
	L, R Term
	// Op is the spatial operator.
	Op spatial.Operator
}

// Roles implements Expr.
func (c CmpLoc) Roles() []string { return mergeRoles(termRoles(c.L), termRoles(c.R)) }

// String implements Expr.
func (c CmpLoc) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// BoolLit is a constant condition; "true" is useful as a neutral element
// when composing conditions programmatically.
type BoolLit struct {
	// V is the constant truth value.
	V bool
}

// Roles implements Expr.
func (BoolLit) Roles() []string { return nil }

// String implements Expr.
func (l BoolLit) String() string {
	if l.V {
		return "true"
	}
	return "false"
}

// termRoles extracts role references from a term.
func termRoles(t Term) []string {
	switch v := t.(type) {
	case AttrRef:
		return []string{v.Role}
	case TimeRef:
		return []string{v.Role}
	case LocRef:
		return []string{v.Role}
	case TimeShift:
		return mergeRoles(termRoles(v.T), termRoles(v.D))
	case NumArith:
		return mergeRoles(termRoles(v.L), termRoles(v.R))
	case Call:
		var out []string
		for _, a := range v.Args {
			out = mergeRoles(out, termRoles(a))
		}
		return out
	default:
		return nil
	}
}

// mergeRoles merges two role lists, deduplicated and sorted.
func mergeRoles(a, b []string) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	for _, r := range a {
		seen[r] = struct{}{}
	}
	for _, r := range b {
		seen[r] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Compile-time interface checks.
var (
	_ Expr = And{}
	_ Expr = Or{}
	_ Expr = Not{}
	_ Expr = CmpNum{}
	_ Expr = CmpTime{}
	_ Expr = CmpLoc{}
	_ Expr = BoolLit{}
)
