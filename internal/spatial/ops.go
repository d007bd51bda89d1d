package spatial

import "fmt"

// Operator is a spatial operator OP_S from the paper's spatial event
// conditions (Eq. 4.4): "Inside, Outside, Joint", the point-with-point
// relation "Equal to" from Section 4.2, and Covers (the converse of Inside)
// for symmetry of the relation families.
type Operator int

// Spatial operators of the event condition language.
const (
	// OpInside: the left location lies entirely within the right one.
	OpInside Operator = iota + 1
	// OpOutside: the locations share no points.
	OpOutside
	// OpJoint: the locations share at least one point.
	OpJoint
	// OpEqualS: the locations are identical (within Epsilon).
	OpEqualS
	// OpCovers: the left location entirely contains the right one
	// (converse of Inside).
	OpCovers
)

var spatialOperatorNames = map[Operator]string{
	OpInside:  "inside",
	OpOutside: "outside",
	OpJoint:   "joint",
	OpEqualS:  "equal",
	OpCovers:  "covers",
}

// String returns the operator keyword used by the condition language.
func (op Operator) String() string {
	if s, ok := spatialOperatorNames[op]; ok {
		return s
	}
	return fmt.Sprintf("Operator(%d)", int(op))
}

// ParseOperator maps a condition-language keyword to its spatial Operator.
func ParseOperator(s string) (Operator, bool) {
	for op, name := range spatialOperatorNames {
		if name == s {
			return op, true
		}
	}
	return 0, false
}

// Apply evaluates the operator on the location pair (a, b), dispatching on
// the paper's three spatial relation families: point-with-point,
// point-with-field, and field-with-field (Section 4.2).
func (op Operator) Apply(a, b Location) bool {
	switch op {
	case OpInside:
		return inside(a, b)
	case OpOutside:
		return !joint(a, b)
	case OpJoint:
		return joint(a, b)
	case OpEqualS:
		return equalLoc(a, b)
	case OpCovers:
		return inside(b, a)
	default:
		return false
	}
}

// inside reports whether a lies entirely within b.
func inside(a, b Location) bool {
	switch {
	case a.IsPoint() && b.IsPoint():
		return a.point.Equal(b.point)
	case a.IsPoint() && b.IsField():
		return b.field.ContainsPoint(a.point)
	case a.IsField() && b.IsPoint():
		return false // a field can never fit inside a point
	default:
		return b.field.ContainsField(*a.field)
	}
}

// joint reports whether a and b share at least one point.
func joint(a, b Location) bool {
	switch {
	case a.IsPoint() && b.IsPoint():
		return a.point.Equal(b.point)
	case a.IsPoint() && b.IsField():
		return b.field.ContainsPoint(a.point)
	case a.IsField() && b.IsPoint():
		return a.field.ContainsPoint(b.point)
	default:
		return a.field.IntersectsField(*b.field)
	}
}

// equalLoc reports whether a and b denote the same location.
func equalLoc(a, b Location) bool {
	switch {
	case a.IsPoint() && b.IsPoint():
		return a.point.Equal(b.point)
	case a.IsField() && b.IsField():
		return a.field.Equal(*b.field)
	default:
		return false
	}
}

// Dist returns the minimum Euclidean distance between two locations: zero
// when they share a point. This is the g_distance aggregation from the
// paper's S1 example (Section 4.1).
func Dist(a, b Location) float64 {
	switch {
	case a.IsPoint() && b.IsPoint():
		return a.point.Dist(b.point)
	case a.IsPoint() && b.IsField():
		return b.field.DistToPoint(a.point)
	case a.IsField() && b.IsPoint():
		return a.field.DistToPoint(b.point)
	default:
		return a.field.DistToField(*b.field)
	}
}

// SpatialFamily identifies which of the paper's three spatial relation
// families a pair of locations belongs to (Section 4.2).
type SpatialFamily int

// Spatial relation families.
const (
	// PointPoint relates two point events (e.g. Equal to).
	PointPoint SpatialFamily = iota + 1
	// PointField relates a point and a field event (e.g. Inside, Outside).
	PointField
	// FieldField relates two field events (e.g. Joint).
	FieldField
)

// String returns a readable family name.
func (f SpatialFamily) String() string {
	switch f {
	case PointPoint:
		return "point-point"
	case PointField:
		return "point-field"
	case FieldField:
		return "field-field"
	default:
		return fmt.Sprintf("SpatialFamily(%d)", int(f))
	}
}

// FamilyOf classifies the location pair into its spatial relation family.
func FamilyOf(a, b Location) SpatialFamily {
	switch {
	case a.IsPoint() && b.IsPoint():
		return PointPoint
	case a.IsField() && b.IsField():
		return FieldField
	default:
		return PointField
	}
}
