package spatial

import (
	"errors"
	"fmt"
	"math"
)

// Validation errors for fields.
var (
	// ErrDegenerateField is returned when a field has fewer than three
	// vertices or (numerically) zero area.
	ErrDegenerateField = errors.New("spatial: degenerate field")
	// ErrSelfIntersecting is returned when a field's boundary crosses
	// itself.
	ErrSelfIntersecting = errors.New("spatial: self-intersecting field")
)

// Field is a location field — the polytope of the paper's spatial model
// (Section 4.2, Field Event). It is a simple polygon stored as a ring of
// vertices without a closing duplicate. Fields are immutable after
// construction: accessor methods copy state where needed.
type Field struct {
	ring []Point
	bbox rect
}

// rect is an axis-aligned bounding box used internally for fast rejection.
type rect struct {
	minX, minY, maxX, maxY float64
}

func (r rect) contains(p Point) bool {
	return p.X >= r.minX-Epsilon && p.X <= r.maxX+Epsilon &&
		p.Y >= r.minY-Epsilon && p.Y <= r.maxY+Epsilon
}

func (r rect) intersects(o rect) bool {
	return r.minX <= o.maxX+Epsilon && o.minX <= r.maxX+Epsilon &&
		r.minY <= o.maxY+Epsilon && o.minY <= r.maxY+Epsilon
}

func boundsOf(ring []Point) rect {
	r := rect{
		minX: math.Inf(1), minY: math.Inf(1),
		maxX: math.Inf(-1), maxY: math.Inf(-1),
	}
	for _, p := range ring {
		r.minX = math.Min(r.minX, p.X)
		r.minY = math.Min(r.minY, p.Y)
		r.maxX = math.Max(r.maxX, p.X)
		r.maxY = math.Max(r.maxY, p.Y)
	}
	return r
}

// NewField constructs a field from a vertex ring. The ring must have at
// least three vertices, enclose a non-zero area, and must not
// self-intersect. The input slice is copied.
func NewField(ring []Point) (Field, error) {
	if len(ring) < 3 {
		return Field{}, fmt.Errorf("%d vertices: %w", len(ring), ErrDegenerateField)
	}
	own := make([]Point, len(ring))
	copy(own, ring)
	return ownField(own)
}

// ownField validates a ring of at least three vertices and builds the
// field on it without copying.
func ownField(ring []Point) (Field, error) {
	f := Field{ring: ring, bbox: boundsOf(ring)}
	if f.selfIntersects() {
		return Field{}, ErrSelfIntersecting
	}
	if math.Abs(f.SignedArea()) <= Epsilon {
		return Field{}, fmt.Errorf("zero area: %w", ErrDegenerateField)
	}
	return f, nil
}

// MustField is like NewField but panics on invalid input. It is intended
// for literals in tests and examples.
func MustField(ring ...Point) Field {
	f, err := NewField(ring)
	if err != nil {
		panic(err)
	}
	return f
}

// Rect returns the rectangular field with opposite corners (x1,y1), (x2,y2).
func Rect(x1, y1, x2, y2 float64) (Field, error) {
	loc, err := RectLocation(x1, y1, x2, y2)
	f, _ := loc.Field()
	return f, err
}

// RectLocation returns InField of Rect(x1, y1, x2, y2) in one allocation,
// which the field and its four vertices share: the detection planner
// builds one per spatial probe.
func RectLocation(x1, y1, x2, y2 float64) (Location, error) {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	b := &struct {
		f    Field
		ring [4]Point
	}{ring: [4]Point{{X: x1, Y: y1}, {X: x2, Y: y1}, {X: x2, Y: y2}, {X: x1, Y: y2}}}
	f, err := ownField(b.ring[:])
	if err != nil {
		return Location{}, err
	}
	b.f = f
	return Location{kind: KindField, field: &b.f}, nil
}

// Circle returns a regular n-gon approximation of the circle with the given
// center and radius. n must be at least 3; radius must be positive.
func Circle(center Point, radius float64, n int) (Field, error) {
	if n < 3 {
		return Field{}, fmt.Errorf("circle with %d segments: %w", n, ErrDegenerateField)
	}
	if radius <= 0 {
		return Field{}, fmt.Errorf("circle with radius %g: %w", radius, ErrDegenerateField)
	}
	ring := make([]Point, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = Point{
			X: center.X + radius*math.Cos(a),
			Y: center.Y + radius*math.Sin(a),
		}
	}
	return NewField(ring)
}

// Vertices returns a copy of the field's vertex ring.
func (f Field) Vertices() []Point {
	out := make([]Point, len(f.ring))
	copy(out, f.ring)
	return out
}

// NumVertices returns the number of vertices in the ring.
func (f Field) NumVertices() int { return len(f.ring) }

// SignedArea returns the shoelace signed area: positive for
// counter-clockwise rings.
func (f Field) SignedArea() float64 {
	var sum float64
	n := len(f.ring)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += f.ring[i].Cross(f.ring[j])
	}
	return sum / 2
}

// Area returns the enclosed area of the field.
func (f Field) Area() float64 { return math.Abs(f.SignedArea()) }

// Perimeter returns the total boundary length.
func (f Field) Perimeter() float64 {
	var sum float64
	n := len(f.ring)
	for i := 0; i < n; i++ {
		sum += f.ring[i].Dist(f.ring[(i+1)%n])
	}
	return sum
}

// Centroid returns the area centroid of the field.
func (f Field) Centroid() Point {
	var cx, cy, a float64
	n := len(f.ring)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		cr := f.ring[i].Cross(f.ring[j])
		cx += (f.ring[i].X + f.ring[j].X) * cr
		cy += (f.ring[i].Y + f.ring[j].Y) * cr
		a += cr
	}
	if math.Abs(a) <= Epsilon {
		// Fall back to the vertex mean for (near) degenerate rings.
		var sx, sy float64
		for _, p := range f.ring {
			sx += p.X
			sy += p.Y
		}
		return Point{X: sx / float64(n), Y: sy / float64(n)}
	}
	return Point{X: cx / (3 * a), Y: cy / (3 * a)}
}

// ContainsPoint reports whether p is inside the field or on its boundary,
// using ray casting with an explicit boundary test. Boundary points count
// as inside, matching the paper's Inside operator semantics.
func (f Field) ContainsPoint(p Point) bool {
	if !f.bbox.contains(p) {
		return false
	}
	n := len(f.ring)
	for i := 0; i < n; i++ {
		a, b := f.ring[i], f.ring[(i+1)%n]
		if orientation(a, b, p) == 0 && onSegment(p, a, b) {
			return true
		}
	}
	inside := false
	for i := 0; i < n; i++ {
		a, b := f.ring[i], f.ring[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			x := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if x > p.X {
				inside = !inside
			}
		}
	}
	return inside
}

// ContainsField reports whether every point of g lies within f. For simple
// polygons this holds when every vertex of g is inside f and no boundary
// edges properly cross.
func (f Field) ContainsField(g Field) bool {
	if !f.bbox.intersects(g.bbox) {
		return false
	}
	for _, v := range g.ring {
		if !f.ContainsPoint(v) {
			return false
		}
	}
	return !f.edgesProperlyCross(g)
}

// IntersectsField reports whether f and g share at least one point
// (boundary touch counts), implementing the paper's Joint operator for the
// field-with-field relation family.
func (f Field) IntersectsField(g Field) bool {
	if !f.bbox.intersects(g.bbox) {
		return false
	}
	n, m := len(f.ring), len(g.ring)
	for i := 0; i < n; i++ {
		a1, a2 := f.ring[i], f.ring[(i+1)%n]
		for j := 0; j < m; j++ {
			if SegmentsIntersect(a1, a2, g.ring[j], g.ring[(j+1)%m]) {
				return true
			}
		}
	}
	// No boundary intersection: one may still contain the other entirely.
	return f.ContainsPoint(g.ring[0]) || g.ContainsPoint(f.ring[0])
}

// DistToPoint returns 0 if p is inside the field, otherwise the minimum
// distance from p to the field boundary.
func (f Field) DistToPoint(p Point) float64 {
	if f.ContainsPoint(p) {
		return 0
	}
	d := math.Inf(1)
	n := len(f.ring)
	for i := 0; i < n; i++ {
		if v := DistPointSegment(p, f.ring[i], f.ring[(i+1)%n]); v < d {
			d = v
		}
	}
	return d
}

// DistToField returns 0 if the fields intersect, otherwise the minimum
// distance between their boundaries.
func (f Field) DistToField(g Field) float64 {
	if f.IntersectsField(g) {
		return 0
	}
	d := math.Inf(1)
	n, m := len(f.ring), len(g.ring)
	for i := 0; i < n; i++ {
		a1, a2 := f.ring[i], f.ring[(i+1)%n]
		for j := 0; j < m; j++ {
			if v := distSegments(a1, a2, g.ring[j], g.ring[(j+1)%m]); v < d {
				d = v
			}
		}
	}
	return d
}

// Equal reports whether two fields have identical rings up to rotation and
// direction, within Epsilon per coordinate.
func (f Field) Equal(g Field) bool {
	n := len(f.ring)
	if n != len(g.ring) {
		return false
	}
	matchFrom := func(offset int, reversed bool) bool {
		for i := 0; i < n; i++ {
			j := (offset + i) % n
			if reversed {
				j = ((offset-i)%n + n) % n
			}
			if !f.ring[i].Equal(g.ring[j]) {
				return false
			}
		}
		return true
	}
	for off := 0; off < n; off++ {
		if matchFrom(off, false) || matchFrom(off, true) {
			return true
		}
	}
	return false
}

// edgesProperlyCross reports whether any boundary edge of f properly
// crosses a boundary edge of g (shared endpoints and collinear touching do
// not count).
func (f Field) edgesProperlyCross(g Field) bool {
	n, m := len(f.ring), len(g.ring)
	for i := 0; i < n; i++ {
		a1, a2 := f.ring[i], f.ring[(i+1)%n]
		for j := 0; j < m; j++ {
			b1, b2 := g.ring[j], g.ring[(j+1)%m]
			o1 := orientation(a1, a2, b1)
			o2 := orientation(a1, a2, b2)
			o3 := orientation(b1, b2, a1)
			o4 := orientation(b1, b2, a2)
			if ((o1 > 0 && o2 < 0) || (o1 < 0 && o2 > 0)) &&
				((o3 > 0 && o4 < 0) || (o3 < 0 && o4 > 0)) {
				return true
			}
		}
	}
	return false
}

// selfIntersects reports whether any two non-adjacent boundary edges share
// a point.
func (f Field) selfIntersects() bool {
	n := len(f.ring)
	for i := 0; i < n; i++ {
		a1, a2 := f.ring[i], f.ring[(i+1)%n]
		for j := i + 1; j < n; j++ {
			// Skip adjacent edges (they share an endpoint by construction).
			if j == i || (j+1)%n == i || (i+1)%n == j {
				continue
			}
			if SegmentsIntersect(a1, a2, f.ring[j], f.ring[(j+1)%n]) {
				return true
			}
		}
	}
	return false
}

// String renders the field as "field((x1 y1),(x2 y2),...)".
func (f Field) String() string {
	s := "field("
	for i, p := range f.ring {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("(%g %g)", p.X, p.Y)
	}
	return s + ")"
}
