package spatial

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/stcps/stcps/internal/jsonenc"
)

// Kind distinguishes the two spatial classifications of the paper
// (Section 4.2): point events and field events.
type Kind int

// Location kinds.
const (
	// KindPoint marks a Point Event location: a single (x, y).
	KindPoint Kind = iota + 1
	// KindField marks a Field Event location: a polytope.
	KindField
)

// String returns "point" or "field".
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindField:
		return "field"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrUnknownLocationKind is returned when decoding a location with an
// unrecognized kind tag.
var ErrUnknownLocationKind = errors.New("spatial: unknown location kind")

// Location is an event occurrence location: either a point or a field.
// The zero value is the point (0, 0). A field location keeps its polygon
// behind a pointer, so a Location is 32 bytes: Fields are immutable once
// built, and copies of a Location share one.
type Location struct {
	kind  Kind
	point Point
	field *Field
}

// AtPoint returns the point location (x, y).
func AtPoint(x, y float64) Location {
	return Location{kind: KindPoint, point: Point{X: x, Y: y}}
}

// AtPt returns the point location for p.
func AtPt(p Point) Location {
	return Location{kind: KindPoint, point: p}
}

// InField returns the field location for f.
func InField(f Field) Location {
	return Location{kind: KindField, field: &f}
}

// Kind returns the spatial classification of the location. The zero
// Location is a point.
func (l Location) Kind() Kind {
	if l.kind == 0 {
		return KindPoint
	}
	return l.kind
}

// IsPoint reports whether the location is a point (Point Event).
func (l Location) IsPoint() bool { return l.Kind() == KindPoint }

// IsField reports whether the location is a field (Field Event).
func (l Location) IsField() bool { return l.Kind() == KindField }

// Point returns the location point. For field locations it returns the
// field centroid, the conventional point estimate of a field occurrence.
func (l Location) Point() Point {
	if l.IsField() {
		return l.field.Centroid()
	}
	return l.point
}

// Field returns the location field and true, or the zero Field and false
// for point locations.
func (l Location) Field() (Field, bool) {
	if l.IsField() {
		return *l.field, true
	}
	return Field{}, false
}

// Centroid returns the representative point of the location: the point
// itself, or the field centroid.
func (l Location) Centroid() Point { return l.Point() }

// Bounds returns the axis-aligned bounding box of the location. For a
// point location all four values collapse onto its coordinates.
func (l Location) Bounds() (minX, minY, maxX, maxY float64) {
	b := bboxOf(&l)
	return b.minX, b.minY, b.maxX, b.maxY
}

// String renders the location: "point(x y)" or the field form.
func (l Location) String() string {
	if l.IsField() {
		return l.field.String()
	}
	return fmt.Sprintf("point(%g %g)", l.point.X, l.point.Y)
}

// locationJSON is the wire form of a Location, as UnmarshalJSON reads it.
type locationJSON struct {
	Kind string       `json:"kind"`
	X    float64      `json:"x,omitempty"`
	Y    float64      `json:"y,omitempty"`
	Ring [][2]float64 `json:"ring,omitempty"`
}

// AppendJSON appends the location as a tagged JSON object:
// {"kind":"point","x":x,"y":y} with zero coordinates omitted, or
// {"kind":"field","ring":[[x,y],...]}. A NaN or infinite coordinate
// fails with jsonenc.ErrUnsupportedFloat.
//
//stcps:hotpath
func (l Location) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	if l.IsField() {
		dst = append(dst, `{"kind":"field"`...)
		for i, p := range l.field.ring {
			if i == 0 {
				dst = append(dst, `,"ring":[[`...)
			} else {
				dst = append(dst, `,[`...)
			}
			if dst, err = jsonenc.AppendFloat(dst, p.X); err != nil {
				return dst, err
			}
			dst = append(dst, ',')
			if dst, err = jsonenc.AppendFloat(dst, p.Y); err != nil {
				return dst, err
			}
			dst = append(dst, ']')
		}
		if len(l.field.ring) > 0 {
			dst = append(dst, ']')
		}
		return append(dst, '}'), nil
	}
	dst = append(dst, `{"kind":"point"`...)
	if l.point.X != 0 {
		dst = append(dst, `,"x":`...)
		if dst, err = jsonenc.AppendFloat(dst, l.point.X); err != nil {
			return dst, err
		}
	}
	if l.point.Y != 0 {
		dst = append(dst, `,"y":`...)
		if dst, err = jsonenc.AppendFloat(dst, l.point.Y); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON encodes the location through AppendJSON.
func (l Location) MarshalJSON() ([]byte, error) {
	return l.AppendJSON(make([]byte, 0, 64))
}

// UnmarshalJSON decodes a location from its tagged JSON object.
func (l *Location) UnmarshalJSON(data []byte) error {
	var w locationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("spatial: decode location: %w", err)
	}
	switch w.Kind {
	case "point":
		*l = AtPoint(w.X, w.Y)
		return nil
	case "field":
		ring := make([]Point, len(w.Ring))
		for i, xy := range w.Ring {
			ring[i] = Point{X: xy[0], Y: xy[1]}
		}
		f, err := NewField(ring)
		if err != nil {
			return fmt.Errorf("spatial: decode location: %w", err)
		}
		*l = InField(f)
		return nil
	default:
		return fmt.Errorf("%q: %w", w.Kind, ErrUnknownLocationKind)
	}
}
