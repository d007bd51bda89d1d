// Package event implements the spatio-temporal CPS event concept of
// Tan, Vuran, Goddard (ICDCSW 2009), Sections 4 and 5.
//
// The paper distinguishes two meanings of "event": occurrences in the
// physical world, and their representations inside the computer system.
// This package models both. A PhysicalEvent is a ground-truth occurrence
// P_id{t°, l°, V} (Eq. 5.1). An Observation is a sensor snapshot
// O(MT,SR,i){t°, l°, V} of a physical event (Eq. 5.2). An Instance is the
// output of an observer that evaluated event conditions — the 6-tuple
// {t^g, l^g, t^eo, l^eo, V, ρ} of Definition 4.4 — at one of the model's
// layers: sensor event, cyber-physical event, or cyber event (Fig. 2).
//
// Every entity that can feed an event condition (observations and
// instances alike) implements the Entity interface, which is what the
// condition package evaluates over.
package event

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"github.com/stcps/stcps/internal/jsonenc"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Layer identifies a level of the CPS event model hierarchy (Fig. 2).
type Layer int

// The five layers of the event model, bottom-up.
const (
	// LayerPhysical holds physical events: real occurrences in the
	// physical world.
	LayerPhysical Layer = iota + 1
	// LayerObservation holds physical observations: sensor snapshots of
	// physical events.
	LayerObservation
	// LayerSensor holds sensor events generated by sensor motes — the
	// first level of observers.
	LayerSensor
	// LayerCyberPhysical holds cyber-physical events generated by WSN
	// sink nodes — the second level of observers.
	LayerCyberPhysical
	// LayerCyber holds cyber events generated by CPS control units — the
	// highest level of observers.
	LayerCyber
)

var layerNames = map[Layer]string{
	LayerPhysical:      "physical",
	LayerObservation:   "observation",
	LayerSensor:        "sensor",
	LayerCyberPhysical: "cyber-physical",
	LayerCyber:         "cyber",
}

// String returns the layer name used in logs and reports.
func (l Layer) String() string {
	if s, ok := layerNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Next returns the layer above l in the hierarchy, or l itself when l is
// already the top (cyber) layer.
func (l Layer) Next() Layer {
	if l >= LayerCyber || l < LayerPhysical {
		return l
	}
	return l + 1
}

// TemporalClass is the paper's temporal event classification (Section 4.2).
type TemporalClass int

// Temporal classes.
const (
	// Punctual events occur at a single time point.
	Punctual TemporalClass = iota + 1
	// Interval events occur over an interval marked by start and end
	// time points.
	Interval
)

// String returns "punctual" or "interval".
func (c TemporalClass) String() string {
	switch c {
	case Punctual:
		return "punctual"
	case Interval:
		return "interval"
	default:
		return fmt.Sprintf("TemporalClass(%d)", int(c))
	}
}

// TemporalClassOf classifies an occurrence time.
func TemporalClassOf(t timemodel.Time) TemporalClass {
	if t.IsPunctual() {
		return Punctual
	}
	return Interval
}

// SpatialClass is the paper's spatial event classification (Section 4.2).
type SpatialClass int

// Spatial classes.
const (
	// PointEvent events occur at a location point.
	PointEvent SpatialClass = iota + 1
	// FieldEvent events occur over a location field (polytope).
	FieldEvent
)

// String returns "point" or "field".
func (c SpatialClass) String() string {
	switch c {
	case PointEvent:
		return "point"
	case FieldEvent:
		return "field"
	default:
		return fmt.Sprintf("SpatialClass(%d)", int(c))
	}
}

// SpatialClassOf classifies an occurrence location.
func SpatialClassOf(l spatial.Location) SpatialClass {
	if l.IsField() {
		return FieldEvent
	}
	return PointEvent
}

// Attrs is the attribute set V of an event occurrence: named scalar
// measurements (temperature, range, luminance, ...).
type Attrs map[string]float64

// Clone returns an independent copy of the attribute set.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	out := make(Attrs, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Names returns the attribute names in sorted order.
func (a Attrs) Names() []string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// appendJSON appends the attribute set as a JSON object, names in
// ascending byte order — encoding/json's map order.
//
//stcps:hotpath
func (a Attrs) appendJSON(dst []byte) ([]byte, error) {
	var buf [8]string // attribute sets are small; larger ones spill to the heap
	names := buf[:0]
	for k := range a {
		names = append(names, k)
	}
	slices.Sort(names)
	dst = append(dst, '{')
	for i, k := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = jsonenc.AppendFloat(dst, a[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendEntityID appends the paper's entity notation K(a,b,i) — O for
// observations, E for instances — without going through fmt: ids are
// rendered on the ingest path.
//
//stcps:hotpath
func appendEntityID(dst []byte, kind byte, a, b string, seq uint64) []byte {
	dst = append(dst, kind, '(')
	dst = append(dst, a...)
	dst = append(dst, ',')
	dst = append(dst, b...)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, seq, 10)
	return append(dst, ')')
}

// entityID renders appendEntityID's notation as a string, one
// allocation for ids of up to 64 bytes.
func entityID(kind byte, a, b string, seq uint64) string {
	var buf [64]byte
	return string(appendEntityID(buf[:0], kind, a, b, seq))
}

// Entity is anything an event condition can constrain: "an entity in CPS
// can be a physical observation or an event instance" (Def. 4.2). The
// occurrence time and location exposed here are the entity's *estimated*
// occurrence values from the view of whichever observer produced it.
type Entity interface {
	// EntityID returns a unique identifier for this entity.
	EntityID() string
	// OccTime returns the (estimated) occurrence time.
	OccTime() timemodel.Time
	// OccLoc returns the (estimated) occurrence location.
	OccLoc() spatial.Location
	// Attr returns a named attribute value and whether it is present.
	Attr(name string) (float64, bool)
}

// PhysicalEvent is a ground-truth occurrence in the physical world,
// P_id{t°, l°, V} (Eq. 5.1). Physical events live at the physical event
// layer; the cyber side only ever sees them through observations. The
// simulator records them so detection accuracy and latency can be scored.
type PhysicalEvent struct {
	// ID is the physical event identifier P_id.
	ID string `json:"id"`
	// Time is the occurrence time t°.
	Time timemodel.Time `json:"time"`
	// Loc is the occurrence location l°.
	Loc spatial.Location `json:"loc"`
	// Attrs is the occurrence attribute set V.
	Attrs Attrs `json:"attrs,omitempty"`
}

// EntityID implements Entity.
func (p PhysicalEvent) EntityID() string { return p.ID }

// OccTime implements Entity.
func (p PhysicalEvent) OccTime() timemodel.Time { return p.Time }

// OccLoc implements Entity.
func (p PhysicalEvent) OccLoc() spatial.Location { return p.Loc }

// Attr implements Entity.
func (p PhysicalEvent) Attr(name string) (float64, bool) {
	v, ok := p.Attrs[name]
	return v, ok
}

// TemporalClass returns the punctual/interval classification of the event.
func (p PhysicalEvent) TemporalClass() TemporalClass { return TemporalClassOf(p.Time) }

// SpatialClass returns the point/field classification of the event.
func (p PhysicalEvent) SpatialClass() SpatialClass { return SpatialClassOf(p.Loc) }

var _ Entity = PhysicalEvent{}
