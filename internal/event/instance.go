package event

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/stcps/stcps/internal/jsonenc"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Validation errors for instances.
var (
	// ErrConfidenceRange is returned when a confidence ρ falls outside
	// [0, 1].
	ErrConfidenceRange = errors.New("event: confidence outside [0,1]")
	// ErrMissingObserver is returned when an instance has no observer id.
	ErrMissingObserver = errors.New("event: missing observer id")
	// ErrMissingEventID is returned when an instance has no event id.
	ErrMissingEventID = errors.New("event: missing event id")
	// ErrBadLayer is returned when an instance carries a layer at which
	// observers do not generate instances.
	ErrBadLayer = errors.New("event: layer does not generate instances")
)

// Instance is an event instance E(OB_id, E_id, i) (Def. 4.4): the result of
// an observer evaluating event conditions. Beyond the three event
// properties, the instance carries the observer-related 6-tuple of Eq. 4.7:
// generation time t^g and location l^g, estimated occurrence time t^eo and
// location l^eo, attributes V, and the observer's confidence ρ.
//
// Instances are produced at three layers (Fig. 2): sensor events by motes
// (Eq. 5.3), cyber-physical events by sink nodes (Eq. 5.4), and cyber
// events by CCUs (Eq. 5.5). The Inputs field preserves the provenance the
// paper requires ("keeping the information regarding the original physical
// event intact"): it lists the entity IDs the observer evaluated.
type Instance struct {
	// Layer is the hierarchy level of this instance: LayerSensor,
	// LayerCyberPhysical or LayerCyber.
	Layer Layer `json:"layer"`
	// Observer is the observer identifier OB_id (mote, sink, or CCU).
	Observer string `json:"observer"`
	// Event is the event identifier E_id this instance belongs to.
	Event string `json:"event"`
	// Seq is the instance sequence number i at this observer.
	Seq uint64 `json:"seq"`
	// Gen is the generation time t^g: when the observer created the
	// instance. Always a single tick.
	Gen timemodel.Tick `json:"gen"`
	// GenLoc is the generation location l^g: where the observer was.
	GenLoc spatial.Location `json:"genLoc"`
	// Occ is the estimated event occurrence time t^eo from the view of
	// the observer — punctual or interval.
	Occ timemodel.Time `json:"occ"`
	// Loc is the estimated event occurrence location l^eo — point or
	// field.
	Loc spatial.Location `json:"loc"`
	// Attrs is the estimated attribute set V.
	Attrs Attrs `json:"attrs,omitempty"`
	// Confidence is the observer's confidence ρ in [0, 1].
	Confidence float64 `json:"confidence"`
	// Inputs lists the entity IDs this instance was derived from
	// (observations or lower-layer instances), in evaluation order.
	Inputs []string `json:"inputs,omitempty"`
}

// Validate checks the structural invariants of an instance.
func (in Instance) Validate() error {
	return checkInstance(in.Layer, len(in.Observer), len(in.Event), in.Confidence)
}

// checkInstance is Validate over the fields the wire walk yields.
func checkInstance(layer Layer, observerLen, eventLen int, confidence float64) error {
	switch layer {
	case LayerSensor, LayerCyberPhysical, LayerCyber:
	default:
		return fmt.Errorf("%v: %w", layer, ErrBadLayer) //stcps:ignore hotpath error path rejects the record
	}
	if observerLen == 0 {
		return ErrMissingObserver
	}
	if eventLen == 0 {
		return ErrMissingEventID
	}
	if confidence < 0 || confidence > 1 {
		return fmt.Errorf("ρ=%g: %w", confidence, ErrConfidenceRange) //stcps:ignore hotpath error path rejects the record
	}
	return nil
}

// ValidateWire is Validate plus the binary codec's bounds: it returns
// ErrWireBounds for an instance larger than a record may carry (a
// string over 64 KiB, over 4,096 attributes or 64 Ki inputs, a ring
// over 64 Ki vertices), whose record would encode but never decode.
func (in *Instance) ValidateWire() error {
	if err := in.Validate(); err != nil {
		return err
	}
	over := len(in.Observer) > maxWireString || len(in.Event) > maxWireString ||
		len(in.Attrs) > maxWireAttrs || len(in.Inputs) > maxWireInputs ||
		vertices(in.GenLoc) > maxWireVerts || vertices(in.Loc) > maxWireVerts
	for name := range in.Attrs {
		over = over || len(name) > maxWireString
	}
	for _, id := range in.Inputs {
		over = over || len(id) > maxWireString
	}
	if over {
		return ErrWireBounds
	}
	return nil
}

// vertices is the ring size of a field location, 0 for a point.
func vertices(l spatial.Location) int {
	f, _ := l.Field()
	return f.NumVertices()
}

// EntityID implements Entity using the paper's E(OB,E,i) notation.
func (in Instance) EntityID() string {
	return entityID('E', in.Observer, in.Event, in.Seq)
}

// AppendJSON appends the instance's JSON wire form, byte-identical to
// encoding/json's rendering of the struct tags above. It is the one
// instance encoder: EncodeInstance and MarshalJSON (hence stdout, SSE,
// query pages and snapshots) all go through it. On error (a NaN or
// infinite float) the returned slice holds a partial encoding the
// caller must discard.
//
//stcps:hotpath
func (in *Instance) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"layer":`...)
	dst = strconv.AppendInt(dst, int64(in.Layer), 10)
	dst = append(dst, `,"observer":`...)
	dst = jsonenc.AppendString(dst, in.Observer)
	dst = append(dst, `,"event":`...)
	dst = jsonenc.AppendString(dst, in.Event)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, in.Seq, 10)
	dst = append(dst, `,"gen":`...)
	dst = strconv.AppendInt(dst, int64(in.Gen), 10)
	dst = append(dst, `,"genLoc":`...)
	dst, err := in.GenLoc.AppendJSON(dst)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"occ":`...)
	dst = in.Occ.AppendJSON(dst)
	dst = append(dst, `,"loc":`...)
	if dst, err = in.Loc.AppendJSON(dst); err != nil {
		return dst, err
	}
	if len(in.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		if dst, err = in.Attrs.appendJSON(dst); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"confidence":`...)
	if dst, err = jsonenc.AppendFloat(dst, in.Confidence); err != nil {
		return dst, err
	}
	for i, inp := range in.Inputs {
		if i == 0 {
			dst = append(dst, `,"inputs":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, inp)
	}
	if len(in.Inputs) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// MarshalJSON encodes the instance through AppendJSON.
func (in Instance) MarshalJSON() ([]byte, error) {
	return in.AppendJSON(make([]byte, 0, jsonSizeHint))
}

// ContentKey identifies an instance by detection content rather than
// entity id: the detected event, its generation tick, its occurrence
// bounds and the input entity ids it bound. Two independent derivations
// of the same detection share a content key even when their observers
// assigned different sequence numbers — the WAL recovery path uses it to
// deduplicate re-derived emissions against durable storage.
func (in *Instance) ContentKey() string {
	var sb strings.Builder
	sb.Grow(64)
	fmt.Fprintf(&sb, "%s|%d|%d|%d|", in.Event, in.Gen, in.Occ.Start(), in.Occ.End())
	for i, inp := range in.Inputs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(inp)
	}
	return sb.String()
}

// OccTime implements Entity: conditions constrain the *estimated*
// occurrence time, not the generation time.
func (in Instance) OccTime() timemodel.Time { return in.Occ }

// OccLoc implements Entity.
func (in Instance) OccLoc() spatial.Location { return in.Loc }

// Attr implements Entity.
func (in Instance) Attr(name string) (float64, bool) {
	v, ok := in.Attrs[name]
	return v, ok
}

// TemporalClass returns the punctual/interval classification of the
// estimated occurrence.
func (in Instance) TemporalClass() TemporalClass { return TemporalClassOf(in.Occ) }

// SpatialClass returns the point/field classification of the estimated
// occurrence location.
func (in Instance) SpatialClass() SpatialClass { return SpatialClassOf(in.Loc) }

// DetectionLatency returns the event detection latency of this instance:
// the delay between the (estimated) end of the event occurrence and the
// instance's generation — the EDL quantity the paper names as future work
// (Section 6). Negative values indicate clock or estimation skew.
func (in Instance) DetectionLatency() timemodel.Tick {
	return in.Gen - in.Occ.End()
}

var _ Entity = Instance{}
