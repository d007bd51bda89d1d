package event

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// jsonSizeHint is the starting capacity of a one-shot JSON encoding: a
// two-input instance renders to some 350 bytes, so the common entity is
// encoded with a single allocation.
const jsonSizeHint = 512

// EncodeInstance serializes an instance to its JSON wire form. The wire
// form is what motes, sinks, CCUs and the database exchange over the CPS
// network.
func EncodeInstance(in Instance) ([]byte, error) {
	return AppendInstance(make([]byte, 0, jsonSizeHint), &in)
}

// AppendInstance is EncodeInstance into a caller-owned buffer: it
// validates the instance and appends its JSON wire form to dst. On
// error nothing is appended.
func AppendInstance(dst []byte, in *Instance) ([]byte, error) {
	err := in.Validate()
	if err == nil {
		var out []byte
		if out, err = in.AppendJSON(dst); err == nil {
			return out, nil
		}
	}
	return dst, fmt.Errorf("event: encode: %w", err)
}

// EntityKind classifies one JSONL feed line by the discriminating field
// it carries: instances have "event", observations have "sensor".
type EntityKind uint8

// JSONL feed line kinds.
const (
	// KindNeither marks a line carrying neither discriminator.
	KindNeither EntityKind = iota
	// KindInstance marks an event-instance line.
	KindInstance
	// KindObservation marks a raw-observation line.
	KindObservation
)

// entityJSON is the union of the Instance and Observation JSON shapes:
// the shared fields (seq, loc, attrs) carry the same name and type in
// both, so one decode pass recovers either entity.
type entityJSON struct {
	// Shared.
	Seq   uint64           `json:"seq"`
	Loc   spatial.Location `json:"loc"`
	Attrs Attrs            `json:"attrs"`
	// Instance.
	Layer      Layer            `json:"layer"`
	Observer   string           `json:"observer"`
	Event      string           `json:"event"`
	Gen        timemodel.Tick   `json:"gen"`
	GenLoc     spatial.Location `json:"genLoc"`
	Occ        timemodel.Time   `json:"occ"`
	Confidence float64          `json:"confidence"`
	Inputs     []string         `json:"inputs"`
	// Observation.
	Mote   string         `json:"mote"`
	Sensor string         `json:"sensor"`
	Time   timemodel.Time `json:"time"`
}

// DecodeEntityJSON parses one JSONL feed line in a single pass and
// dispatches on its discriminating field: a line with an "event" field
// is an Instance (validated), a line with a "sensor" field is an
// Observation, anything else is KindNeither. It replaces the
// probe-then-decode double parse on the feed hot path.
func DecodeEntityJSON(line []byte) (Instance, Observation, EntityKind, error) {
	var e entityJSON
	if err := json.Unmarshal(line, &e); err != nil {
		return Instance{}, Observation{}, KindNeither, fmt.Errorf("event: decode: %w", err)
	}
	switch {
	case e.Event != "":
		in := Instance{
			Layer:      e.Layer,
			Observer:   e.Observer,
			Event:      e.Event,
			Seq:        e.Seq,
			Gen:        e.Gen,
			GenLoc:     e.GenLoc,
			Occ:        e.Occ,
			Loc:        e.Loc,
			Attrs:      e.Attrs,
			Confidence: e.Confidence,
			Inputs:     e.Inputs,
		}
		if err := in.Validate(); err != nil {
			return Instance{}, Observation{}, KindInstance, fmt.Errorf("event: decode: %w", err)
		}
		return in, Observation{}, KindInstance, nil
	case e.Sensor != "":
		o := Observation{
			Mote:   e.Mote,
			Sensor: e.Sensor,
			Seq:    e.Seq,
			Time:   e.Time,
			Loc:    e.Loc,
			Attrs:  e.Attrs,
		}
		return Instance{}, o, KindObservation, nil
	default:
		return Instance{}, Observation{}, KindNeither, nil
	}
}

// Binary wire codec
//
// The binary forms below are the payloads of the stcps wire protocol's
// record frames (see docs/wire.md). All integers are little-endian;
// varints are the encoding/binary uvarint/zigzag-varint forms.
//
//	string   = uvarint len | len bytes (UTF-8)
//	time     = varint start | uvarint duration        (end = start+duration)
//	location = u8 kind (1 point, 2 field)
//	           point: f64 x | f64 y
//	           field: uvarint n | n × (f64 x | f64 y)
//	attrs    = uvarint n | n × (string name | f64 value), names sorted
//
//	observation = string mote | string sensor | uvarint seq
//	            | time | location | attrs
//	instance    = u8 layer | string observer | string event | uvarint seq
//	            | varint gen | location genLoc | time occ | location loc
//	            | attrs | f64 confidence | uvarint n | n × string input
//
// Attribute names are sorted on encode so the encoding of a value is
// canonical: decode∘encode and encode∘decode are both identity.

// Binary codec errors.
var (
	// ErrWireTruncated is returned when a binary record ends mid-field.
	ErrWireTruncated = errors.New("event: truncated wire record")
	// ErrWireTrailing is returned when a binary record carries bytes past
	// its last field.
	ErrWireTrailing = errors.New("event: trailing bytes in wire record")
	// ErrWireBounds is returned when a length or count field exceeds the
	// codec's sanity bounds.
	ErrWireBounds = errors.New("event: wire field exceeds bounds")
)

// Sanity bounds for hostile input: reject implausible lengths before
// allocating for them.
const (
	maxWireString = 64 << 10
	maxWireAttrs  = 4096
	maxWireVerts  = 64 << 10
	maxWireInputs = 64 << 10
)

// WireBoundsFreeBytes is the record size up to which no field can exceed
// the bounds above: a writer that must never store a record the decoder
// refuses need decode-check only longer ones. TestWireBoundsFreeBytes
// derives it (the cheapest excess is maxWireAttrs+1 9-byte attributes).
const WireBoundsFreeBytes = 32 << 10

// Interner dedupes the small recurring strings of a wire stream (mote,
// sensor, observer, event and attribute names) so steady-state decode
// does not allocate per record. Lookups with a byte-slice key compile to
// allocation-free map probes; only the first occurrence of each distinct
// name allocates. The table is bounded three ways — entry count,
// per-string length, and total pinned bytes — so a hostile stream of
// unique or oversized names can pin at most maxInternedBytes (a few
// MiB) per connection; strings past any bound are returned un-interned
// and stay collectable. An Interner is not safe for concurrent use —
// give each connection its own.
type Interner struct {
	m     map[string]string
	bytes int // total bytes pinned by interned strings
}

// Interner bounds: entry count, per-string length (routing keys and
// attribute names are short in practice; anything longer is not worth
// pinning), and total pinned bytes per table.
const (
	maxInternedStrings = 1 << 16
	maxInternedStrLen  = 256
	maxInternedBytes   = 4 << 20
)

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// Intern returns b as a string, reusing a previously returned string of
// the same content when possible. A nil receiver simply copies.
func (it *Interner) Intern(b []byte) string {
	if it == nil {
		return string(b) //stcps:ignore hotpath nil-interner fallback copies by contract
	}
	if s, ok := it.m[string(b)]; ok { //stcps:ignore hotpath map-lookup conversion does not allocate (compiler-recognized)
		return s
	}
	s := string(b) //stcps:ignore hotpath intern miss materializes each distinct string once, bounded by maxInternedBytes
	if len(s) <= maxInternedStrLen && len(it.m) < maxInternedStrings && it.bytes+len(s) <= maxInternedBytes {
		it.m[s] = s
		it.bytes += len(s)
	}
	return s
}

// appendString appends the string wire form.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendF64 appends a little-endian float64.
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendTime appends the time wire form.
func appendTime(dst []byte, t timemodel.Time) []byte {
	dst = binary.AppendVarint(dst, int64(t.Start()))
	return binary.AppendUvarint(dst, uint64(t.Duration()))
}

// appendLocation appends the location wire form.
func appendLocation(dst []byte, l spatial.Location) []byte {
	if f, ok := l.Field(); ok {
		dst = append(dst, 2)
		ring := f.Vertices()
		dst = binary.AppendUvarint(dst, uint64(len(ring)))
		for _, p := range ring {
			dst = appendF64(dst, p.X)
			dst = appendF64(dst, p.Y)
		}
		return dst
	}
	p := l.Point()
	dst = append(dst, 1)
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

// WireEncoder encodes entities into their binary wire form. The zero
// value is ready to use. An encoder caches the last attribute schema it
// saw: sensor streams send the same attribute set record after record,
// so the canonical collect-and-sort of the names (and its allocation)
// is paid once per schema change instead of once per record — the
// difference between a wire sender saturating a core and spending half
// of it sorting.
type WireEncoder struct {
	names []string // last schema, ascending
}

// appendAttrs appends the attrs wire form with canonically sorted
// names, through the schema cache.
func (e *WireEncoder) appendAttrs(dst []byte, a Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	if len(a) == 0 {
		return dst
	}
	if len(a) == len(e.names) {
		// Fast path: emit in cached order, verifying membership as we
		// go. Equal size plus every cached name present means the same
		// set, so the emitted order is canonical.
		base := len(dst)
		ok := true
		for _, k := range e.names {
			v, present := a[k]
			if !present {
				ok = false
				break
			}
			dst = appendString(dst, k)
			dst = appendF64(dst, v)
		}
		if ok {
			return dst
		}
		dst = dst[:base] // schema changed mid-verify: roll back
	}
	if cap(e.names) < len(a) {
		e.names = make([]string, 0, len(a)) //stcps:ignore hotpath amortized schema-cache growth, reused across records
	}
	e.names = e.names[:0]
	for k := range a {
		e.names = append(e.names, k)
	}
	sort.Strings(e.names)
	for _, k := range e.names {
		dst = appendString(dst, k)
		dst = appendF64(dst, a[k])
	}
	return dst
}

// AppendObservation appends the binary wire form of o to dst and
// returns the extended slice.
func (e *WireEncoder) AppendObservation(dst []byte, o *Observation) []byte {
	dst = appendString(dst, o.Mote)
	dst = appendString(dst, o.Sensor)
	dst = binary.AppendUvarint(dst, o.Seq)
	dst = appendTime(dst, o.Time)
	dst = appendLocation(dst, o.Loc)
	return e.appendAttrs(dst, o.Attrs)
}

// AppendInstance appends the binary wire form of in to dst and returns
// the extended slice. The instance is validated first, mirroring the
// JSON encoder.
func (e *WireEncoder) AppendInstance(dst []byte, in *Instance) ([]byte, error) {
	if err := in.Validate(); err != nil {
		return dst, fmt.Errorf("event: encode: %w", err) //stcps:ignore hotpath error path rejects the record
	}
	dst = append(dst, byte(in.Layer))
	dst = appendString(dst, in.Observer)
	dst = appendString(dst, in.Event)
	dst = binary.AppendUvarint(dst, in.Seq)
	dst = binary.AppendVarint(dst, int64(in.Gen))
	dst = appendLocation(dst, in.GenLoc)
	dst = appendTime(dst, in.Occ)
	dst = appendLocation(dst, in.Loc)
	dst = e.appendAttrs(dst, in.Attrs)
	dst = appendF64(dst, in.Confidence)
	dst = binary.AppendUvarint(dst, uint64(len(in.Inputs)))
	for _, inp := range in.Inputs {
		dst = appendString(dst, inp)
	}
	return dst, nil
}

// wireCursor walks a binary record.
type wireCursor struct {
	b   []byte
	off int
}

// uvarint reads a minimally-encoded uvarint. Padded encodings (a
// value whose final continuation group is zero) are rejected so every
// value has exactly one wire form — that is what makes the codec
// canonical and encode∘decode the identity.
func (c *wireCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, ErrWireTruncated
	}
	if n > 1 && v>>(7*(n-1)) == 0 {
		return 0, ErrWireBounds
	}
	c.off += n
	return v, nil
}

// varint reads a minimally-encoded zigzag varint.
func (c *wireCursor) varint() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (c *wireCursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, ErrWireTruncated
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *wireCursor) f64() (float64, error) {
	if c.off+8 > len(c.b) {
		return 0, ErrWireTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// bytes returns the next n raw bytes, still aliasing the record buffer.
func (c *wireCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, ErrWireTruncated
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *wireCursor) stringBytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWireString {
		return nil, ErrWireBounds
	}
	return c.bytes(int(n))
}

func (c *wireCursor) internedString(it *Interner) (string, error) {
	b, err := c.stringBytes()
	if err != nil {
		return "", err
	}
	return it.Intern(b), nil
}

func (c *wireCursor) time() (timemodel.Time, error) {
	start, err := c.varint()
	if err != nil {
		return timemodel.Time{}, err
	}
	dur, err := c.uvarint()
	if err != nil {
		return timemodel.Time{}, err
	}
	end := timemodel.Tick(start) + timemodel.Tick(dur)
	if dur > math.MaxInt64 || end < timemodel.Tick(start) {
		return timemodel.Time{}, ErrWireBounds
	}
	return timemodel.Between(timemodel.Tick(start), end)
}

func (c *wireCursor) location() (spatial.Location, error) {
	kind, err := c.byte()
	if err != nil {
		return spatial.Location{}, err
	}
	switch kind {
	case 1:
		x, err := c.f64()
		if err != nil {
			return spatial.Location{}, err
		}
		y, err := c.f64()
		if err != nil {
			return spatial.Location{}, err
		}
		return spatial.AtPoint(x, y), nil
	case 2:
		n, err := c.uvarint()
		if err != nil {
			return spatial.Location{}, err
		}
		if n > maxWireVerts {
			return spatial.Location{}, ErrWireBounds
		}
		ring := make([]spatial.Point, n) //stcps:ignore hotpath field (polygon) locations materialize a ring; point locations take the alloc-free branch
		for i := range ring {
			if ring[i].X, err = c.f64(); err != nil {
				return spatial.Location{}, err
			}
			if ring[i].Y, err = c.f64(); err != nil {
				return spatial.Location{}, err
			}
		}
		f, err := spatial.NewField(ring)
		if err != nil {
			return spatial.Location{}, fmt.Errorf("event: decode location: %w", err) //stcps:ignore hotpath error path rejects the record
		}
		return spatial.InField(f), nil
	default:
		return spatial.Location{}, fmt.Errorf("location kind %d: %w", kind, ErrWireBounds) //stcps:ignore hotpath error path rejects the record
	}
}

// rawAttrs returns the attrs section (count prefix included) as a view
// into the record buffer, validating its structure so later lookups
// cannot fail.
func (c *wireCursor) rawAttrs() ([]byte, int, error) {
	start := c.off
	n, err := c.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if n > maxWireAttrs {
		return nil, 0, ErrWireBounds
	}
	var prev []byte
	for i := uint64(0); i < n; i++ {
		name, err := c.stringBytes()
		if err != nil {
			return nil, 0, err
		}
		if i > 0 && bytes.Compare(name, prev) <= 0 {
			return nil, 0, ErrWireBounds
		}
		prev = name
		if _, err := c.f64(); err != nil {
			return nil, 0, err
		}
	}
	return c.b[start:c.off], int(n), nil
}

// attrsOf materializes an attrs section rawAttrs validated, deduping
// the names through it (which may be nil).
func attrsOf(raw []byte, n int, it *Interner) Attrs {
	if n == 0 {
		return nil
	}
	a := make(Attrs, n)
	c := wireCursor{b: raw}
	c.uvarint()
	for i := 0; i < n; i++ {
		name, _ := c.stringBytes()
		a[it.Intern(name)], _ = c.f64()
	}
	return a
}

// inputsOf materializes an inputs section the instance walk validated.
func inputsOf(raw []byte, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	c := wireCursor{b: raw}
	c.uvarint()
	for i := range out {
		b, _ := c.stringBytes()
		out[i] = string(b)
	}
	return out
}

func (c *wireCursor) done() error {
	if c.off != len(c.b) {
		return ErrWireTrailing
	}
	return nil
}

// DecodeObservationWire parses the binary wire form of an observation
// into *o. Strings are deduped through it (which may be nil). The
// decoded observation does not alias data except through interned
// strings, so data may be reused afterwards. Materializing the Attrs
// map allocates by design; the zero-allocation ingest path is
// DecodeObservationView.
func DecodeObservationWire(data []byte, o *Observation, it *Interner) error {
	c := wireCursor{b: data}
	var err error
	if o.Mote, err = c.internedString(it); err != nil {
		return err
	}
	if o.Sensor, err = c.internedString(it); err != nil {
		return err
	}
	if o.Seq, err = c.uvarint(); err != nil {
		return err
	}
	if o.Time, err = c.time(); err != nil {
		return err
	}
	if o.Loc, err = c.location(); err != nil {
		return err
	}
	raw, n, err := c.rawAttrs()
	if err != nil {
		return err
	}
	o.Attrs = attrsOf(raw, n, it)
	return c.done()
}

// instanceWire is one instance record walked in place: the embedded
// Instance holds every field but the ids, Attrs and Inputs, which stay
// in the record buffer (attrs and inputs as validated sections, count
// prefix included).
type instanceWire struct {
	Instance
	observer, event, attrs, inputs []byte
	nattrs, ninputs                int
}

// walk parses one instance record, checking every varint, bound, field
// ring and the canonical attribute order, and that nothing trails it.
// It is the one parser of the instance wire form: SkimInstanceWire
// stops after it and the validation, DecodeInstanceWire materializes
// what it found, so the two accept exactly the same records.
func (w *instanceWire) walk(data []byte) error {
	c := wireCursor{b: data}
	layer, err := c.byte()
	if err != nil {
		return err
	}
	w.Layer = Layer(layer)
	if w.observer, err = c.stringBytes(); err != nil {
		return err
	}
	if w.event, err = c.stringBytes(); err != nil {
		return err
	}
	if w.Seq, err = c.uvarint(); err != nil {
		return err
	}
	gen, err := c.varint()
	if err != nil {
		return err
	}
	w.Gen = timemodel.Tick(gen)
	if w.GenLoc, err = c.location(); err != nil {
		return err
	}
	if w.Occ, err = c.time(); err != nil {
		return err
	}
	if w.Loc, err = c.location(); err != nil {
		return err
	}
	if w.attrs, w.nattrs, err = c.rawAttrs(); err != nil {
		return err
	}
	if w.Confidence, err = c.f64(); err != nil {
		return err
	}
	w.inputs = c.b[c.off:] // the last section
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	if n > maxWireInputs {
		return ErrWireBounds
	}
	for i := uint64(0); i < n; i++ {
		if _, err := c.stringBytes(); err != nil {
			return err
		}
	}
	w.ninputs = int(n)
	return c.done()
}

// SkimInstanceWire accepts exactly the records DecodeInstanceWire
// accepts, but materializes only what a query filter reads: the event
// id (aliasing data), the occurrence time and the location. A record
// with point locations skims without allocating, so a scan pays the
// full decode only for the records its filter keeps.
//
//stcps:hotpath
func SkimInstanceWire(data []byte) (ev []byte, occ timemodel.Time, loc spatial.Location, err error) {
	var w instanceWire
	if err = w.walk(data); err == nil {
		err = checkInstance(w.Layer, len(w.observer), len(w.event), w.Confidence)
	}
	return w.event, w.Occ, w.Loc, err
}

// DecodeInstanceWire parses and validates the binary wire form of an
// instance into *in; on error *in is left as it was. The decoded
// instance does not alias data except through interned strings.
// Materializing Attrs and Inputs allocates by design; observations, the
// high-rate entity kind, go through DecodeObservationView instead.
func DecodeInstanceWire(data []byte, in *Instance, it *Interner) error {
	var w instanceWire
	if err := w.walk(data); err != nil {
		return err
	}
	if err := checkInstance(w.Layer, len(w.observer), len(w.event), w.Confidence); err != nil {
		return fmt.Errorf("event: decode: %w", err)
	}
	*in = w.Instance
	in.Observer, in.Event = it.Intern(w.observer), it.Intern(w.event)
	in.Attrs, in.Inputs = attrsOf(w.attrs, w.nattrs, it), inputsOf(w.inputs, w.ninputs)
	return nil
}

// ObservationView is a zero-copy decoded observation: the header fields
// are materialized (strings interned, so they do not alias the buffer)
// while the attribute section stays raw, still aliasing the decode
// buffer. A view implements Entity, so it feeds the detection engine
// directly — the buffer it was decoded from must stay untouched for as
// long as any detector window may retain the view (hand the buffer over
// to the batch, do not reuse it).
type ObservationView struct {
	mote   string
	sensor string
	seq    uint64
	time   timemodel.Time
	loc    spatial.Location
	attrs  []byte // validated attrs section, count prefix included
	nattrs int
}

// DecodeObservationView parses the binary wire form of an observation
// into a zero-copy view. The attrs section is structurally validated up
// front so Attr can never fail later.
//
//stcps:hotpath
func DecodeObservationView(data []byte, v *ObservationView, it *Interner) error {
	c := wireCursor{b: data}
	var err error
	if v.mote, err = c.internedString(it); err != nil {
		return err
	}
	if v.sensor, err = c.internedString(it); err != nil {
		return err
	}
	if v.seq, err = c.uvarint(); err != nil {
		return err
	}
	if v.time, err = c.time(); err != nil {
		return err
	}
	if v.loc, err = c.location(); err != nil {
		return err
	}
	if v.attrs, v.nattrs, err = c.rawAttrs(); err != nil {
		return err
	}
	return c.done()
}

// Mote returns the mote id MT_id.
func (v *ObservationView) Mote() string { return v.mote }

// Sensor returns the sensor id SR_id — the view's ingest routing key.
func (v *ObservationView) Sensor() string { return v.sensor }

// Seq returns the observation sequence number.
func (v *ObservationView) Seq() uint64 { return v.seq }

// EntityID implements Entity with the same O(MT,SR,i) notation as
// Observation, so downstream provenance is transport-agnostic.
func (v *ObservationView) EntityID() string {
	return entityID('O', v.mote, v.sensor, v.seq)
}

// OccTime implements Entity.
func (v *ObservationView) OccTime() timemodel.Time { return v.time }

// OccLoc implements Entity.
func (v *ObservationView) OccLoc() spatial.Location { return v.loc }

// Attr implements Entity by scanning the raw attribute section — O(n)
// in the (small) attribute count, trading lookup time for a decode path
// that never builds a map.
func (v *ObservationView) Attr(name string) (float64, bool) {
	c := wireCursor{b: v.attrs}
	n, _ := c.uvarint()
	for i := uint64(0); i < n; i++ {
		nb, _ := c.stringBytes()
		val, _ := c.f64()
		if string(nb) == name {
			return val, true
		}
	}
	return 0, false
}

// Materialize converts the view into a self-contained Observation that
// no longer references the decode buffer.
func (v *ObservationView) Materialize() Observation {
	o := Observation{
		Mote:   v.mote,
		Sensor: v.sensor,
		Seq:    v.seq,
		Time:   v.time,
		Loc:    v.loc,
	}
	o.Attrs = attrsOf(v.attrs, v.nattrs, nil)
	return o
}

var _ Entity = (*ObservationView)(nil)
