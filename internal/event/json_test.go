package event

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// The shadow types carry the JSON tags of Instance, Observation,
// spatial.Location and timemodel.Time but no MarshalJSON methods, so
// json.Marshal renders them by reflection: the reference AppendJSON
// must match byte for byte.
type (
	shadowTime struct {
		Start int64 `json:"start"`
		End   int64 `json:"end"`
	}
	shadowLoc struct {
		Kind string       `json:"kind"`
		X    float64      `json:"x,omitempty"`
		Y    float64      `json:"y,omitempty"`
		Ring [][2]float64 `json:"ring,omitempty"`
	}
	shadowInstance struct {
		Layer      int                `json:"layer"`
		Observer   string             `json:"observer"`
		Event      string             `json:"event"`
		Seq        uint64             `json:"seq"`
		Gen        int64              `json:"gen"`
		GenLoc     shadowLoc          `json:"genLoc"`
		Occ        shadowTime         `json:"occ"`
		Loc        shadowLoc          `json:"loc"`
		Attrs      map[string]float64 `json:"attrs,omitempty"`
		Confidence float64            `json:"confidence"`
		Inputs     []string           `json:"inputs,omitempty"`
	}
	shadowObservation struct {
		Mote   string             `json:"mote"`
		Sensor string             `json:"sensor"`
		Seq    uint64             `json:"seq"`
		Time   shadowTime         `json:"time"`
		Loc    shadowLoc          `json:"loc"`
		Attrs  map[string]float64 `json:"attrs,omitempty"`
	}
)

func shadowOfTime(t timemodel.Time) shadowTime {
	return shadowTime{Start: int64(t.Start()), End: int64(t.End())}
}

func shadowOfLoc(l spatial.Location) shadowLoc {
	if f, ok := l.Field(); ok {
		ring := make([][2]float64, 0, f.NumVertices())
		for _, p := range f.Vertices() {
			ring = append(ring, [2]float64{p.X, p.Y})
		}
		return shadowLoc{Kind: "field", Ring: ring}
	}
	p := l.Point()
	return shadowLoc{Kind: "point", X: p.X, Y: p.Y}
}

func shadowOfInstance(in *Instance) shadowInstance {
	return shadowInstance{
		Layer: int(in.Layer), Observer: in.Observer, Event: in.Event, Seq: in.Seq,
		Gen: int64(in.Gen), GenLoc: shadowOfLoc(in.GenLoc), Occ: shadowOfTime(in.Occ),
		Loc: shadowOfLoc(in.Loc), Attrs: in.Attrs, Confidence: in.Confidence, Inputs: in.Inputs,
	}
}

func shadowOfObservation(o *Observation) shadowObservation {
	return shadowObservation{
		Mote: o.Mote, Sensor: o.Sensor, Seq: o.Seq, Time: shadowOfTime(o.Time),
		Loc: shadowOfLoc(o.Loc), Attrs: o.Attrs,
	}
}

// jsonCase is one differential input in the flat form a fuzz target
// accepts. It expands to an instance and an observation that share the
// strings, numbers, location and attributes.
type jsonCase struct {
	name     string
	a, b     string // observer/event, mote/sensor
	input    string // one input id; "" leaves Inputs nil
	attrKey  string // first attribute; "" leaves Attrs nil
	attrVal  float64
	seq      uint64
	gen      int64
	start    int64
	dur      uint16
	x, y     float64
	conf     float64
	field    bool // occurrence location is a square field at (x, y)
	emptyCol bool // Attrs and Inputs are empty but non-nil
	moreAttr bool // adds attributes that sort around attrKey
}

func (c jsonCase) entities() (Instance, Observation) {
	occ := timemodel.MustBetween(timemodel.Tick(c.start), timemodel.Tick(c.start)+timemodel.Tick(c.dur))
	loc := spatial.AtPoint(c.x, c.y)
	if c.field {
		if f, err := spatial.Rect(c.x, c.y, c.x+4, c.y+2.5); err == nil {
			loc = spatial.InField(f)
		}
	}
	var attrs Attrs
	var inputs []string
	if c.emptyCol {
		attrs, inputs = Attrs{}, []string{}
	}
	if c.attrKey != "" {
		attrs = Attrs{c.attrKey: c.attrVal}
		if c.moreAttr {
			attrs["zeta"], attrs["Alpha"], attrs["a<b"], attrs[""] = -1.5, 1e-7, 3, 0
		}
	}
	if c.input != "" {
		inputs = []string{c.input, "O(M1,S1,7)"}
	}
	in := Instance{
		Layer: LayerSensor, Observer: c.a, Event: c.b, Seq: c.seq, Gen: timemodel.Tick(c.gen),
		GenLoc: spatial.AtPoint(c.y, c.x), Occ: occ, Loc: loc, Attrs: attrs,
		Confidence: c.conf, Inputs: inputs,
	}
	o := Observation{Mote: c.a, Sensor: c.b, Seq: c.seq, Time: occ, Loc: loc, Attrs: attrs}
	return in, o
}

// jsonCases covers what encoding/json special-cases: omitempty on zero
// and negative-zero coordinates, the exponent cut-offs, field
// locations, nil against empty collections, attribute ordering, and
// every class of string escape. Non-ASCII text is spelled in byte
// escapes so the file itself stays ASCII.
var jsonCases = []jsonCase{
	{name: "plain", a: "stcpsd", b: "E12", input: "O(M3,S3,41)", attrKey: "temp", attrVal: 21.5, seq: 9, gen: 40, start: 38, dur: 2, x: 31.25, y: 97.5, conf: 0.75},
	{name: "zero", a: "o", b: "e"},
	{name: "negative zero", a: "o", b: "e", x: math.Copysign(0, -1), y: math.Copysign(0, -1), conf: math.Copysign(0, -1), attrKey: "v", attrVal: math.Copysign(0, -1)},
	{name: "x only", a: "o", b: "e", x: 1},
	{name: "y only", a: "o", b: "e", y: -1},
	{name: "small exponent", a: "o", b: "e", x: 9.99e-7, y: 1e-6, conf: 1e-9, attrKey: "v", attrVal: -2.5e-12},
	{name: "large exponent", a: "o", b: "e", x: 1e21, y: 9.99e20, attrKey: "v", attrVal: -1.7976931348623157e308},
	{name: "denormal", a: "o", b: "e", x: 5e-324, y: 123456789.125},
	{name: "field", a: "o", b: "e", x: -3.5, y: 1e-7, field: true, conf: 1},
	{name: "empty collections", a: "o", b: "e", emptyCol: true},
	{name: "attr order", a: "o", b: "e", attrKey: "m", attrVal: 1, moreAttr: true},
	{name: "extremes", a: "o", b: "e", seq: math.MaxUint64, gen: math.MinInt64, start: math.MinInt64, dur: 9},
	{name: "quote backslash", a: `ob"s\erver`, b: `e\\"`, input: `O("M",\S,1)`},
	{name: "html", a: "<script>", b: "a&b>c", input: "x<y", attrKey: "<&>", attrVal: 1},
	{name: "control", a: "a\x00b\x1f", b: "\b\f\n\r\t", input: "\x7f"},
	{name: "non-ascii", a: "caf\xc3\xa9", b: "\xe6\xb8\xa9\xe5\xba\xa6", input: "\xf0\x9f\x94\xa5"},
	{name: "invalid utf8", a: "a\xffb", b: "\xc3", input: "\xe2\x80", attrKey: "\xf0\x9f", attrVal: 2},
	{name: "line separators", a: "a\xe2\x80\xa8b", b: "\xe2\x80\xa9", input: "\xe2\x80\xa7\xe2\x80\xaa"},
	{name: "nan coordinate", a: "o", b: "e", x: math.NaN()},
	{name: "inf coordinate", a: "o", b: "e", y: math.Inf(-1)},
	{name: "nan field", a: "o", b: "e", x: math.NaN(), field: true},
	{name: "nan attr", a: "o", b: "e", attrKey: "v", attrVal: math.NaN()},
	{name: "inf confidence", a: "o", b: "e", conf: math.Inf(1)},
}

// checkJSON asserts AppendJSON ≡ json.Marshal(shadow) for the case's
// instance, errors included, that MarshalJSON and EncodeInstance go
// through the same encoder, and that the observation (encoded by
// encoding/json over its struct tags) renders like its shadow.
func checkJSON(t *testing.T, c jsonCase) {
	t.Helper()
	in, o := c.entities()

	want, wantErr := json.Marshal(shadowOfInstance(&in))
	got, err := in.AppendJSON([]byte("prefix"))
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("instance: AppendJSON err = %v, json.Marshal err = %v", err, wantErr)
	case err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("instance diverges:\n got %s\nwant prefix%s", got, want)
	}
	if via, verr := json.Marshal(in); (verr != nil) != (wantErr != nil) || (verr == nil && !bytes.Equal(via, want)) {
		t.Fatalf("instance MarshalJSON diverges (err %v):\n got %s\nwant %s", verr, via, want)
	}
	if in.Validate() == nil {
		if enc, eerr := EncodeInstance(in); (eerr != nil) != (wantErr != nil) || (eerr == nil && !bytes.Equal(enc, want)) {
			t.Fatalf("EncodeInstance diverges (err %v):\n got %s\nwant %s", eerr, enc, want)
		}
	}

	want, wantErr = json.Marshal(shadowOfObservation(&o))
	if via, verr := json.Marshal(&o); (verr != nil) != (wantErr != nil) || (verr == nil && !bytes.Equal(via, want)) {
		t.Fatalf("observation encoding diverges (err %v):\n got %s\nwant %s", verr, via, want)
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, c := range jsonCases {
		t.Run(c.name, func(t *testing.T) { checkJSON(t, c) })
	}
	// A field location with no vertices (the zero Field) omits its ring.
	in, _ := jsonCases[0].entities()
	in.Loc = spatial.InField(spatial.Field{})
	want, _ := json.Marshal(shadowOfInstance(&in))
	if got, err := in.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("empty field diverges (err %v):\n got %s\nwant %s", err, got, want)
	}
}

// TestAppendJSONDecodes closes the loop: what AppendJSON writes,
// DecodeEntityJSON reads back to the same value.
func TestAppendJSONDecodes(t *testing.T) {
	in, _ := jsonCases[0].entities()
	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	back, _, kind, err := DecodeEntityJSON(data)
	if err != nil || kind != KindInstance {
		t.Fatalf("decode: kind %d, %v", kind, err)
	}
	again, err := EncodeInstance(back)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("decode∘encode is not the identity (err %v):\n%s\n%s", err, data, again)
	}
}

// TestAppendJSONAllocs pins the point of the append encoder: encoding
// into a buffer with room allocates nothing.
func TestAppendJSONAllocs(t *testing.T) {
	in, _ := jsonCases[0].entities()
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := in.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendJSON allocates %.0f times per instance, want 0", n)
	}
}

func FuzzInstanceJSON(f *testing.F) {
	for _, c := range jsonCases {
		f.Add(c.a, c.b, c.input, c.attrKey, c.attrVal, c.seq, c.gen, c.start, c.dur, c.x, c.y, c.conf, c.field, c.emptyCol, c.moreAttr)
	}
	f.Fuzz(func(t *testing.T, a, b, input, attrKey string, attrVal float64, seq uint64, gen, start int64, dur uint16,
		x, y, conf float64, field, emptyCol, moreAttr bool) {
		if start > math.MaxInt64-int64(dur) {
			start = 0 // keep the occurrence interval from wrapping
		}
		checkJSON(t, jsonCase{a: a, b: b, input: input, attrKey: attrKey, attrVal: attrVal, seq: seq, gen: gen,
			start: start, dur: dur, x: x, y: y, conf: conf, field: field, emptyCol: emptyCol, moreAttr: moreAttr})
	})
}
