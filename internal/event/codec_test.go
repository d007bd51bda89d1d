package event

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"testing"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func wireObs(i int) Observation {
	return Observation{
		Mote: "MT1", Sensor: "SRimu", Seq: uint64(i + 1),
		Time: timemodel.At(timemodel.Tick(i * 10)),
		Loc:  spatial.AtPoint(float64(i%7), float64(i%5)),
		Attrs: Attrs{
			"ax": 0.1 * float64(i), "ay": -0.2, "az": 9.8,
			"gx": 0.01, "gy": 0.02, "gz": 0.03,
			"mx": 41, "my": -12, "mz": 7, "temp": 21.5,
		},
	}
}

func wireInst(i int) Instance {
	return Instance{
		Layer: LayerSensor, Observer: "MT1", Event: "S.temp",
		Seq: uint64(i + 1), Gen: timemodel.Tick(i * 10),
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        timemodel.MustBetween(timemodel.Tick(i*10), timemodel.Tick(i*10+5)),
		Loc:        spatial.AtPoint(float64(i), 1),
		Attrs:      Attrs{"temp": 20 + float64(i)},
		Confidence: 0.9,
		Inputs:     []string{"O(MT1,SRimu,1)", "O(MT1,SRimu,2)"},
	}
}

func TestObservationWireRoundTrip(t *testing.T) {
	it := NewInterner()
	for i := 0; i < 5; i++ {
		o := wireObs(i)
		enc := new(WireEncoder).AppendObservation(nil, &o)
		var got Observation
		if err := DecodeObservationWire(enc, &got, it); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Mote != o.Mote || got.Sensor != o.Sensor || got.Seq != o.Seq ||
			!got.Time.Equal(o.Time) || got.Loc.String() != o.Loc.String() ||
			len(got.Attrs) != len(o.Attrs) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, o)
		}
		for k, v := range o.Attrs {
			if got.Attrs[k] != v {
				t.Fatalf("attr %q = %g, want %g", k, got.Attrs[k], v)
			}
		}
		// Canonical encoding: re-encoding the decoded value reproduces
		// the bytes (attr names are sorted on encode).
		re := new(WireEncoder).AppendObservation(nil, &got)
		if !bytes.Equal(re, enc) {
			t.Fatalf("re-encode not byte-identical:\n got %x\nwant %x", re, enc)
		}
	}
}

// TestWireEncoderSchemaCache drives one encoder across schema changes:
// every output must be byte-identical to the stateless encoder's, no
// matter how the cached schema relates to the record's.
func TestWireEncoderSchemaCache(t *testing.T) {
	base := func() Observation {
		o := wireObs(0)
		return o
	}
	steps := []struct {
		name  string
		attrs Attrs
	}{
		{"initial", Attrs{"ax": 1, "ay": 2, "az": 3}},
		{"repeat", Attrs{"ax": 4, "ay": 5, "az": 6}},
		{"renamed key, same count", Attrs{"ax": 1, "ay": 2, "zz": 3}},
		{"repeat renamed", Attrs{"ax": 7, "ay": 8, "zz": 9}},
		{"fewer keys", Attrs{"ax": 1}},
		{"more keys", Attrs{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}},
		{"empty", Attrs{}},
		{"nil", nil},
		{"back to initial", Attrs{"ax": 1, "ay": 2, "az": 3}},
	}
	var enc WireEncoder
	for _, step := range steps {
		o := base()
		o.Attrs = step.attrs
		got := enc.AppendObservation(nil, &o)
		want := new(WireEncoder).AppendObservation(nil, &o)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cached encoder diverged:\n got %x\nwant %x", step.name, got, want)
		}
	}
}

func TestObservationWireFieldLocation(t *testing.T) {
	f, err := spatial.Rect(0, 0, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	o := Observation{
		Mote: "MT2", Sensor: "SRcam", Seq: 9,
		Time: timemodel.MustBetween(5, 9),
		Loc:  spatial.InField(f),
	}
	enc := new(WireEncoder).AppendObservation(nil, &o)
	var got Observation
	if err := DecodeObservationWire(enc, &got, nil); err != nil {
		t.Fatalf("decode: %v", err)
	}
	gf, ok := got.Loc.Field()
	if !ok || !gf.Equal(f) {
		t.Fatalf("field round trip mismatch: %v", got.Loc)
	}
}

func TestInstanceWireRoundTrip(t *testing.T) {
	it := NewInterner()
	for i := 0; i < 5; i++ {
		in := wireInst(i)
		enc, err := new(WireEncoder).AppendInstance(nil, &in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got Instance
		if err := DecodeInstanceWire(enc, &got, it); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.EntityID() != in.EntityID() || got.Gen != in.Gen ||
			!got.Occ.Equal(in.Occ) || got.Confidence != in.Confidence ||
			len(got.Inputs) != len(in.Inputs) || got.Layer != in.Layer {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
		}
		for j := range in.Inputs {
			if got.Inputs[j] != in.Inputs[j] {
				t.Fatalf("input %d = %q, want %q", j, got.Inputs[j], in.Inputs[j])
			}
		}
		re, err := new(WireEncoder).AppendInstance(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("re-encode not byte-identical")
		}
	}
}

func TestInstanceWireRejectsInvalid(t *testing.T) {
	in := wireInst(0)
	in.Confidence = 1.5
	if _, err := new(WireEncoder).AppendInstance(nil, &in); !errors.Is(err, ErrConfidenceRange) {
		t.Fatalf("encode of invalid instance: err=%v, want ErrConfidenceRange", err)
	}
	// A decoded instance is validated too: corrupt a valid encoding's
	// confidence field by re-encoding an invalid one through the raw
	// appenders (bypass Validate by patching bytes instead).
	ok := wireInst(0)
	enc, err := new(WireEncoder).AppendInstance(nil, &ok)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	var got Instance
	for n := 0; n < len(enc); n++ {
		if err := DecodeInstanceWire(enc[:n], &got, nil); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
	// Trailing garbage is rejected.
	if err := DecodeInstanceWire(append(enc, 0), &got, nil); !errors.Is(err, ErrWireTrailing) {
		t.Fatalf("trailing byte: err=%v, want ErrWireTrailing", err)
	}
}

func TestObservationWireTruncationsRejected(t *testing.T) {
	o := wireObs(3)
	enc := new(WireEncoder).AppendObservation(nil, &o)
	var got Observation
	for n := 0; n < len(enc); n++ {
		if err := DecodeObservationWire(enc[:n], &got, nil); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", n)
		}
	}
	if err := DecodeObservationWire(append(enc, 0), &got, nil); !errors.Is(err, ErrWireTrailing) {
		t.Fatalf("trailing byte: err=%v, want ErrWireTrailing", err)
	}
}

func TestInternerDedupes(t *testing.T) {
	it := NewInterner()
	a := it.Intern([]byte("SRimu"))
	b := it.Intern([]byte("SRimu"))
	// Same backing string object: comparing data pointers via string
	// headers is not directly possible, but equal content plus the map
	// hit path is observable through the allocation gate below; here we
	// settle for semantic equality and nil-receiver safety.
	if a != b {
		t.Fatalf("interner returned different strings")
	}
	var nilIt *Interner
	if got := nilIt.Intern([]byte("x")); got != "x" {
		t.Fatalf("nil interner: %q", got)
	}
}

// TestInternerBounds: a hostile stream of unique or oversized names
// must not pin unbounded memory. Oversized strings are never stored,
// and total pinned bytes stop at maxInternedBytes — not at the far
// larger entry-count × max-string-length product.
func TestInternerBounds(t *testing.T) {
	it := NewInterner()

	big := bytes.Repeat([]byte{'A'}, maxInternedStrLen+1)
	if got := it.Intern(big); got != string(big) {
		t.Fatal("oversized string mangled")
	}
	if len(it.m) != 0 || it.bytes != 0 {
		t.Fatalf("oversized string stored: %d entries, %d bytes", len(it.m), it.bytes)
	}

	// Unique max-length names until well past the byte bound.
	name := make([]byte, maxInternedStrLen)
	rounds := maxInternedBytes/maxInternedStrLen + 100
	for i := 0; i < rounds; i++ {
		for j, d := 0, i; j < 8; j, d = j+1, d/10 {
			name[j] = byte('0' + d%10)
		}
		it.Intern(name)
	}
	if it.bytes > maxInternedBytes {
		t.Fatalf("interner pinned %d bytes, bound is %d", it.bytes, maxInternedBytes)
	}
	if len(it.m) != maxInternedBytes/maxInternedStrLen {
		t.Fatalf("interner holds %d entries, want byte bound to stop it at %d",
			len(it.m), maxInternedBytes/maxInternedStrLen)
	}
	// Full table: new names pass through un-interned but intact.
	if got := it.Intern([]byte("fresh")); got != "fresh" {
		t.Fatalf("post-bound intern: %q", got)
	}
	if _, ok := it.m["fresh"]; ok {
		t.Fatal("post-bound intern stored a new entry")
	}
}

// TestDecodeObservationWireAllocs is the acceptance gate for the eager
// binary decode hot path: at most 2 allocations per record, both from
// the user-visible Attrs map (its header and one bucket group — a map
// of up to 8 attributes fits one group; everything else is interned or
// inline). The zero-copy view path below is gated separately at 0.
func TestDecodeObservationWireAllocs(t *testing.T) {
	o := wireObs(1)
	o.Attrs = Attrs{"ax": 0.1, "ay": -0.2, "az": 9.8, "gx": 0.01, "gy": 0.02, "gz": 0.03}
	enc := new(WireEncoder).AppendObservation(nil, &o)
	it := NewInterner()
	var got Observation
	// Warm the interner so steady-state behavior is measured.
	if err := DecodeObservationWire(enc, &got, it); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeObservationWire(enc, &got, it); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeObservationWire allocates %.1f/op, budget is 2", allocs)
	}
}

// TestDecodeObservationViewAllocs gates the zero-copy path: decoding a
// view must not allocate at all in steady state, and its lazy Attr
// lookups must stay allocation-free too.
func TestDecodeObservationViewAllocs(t *testing.T) {
	o := wireObs(1)
	enc := new(WireEncoder).AppendObservation(nil, &o)
	it := NewInterner()
	var v ObservationView
	if err := DecodeObservationView(enc, &v, it); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeObservationView(enc, &v, it); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Attr("gz"); !ok {
			t.Fatal("gz missing")
		}
	})
	if allocs > 0 {
		t.Fatalf("DecodeObservationView allocates %.2f/op, budget is 0", allocs)
	}
}

func TestObservationViewEntity(t *testing.T) {
	o := wireObs(2)
	enc := new(WireEncoder).AppendObservation(nil, &o)
	var v ObservationView
	if err := DecodeObservationView(enc, &v, nil); err != nil {
		t.Fatal(err)
	}
	if v.EntityID() != o.EntityID() {
		t.Fatalf("EntityID = %q, want %q", v.EntityID(), o.EntityID())
	}
	if !v.OccTime().Equal(o.Time) || v.OccLoc().String() != o.Loc.String() {
		t.Fatalf("time/loc mismatch")
	}
	if got, ok := v.Attr("az"); !ok || got != 9.8 {
		t.Fatalf("Attr(az) = %g,%v", got, ok)
	}
	if _, ok := v.Attr("missing"); ok {
		t.Fatalf("Attr(missing) found")
	}
	mat := v.Materialize()
	if mat.EntityID() != o.EntityID() || len(mat.Attrs) != len(o.Attrs) {
		t.Fatalf("Materialize mismatch: %+v", mat)
	}
	for k, want := range o.Attrs {
		if mat.Attrs[k] != want {
			t.Fatalf("materialized attr %q = %g, want %g", k, mat.Attrs[k], want)
		}
	}
}

func TestDecodeEntityJSON(t *testing.T) {
	in := wireInst(1)
	instLine, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	gotIn, _, kind, err := DecodeEntityJSON(instLine)
	if err != nil || kind != KindInstance {
		t.Fatalf("instance line: kind=%v err=%v", kind, err)
	}
	if gotIn.EntityID() != in.EntityID() || gotIn.Confidence != in.Confidence ||
		!gotIn.Occ.Equal(in.Occ) || gotIn.Inputs[0] != in.Inputs[0] {
		t.Fatalf("instance mismatch: %+v", gotIn)
	}

	o := wireObs(1)
	obsLine, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	_, gotObs, kind, err := DecodeEntityJSON(obsLine)
	if err != nil || kind != KindObservation {
		t.Fatalf("observation line: kind=%v err=%v", kind, err)
	}
	if gotObs.EntityID() != o.EntityID() || gotObs.Attrs["temp"] != o.Attrs["temp"] {
		t.Fatalf("observation mismatch: %+v", gotObs)
	}

	if _, _, kind, err := DecodeEntityJSON([]byte(`{"x":1}`)); err != nil || kind != KindNeither {
		t.Fatalf("neither line: kind=%v err=%v", kind, err)
	}
	if _, _, _, err := DecodeEntityJSON([]byte(`not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	// An instance line failing validation errors with its kind.
	if _, _, kind, err := DecodeEntityJSON([]byte(`{"event":"S.x","confidence":2}`)); err == nil || kind != KindInstance {
		t.Fatalf("invalid instance: kind=%v err=%v", kind, err)
	}
}

func FuzzObservationWireRoundTrip(f *testing.F) {
	o := wireObs(0)
	f.Add(new(WireEncoder).AppendObservation(nil, &o))
	f.Add([]byte{})
	f.Add([]byte{1, 'a', 1, 'b', 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Observation
		if err := DecodeObservationWire(data, &got, nil); err != nil {
			return
		}
		// Anything that decodes must re-encode byte-identically
		// (canonical form) and decode again to the same value.
		re := new(WireEncoder).AppendObservation(nil, &got)
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded observation not canonical:\n in %x\nout %x", data, re)
		}
	})
}

func FuzzInstanceWireRoundTrip(f *testing.F) {
	in := wireInst(0)
	enc, _ := new(WireEncoder).AppendInstance(nil, &in)
	f.Add(enc)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Instance
		if err := DecodeInstanceWire(data, &got, nil); err != nil {
			return
		}
		re, err := new(WireEncoder).AppendInstance(nil, &got)
		if err != nil {
			t.Fatalf("re-encode of decoded instance failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded instance not canonical:\n in %x\nout %x", data, re)
		}
	})
}

// TestWireBoundsFreeBytes derives WireBoundsFreeBytes from the decode
// bounds: every bound takes a longer record to exceed, and the cheapest
// excess, one attribute too many, encodes past it and is refused.
func TestWireBoundsFreeBytes(t *testing.T) {
	// The fewest bytes each excess takes: the string itself; a 1-byte
	// name length and an 8-byte value per attribute; two f64 per
	// vertex; a 1-byte length per input.
	cheapest := min(maxWireString+1, (maxWireAttrs+1)*9, (maxWireVerts+1)*16, maxWireInputs+1)
	if WireBoundsFreeBytes >= cheapest {
		t.Fatalf("WireBoundsFreeBytes = %d, but a %d-byte record can exceed a bound", WireBoundsFreeBytes, cheapest)
	}
	o := Observation{Mote: "m", Sensor: "s", Time: timemodel.At(1), Loc: spatial.AtPoint(0, 0), Attrs: Attrs{}}
	for i := 0; i <= maxWireAttrs; i++ {
		o.Attrs[strconv.Itoa(i)] = 1
	}
	rec := new(WireEncoder).AppendObservation(nil, &o)
	if err := DecodeObservationWire(rec, new(Observation), nil); !errors.Is(err, ErrWireBounds) {
		t.Fatalf("%d attributes decoded with err %v, want ErrWireBounds", len(o.Attrs), err)
	}
	if len(rec) <= WireBoundsFreeBytes {
		t.Fatalf("a refused record is %d bytes, within WireBoundsFreeBytes = %d", len(rec), WireBoundsFreeBytes)
	}
}

// TestSkimInstanceWireAllocs pins the cold scan's per-record cost: a
// record with point locations, attributes and inputs skims without a
// single allocation.
func TestSkimInstanceWireAllocs(t *testing.T) {
	in := wireInst(3)
	enc, err := new(WireEncoder).AppendInstance(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, _, err := SkimInstanceWire(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SkimInstanceWire allocates %.2f/op, budget is 0", allocs)
	}
}

// FuzzInstanceSkimMatchesDecode pins the skim to the decoder: it accepts
// a record exactly when DecodeInstanceWire does, and on success yields
// the decoded event, occurrence time and location.
func FuzzInstanceSkimMatchesDecode(f *testing.F) {
	for i, loc := range []spatial.Location{spatial.AtPoint(1, 2), spatial.InField(spatial.MustField(
		spatial.Pt(0, 0), spatial.Pt(4, 0), spatial.Pt(4, 4), spatial.Pt(0, 4)))} {
		in := wireInst(i)
		in.Loc = loc
		enc, err := new(WireEncoder).AppendInstance(nil, &in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, occ, loc, serr := SkimInstanceWire(data)
		var in Instance
		derr := DecodeInstanceWire(data, &in, nil)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("skim err %v, decode err %v", serr, derr)
		}
		if derr != nil {
			return
		}
		// Locations compare by wire form: bit for bit, NaN included.
		if string(ev) != in.Event || !occ.Equal(in.Occ) || !bytes.Equal(appendLocation(nil, loc), appendLocation(nil, in.Loc)) {
			t.Fatalf("skim (%q, %v, %v) != decode (%q, %v, %v)", ev, occ, loc, in.Event, in.Occ, in.Loc)
		}
	})
}

// TestValidateWire refuses exactly the instances whose record the
// decoder refuses, one bound at a time. The ring bound is left out: a
// field that large takes minutes to build (its self-intersection check
// is quadratic).
func TestValidateWire(t *testing.T) {
	long := string(make([]byte, maxWireString+1))
	for name, mutate := range map[string]func(*Instance){
		"fits":      func(*Instance) {},
		"observer":  func(in *Instance) { in.Observer = long },
		"event":     func(in *Instance) { in.Event = long },
		"attr name": func(in *Instance) { in.Attrs = Attrs{long: 1} },
		"attr count": func(in *Instance) {
			in.Attrs = make(Attrs)
			for i := 0; i <= maxWireAttrs; i++ {
				in.Attrs[strconv.Itoa(i)] = 1
			}
		},
		"input":  func(in *Instance) { in.Inputs = []string{long} },
		"inputs": func(in *Instance) { in.Inputs = make([]string, maxWireInputs+1) },
	} {
		in := wireInst(0)
		mutate(&in)
		enc, err := new(WireEncoder).AppendInstance(nil, &in)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		derr := DecodeInstanceWire(enc, new(Instance), nil)
		cerr := in.ValidateWire()
		if (derr == nil) != (cerr == nil) || (cerr != nil && !errors.Is(cerr, ErrWireBounds)) {
			t.Fatalf("%s: ValidateWire %v, decode %v", name, cerr, derr)
		}
		if name != "fits" && cerr == nil {
			t.Fatalf("%s: over-bound instance passed", name)
		}
	}
}
