package event

import (
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"

	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func validInstance() Instance {
	return Instance{
		Layer:      LayerSensor,
		Observer:   "MT1",
		Event:      "S.nearby",
		Seq:        3,
		Gen:        120,
		GenLoc:     spatial.AtPoint(1, 1),
		Occ:        timemodel.At(100),
		Loc:        spatial.AtPoint(1.5, 1.2),
		Attrs:      Attrs{"range": 2.0},
		Confidence: 0.9,
		Inputs:     []string{"O(MT1,SRx,41)", "O(MT1,SRx,42)"},
	}
}

func TestInstanceValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantErr error
	}{
		{"valid", func(*Instance) {}, nil},
		{"bad layer physical", func(i *Instance) { i.Layer = LayerPhysical }, ErrBadLayer},
		{"bad layer observation", func(i *Instance) { i.Layer = LayerObservation }, ErrBadLayer},
		{"missing observer", func(i *Instance) { i.Observer = "" }, ErrMissingObserver},
		{"missing event", func(i *Instance) { i.Event = "" }, ErrMissingEventID},
		{"confidence low", func(i *Instance) { i.Confidence = -0.1 }, ErrConfidenceRange},
		{"confidence high", func(i *Instance) { i.Confidence = 1.1 }, ErrConfidenceRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := validInstance()
			tt.mutate(&in)
			err := in.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestInstanceEntity(t *testing.T) {
	in := validInstance()
	if in.EntityID() != "E(MT1,S.nearby,3)" {
		t.Errorf("EntityID = %q", in.EntityID())
	}
	if !in.OccTime().Equal(timemodel.At(100)) {
		t.Error("OccTime should be the estimated occurrence")
	}
	if !in.OccLoc().Point().Equal(spatial.Pt(1.5, 1.2)) {
		t.Error("OccLoc should be the estimated location")
	}
	if v, ok := in.Attr("range"); !ok || v != 2.0 {
		t.Error("Attr lookup failed")
	}
	if in.TemporalClass() != Punctual {
		t.Error("punctual occurrence expected")
	}
	if in.SpatialClass() != PointEvent {
		t.Error("point occurrence expected")
	}
}

func TestDetectionLatency(t *testing.T) {
	in := validInstance()
	in.Occ = timemodel.MustBetween(80, 100)
	in.Gen = 125
	if got := in.DetectionLatency(); got != 25 {
		t.Errorf("DetectionLatency = %d, want 25", got)
	}
}

func TestInstanceCodecRoundTrip(t *testing.T) {
	in := validInstance()
	in.Occ = timemodel.MustBetween(90, 110)
	f := spatial.MustField(spatial.Pt(0, 0), spatial.Pt(2, 0), spatial.Pt(2, 2), spatial.Pt(0, 2))
	in.Loc = spatial.InField(f)

	data, err := EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	got, _, kind, err := DecodeEntityJSON(data)
	if err != nil || kind != KindInstance {
		t.Fatalf("decode: kind %d, %v", kind, err)
	}
	if got.EntityID() != in.EntityID() {
		t.Errorf("identity changed: %q -> %q", in.EntityID(), got.EntityID())
	}
	if !got.Occ.Equal(in.Occ) {
		t.Errorf("occ changed: %v -> %v", in.Occ, got.Occ)
	}
	gf, ok := got.Loc.Field()
	if !ok || !gf.Equal(f) {
		t.Error("field location corrupted in round trip")
	}
	if got.Confidence != in.Confidence {
		t.Error("confidence changed")
	}
	if len(got.Inputs) != len(in.Inputs) {
		t.Error("provenance dropped")
	}
}

func TestCodecRejectsInvalid(t *testing.T) {
	in := validInstance()
	in.Confidence = 2
	if _, err := EncodeInstance(in); !errors.Is(err, ErrConfidenceRange) {
		t.Errorf("encode invalid: err = %v", err)
	}
	if _, _, _, err := DecodeEntityJSON([]byte(`{"layer":1,"observer":"x","event":"y"}`)); !errors.Is(err, ErrBadLayer) {
		t.Errorf("decode invalid layer: err = %v", err)
	}
	if _, _, _, err := DecodeEntityJSON([]byte(`{`)); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestObservationCodecRoundTrip(t *testing.T) {
	o := Observation{
		Mote: "MT2", Sensor: "SRy", Seq: 9,
		Time:  timemodel.At(55),
		Loc:   spatial.AtPoint(3, 4),
		Attrs: Attrs{"temp": 21},
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	_, got, kind, err := DecodeEntityJSON(data)
	if err != nil || kind != KindObservation {
		t.Fatalf("decode = kind %d, %v", kind, err)
	}
	if got.EntityID() != o.EntityID() {
		t.Errorf("identity changed: %q -> %q", o.EntityID(), got.EntityID())
	}
	if v, ok := got.Attr("temp"); !ok || v != 21 {
		t.Error("attrs corrupted")
	}
	if _, _, _, err := DecodeEntityJSON([]byte(`nope`)); err == nil {
		t.Error("malformed observation should fail")
	}
}

// Property: codec round trip preserves the entity view of any valid
// instance with random numeric fields.
func TestInstanceRoundTripProperty(t *testing.T) {
	f := func(seq uint16, gen int16, occStart, occLen uint8, conf uint8, x, y int8) bool {
		in := Instance{
			Layer:      LayerCyber,
			Observer:   "CCU1",
			Event:      "E.test",
			Seq:        uint64(seq),
			Gen:        timemodel.Tick(gen),
			GenLoc:     spatial.AtPoint(0, 0),
			Occ:        timemodel.MustBetween(timemodel.Tick(occStart), timemodel.Tick(occStart)+timemodel.Tick(occLen)),
			Loc:        spatial.AtPoint(float64(x), float64(y)),
			Confidence: float64(conf) / 255,
		}
		data, err := EncodeInstance(in)
		if err != nil {
			return false
		}
		got, _, kind, err := DecodeEntityJSON(data)
		if err != nil || kind != KindInstance {
			return false
		}
		return got.EntityID() == in.EntityID() &&
			got.Occ.Equal(in.Occ) &&
			got.OccLoc().Point().Equal(in.OccLoc().Point()) &&
			got.Confidence == in.Confidence
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
