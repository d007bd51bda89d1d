package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quo"te\back`, "<a href=\"x\">&amp;</a>", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"caf\xc3\xa9 \xf0\x9f\x94\xa5", "bad\xff\xc3", "\xe2\x80", "sep\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xaa",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, -2.5e-12, 1e20, 9.99e20, 1e21, 1.5e300,
		5e-324, math.MaxFloat64, 123456789.125, 1 / 3.0,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%g) = %s, %v, want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); !errors.Is(err, ErrUnsupportedFloat) {
			t.Errorf("AppendFloat(%g) err = %v, want ErrUnsupportedFloat", f, err)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("json.Marshal(%g) succeeded; the reference no longer rejects it", f)
		}
	}
}
