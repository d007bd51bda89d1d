// Package jsonenc appends JSON scalars to a byte slice exactly as
// encoding/json renders them (Marshal defaults, HTML escaping on), so
// the hand-written AppendJSON encoders of spatial, timemodel and event
// stay byte-identical to the reflection encoder they replace.
package jsonenc

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// ErrUnsupportedFloat is returned for NaN and ±Inf, which JSON cannot
// represent (encoding/json fails with UnsupportedValueError).
var ErrUnsupportedFloat = errors.New("jsonenc: unsupported float value (NaN or Inf)")

// AppendFloat appends f in encoding/json's float64 form, the ES6
// number-to-string conversion: shortest round-trip digits, in plain
// notation from 1e-6 up to 1e21. The exponent form outside that range
// (with its trimmed exponent) is rare and left to encoding/json itself.
//
//stcps:hotpath
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, ErrUnsupportedFloat
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		exp, _ := json.Marshal(f) //stcps:ignore hotpath rare exponent form; a finite float never fails to marshal
		return append(dst, exp...), nil
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64), nil
}

// AppendString appends s as a quoted JSON string. Identifiers are
// almost always plain printable ASCII, which is copied as is; a string
// with anything encoding/json would escape or repair — control
// characters, the quote and the backslash, the HTML characters <, > and
// &, any non-ASCII byte (U+2028, U+2029, invalid UTF-8) — is handed to
// encoding/json itself, so the escaping rules live in one place.
//
//stcps:hotpath
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			quoted, _ := json.Marshal(s) //stcps:ignore hotpath rare escape path; a string never fails to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
