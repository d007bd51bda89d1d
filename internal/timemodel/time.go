// Package timemodel implements the discrete time model of the ST-CPS event
// model (Tan, Vuran, Goddard, ICDCSW 2009, Section 4).
//
// Time is a discrete collection of time points ("ticks"), following the time
// model of the Snoop event language that the paper adopts. An event
// occurrence time is either a single time point (a punctual event) or a
// closed interval of time points (an interval event). The package provides
// the paper's temporal operators (Before, After, During, Begin, End, Meet,
// Overlap), the full set of thirteen Allen interval relations they extend,
// and the temporal aggregation functions g_t used by temporal event
// conditions (Eq. 4.3).
package timemodel

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// Tick is a discrete time point. The unit is simulation-defined (the
// simulator interprets one tick as one millisecond by convention, but
// nothing in the model depends on the unit).
type Tick int64

// ErrInvertedInterval is returned when an interval is constructed with its
// end before its start.
var ErrInvertedInterval = errors.New("timemodel: interval end precedes start")

// Time is an event occurrence time: either a single time point or a closed
// interval [Start, End] of time points. A punctual occurrence has
// Start == End. The zero value is the punctual time at tick 0.
type Time struct {
	start Tick
	end   Tick
}

// At returns the punctual Time at tick t.
func At(t Tick) Time {
	return Time{start: t, end: t}
}

// Between returns the interval Time [start, end]. It returns
// ErrInvertedInterval if end < start.
func Between(start, end Tick) (Time, error) {
	if end < start {
		return Time{}, fmt.Errorf("[%d,%d]: %w", start, end, ErrInvertedInterval)
	}
	return Time{start: start, end: end}, nil
}

// MustBetween is like Between but panics on an inverted interval. It is
// intended for literals in tests and examples where the bounds are constants.
func MustBetween(start, end Tick) Time {
	tm, err := Between(start, end)
	if err != nil {
		panic(err)
	}
	return tm
}

// Start returns the first tick of the occurrence.
func (t Time) Start() Tick { return t.start }

// End returns the last tick of the occurrence. For punctual times,
// End() == Start().
func (t Time) End() Tick { return t.end }

// IsPunctual reports whether the occurrence is a single time point
// (a Punctual Event in the paper's classification, Section 4.2).
func (t Time) IsPunctual() bool { return t.start == t.end }

// IsInterval reports whether the occurrence spans more than one time point
// (an Interval Event in the paper's classification, Section 4.2).
func (t Time) IsInterval() bool { return t.start != t.end }

// Duration returns the number of ticks spanned beyond the first:
// 0 for punctual times, End-Start for intervals.
func (t Time) Duration() Tick { return t.end - t.start }

// Shift returns the occurrence translated by d ticks. Shifting never
// changes the punctual/interval classification.
func (t Time) Shift(d Tick) Time {
	return Time{start: t.start + d, end: t.end + d}
}

// Extend returns the smallest interval containing both t and the tick u.
func (t Time) Extend(u Tick) Time {
	out := t
	if u < out.start {
		out.start = u
	}
	if u > out.end {
		out.end = u
	}
	return out
}

// Hull returns the smallest Time containing both occurrences.
func (t Time) Hull(u Time) Time {
	out := t
	if u.start < out.start {
		out.start = u.start
	}
	if u.end > out.end {
		out.end = u.end
	}
	return out
}

// Contains reports whether tick p lies within the closed occurrence span.
func (t Time) Contains(p Tick) bool { return t.start <= p && p <= t.end }

// Intersects reports whether two occurrences share at least one tick.
func (t Time) Intersects(u Time) bool {
	return t.start <= u.end && u.start <= t.end
}

// Equal reports whether both occurrences cover exactly the same ticks.
func (t Time) Equal(u Time) bool { return t.start == u.start && t.end == u.end }

// String renders the occurrence as "@t" for punctual times and "[s,e]" for
// intervals; the format is accepted back by the condition language parser.
func (t Time) String() string {
	if t.IsPunctual() {
		return fmt.Sprintf("@%d", t.start)
	}
	return fmt.Sprintf("[%d,%d]", t.start, t.end)
}

// timeJSON is the wire form of a Time, as UnmarshalJSON reads it.
type timeJSON struct {
	Start Tick `json:"start"`
	End   Tick `json:"end"`
}

// AppendJSON appends the occurrence as {"start":s,"end":e}.
//
//stcps:hotpath
func (t Time) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, int64(t.start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(t.end), 10)
	return append(dst, '}')
}

// MarshalJSON encodes the occurrence through AppendJSON.
func (t Time) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(make([]byte, 0, 48)), nil
}

// UnmarshalJSON decodes the occurrence, rejecting inverted intervals.
func (t *Time) UnmarshalJSON(data []byte) error {
	var w timeJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("timemodel: decode time: %w", err)
	}
	tm, err := Between(w.Start, w.End)
	if err != nil {
		return fmt.Errorf("timemodel: decode time: %w", err)
	}
	*t = tm
	return nil
}
