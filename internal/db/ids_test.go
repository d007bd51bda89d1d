package db

import (
	"errors"
	"slices"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// TestEntityIDsResolveAsStrings pins SeqOf and Lineage to the answers of
// a store keyed by rendered id strings, recorded from that store. Names
// holding ',', '(' or ')' render ambiguous ids: "a,b"/"c" and "a"/"b,c"
// both render E(a,b,c,1), so the second is a duplicate of the first.
// E(a,b,007) is not E(a,b,7), and an evicted instance resolves to
// nothing.
func TestEntityIDsResolveAsStrings(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: 6})
	s.LogObservation(event.Observation{Mote: "m", Sensor: "temp", Seq: 1})
	mk := func(ob, ev string, seq uint64, inputs ...string) event.Instance {
		in := inst(ob, ev, seq, timemodel.At(timemodel.Tick(seq)), spatial.AtPoint(1, 1))
		in.Inputs = inputs
		return in
	}
	logs := []struct {
		in    event.Instance
		seq   uint64
		fresh bool
	}{
		{mk("gone", "x", 1), 0, true},
		{mk("a,b", "c", 1, "O(m,temp,1)"), 1, true},
		{mk("a", "b,c", 1), 1, false},
		{mk("a", "b", 7, "E(a,b,007)"), 2, true},
		{mk("s(1)", "f)x(", 7, "E(a,b,c,1)", "O(m,temp,1)", "E(gone,x,1)", "O(never,x,3)"), 3, true},
		{mk("top", "e", 0, "E(s(1),f)x(,7)", "E(a,b,7)", "E(a,b,c,1)"), 4, true},
		{mk("p", "q", 18446744073709551615), 5, true},
		{mk("r", "s", 2), 6, true},
	}
	for _, l := range logs {
		seq, fresh, err := s.LogSeq(l.in)
		if err != nil || seq != l.seq || fresh != l.fresh {
			t.Fatalf("LogSeq(%s) = (%d, %v, %v), want (%d, %v, nil)", l.in.EntityID(), seq, fresh, err, l.seq, l.fresh)
		}
	}
	for _, tt := range []struct {
		in  event.Instance
		seq uint64
		ok  bool
	}{
		{logs[0].in, 0, false}, // evicted
		{logs[1].in, 1, true},
		{logs[2].in, 1, true},
		{logs[3].in, 2, true},
		{logs[4].in, 3, true},
		{logs[5].in, 4, true},
		{logs[6].in, 5, true},
		{logs[7].in, 6, true},
		{mk("never", "x", 1), 0, false},
	} {
		if seq, ok := s.SeqOf(&tt.in); seq != tt.seq || ok != tt.ok {
			t.Errorf("SeqOf(%s) = (%d, %v), want (%d, %v)", tt.in.EntityID(), seq, ok, tt.seq, tt.ok)
		}
	}
	for _, tt := range []struct {
		id   string
		want []string // nil: ErrNotFound
	}{
		{"E(top,e,0)", []string{"E(top,e,0)", "E(s(1),f)x(,7)", "E(a,b,c,1)", "O(m,temp,1)", "E(gone,x,1)", "O(never,x,3)", "E(a,b,7)", "E(a,b,007)"}},
		{"E(s(1),f)x(,7)", []string{"E(s(1),f)x(,7)", "E(a,b,c,1)", "O(m,temp,1)", "E(gone,x,1)", "O(never,x,3)"}},
		{"E(a,b,c,1)", []string{"E(a,b,c,1)", "O(m,temp,1)"}},
		{"E(a,b,7)", []string{"E(a,b,7)", "E(a,b,007)"}},
		{"E(a,b,007)", nil},
		{"O(m,temp,1)", []string{"O(m,temp,1)"}},
		{"", nil},
		{"E(", nil},
		{"E()", nil},
		{"E(,)", nil},
		{"E(a,b,c,1", nil},
		{"E(a,b,c,+1)", nil},
		{"E(a,b,c, 1)", nil},
		{"E(a,b,c,1)x", nil},
		{"e(a,b,c,1)", nil},
		{"E(gone,x,1)", nil},
		{"E(p,q,18446744073709551615)", []string{"E(p,q,18446744073709551615)"}},
		{"E(p,q,18446744073709551616)", nil},
		{"E(r,s,2)", []string{"E(r,s,2)"}},
		{"E(r,s,0x2)", nil},
		{"E(r,s,2_)", nil},
		{"E(r,s,)", nil},
		{"E(r,s2)", nil},
		{"O(never,x,3)", nil},
		{"E(a,b,c,01)", nil},
		{"E(a,b,-0)", nil},
	} {
		got, err := s.Lineage(tt.id)
		if tt.want == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("Lineage(%q) = (%q, %v), want ErrNotFound", tt.id, got, err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tt.want) {
			t.Errorf("Lineage(%q) = (%q, %v), want %q", tt.id, got, err, tt.want)
		}
	}
}
