package db

import (
	"errors"
	"strconv"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// cursorInst builds a valid instance for the cursor tests.
func cursorInst(seq uint64, t timemodel.Tick) event.Instance {
	return event.Instance{
		Layer:      event.LayerSensor,
		Observer:   "OB",
		Event:      "E",
		Seq:        seq,
		Gen:        t,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        timemodel.At(t),
		Loc:        spatial.AtPoint(float64(seq), 0),
		Confidence: 1,
	}
}

func TestLogSeqAndSeqOf(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	in := cursorInst(1, 10)
	seq, fresh, err := s.LogSeq(in)
	if err != nil || !fresh || seq != 0 {
		t.Fatalf("LogSeq = (%d, %v, %v), want (0, true, nil)", seq, fresh, err)
	}
	// Idempotent duplicate returns the existing sequence number.
	seq, fresh, err = s.LogSeq(in)
	if err != nil || fresh || seq != 0 {
		t.Fatalf("duplicate LogSeq = (%d, %v, %v), want (0, false, nil)", seq, fresh, err)
	}
	seq2, fresh, err := s.LogSeq(cursorInst(2, 11))
	if err != nil || !fresh || seq2 != 1 {
		t.Fatalf("second LogSeq = (%d, %v, %v), want (1, true, nil)", seq2, fresh, err)
	}
	if got, ok := s.SeqOf(in.EntityID()); !ok || got != 0 {
		t.Fatalf("SeqOf = (%d, %v), want (0, true)", got, ok)
	}
	if _, ok := s.SeqOf("E(OB,missing,9)"); ok {
		t.Fatal("SeqOf resolved an unknown entity")
	}
}

// TestStrictCursorEvicted pins the satellite contract: a cursor pointing
// at (or below) a retention-evicted instance must return a clean error,
// never silently skip the evicted gap — the foundation of gapless
// catch-up.
func TestStrictCursorEvicted(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: 5})
	for i := uint64(0); i < 20; i++ {
		if err := s.Log(cursorInst(i, timemodel.Tick(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Live seqs are 15..19; everything below was evicted.
	for _, cur := range []uint64{0, 7, 13} {
		_, err := s.QueryST(QuerySpec{Event: "E", Cursor: strconv.FormatUint(cur, 10), Strict: true, Tier: TierHot})
		if !errors.Is(err, ErrStaleCursor) {
			t.Fatalf("strict cursor %d = %v, want ErrStaleCursor", cur, err)
		}
	}
	// The eviction frontier (cursor = oldest live seq - 1) is a clean
	// resume: nothing between the cursor and the live head was lost.
	res, err := s.QueryST(QuerySpec{Event: "E", Cursor: "14", Strict: true, Tier: TierHot})
	if err != nil {
		t.Fatalf("frontier cursor: %v", err)
	}
	if len(res.Instances) != 5 || res.Seqs[0] != 15 {
		t.Fatalf("frontier resume got %d instances from seq %v", len(res.Instances), res.Seqs)
	}
	// A cursor inside (or past) the live range is clean too.
	res, err = s.QueryST(QuerySpec{Event: "E", Cursor: "17", Strict: true, Tier: TierHot})
	if err != nil || len(res.Instances) != 2 {
		t.Fatalf("live cursor = (%d instances, %v), want 2", len(res.Instances), err)
	}
	res, err = s.QueryST(QuerySpec{Event: "E", Cursor: "19", Strict: true, Tier: TierHot})
	if err != nil || len(res.Instances) != 0 {
		t.Fatalf("head cursor = (%d instances, %v), want 0", len(res.Instances), err)
	}
	// Without Strict the historical behavior holds: evicted instances
	// simply stop appearing.
	res, err = s.QueryST(QuerySpec{Event: "E", Cursor: "0", Tier: TierHot})
	if err != nil || len(res.Instances) != 5 {
		t.Fatalf("lenient cursor = (%d instances, %v), want 5", len(res.Instances), err)
	}
	// Strict without a cursor is a no-op, even over evicted history.
	if _, err := s.QueryST(QuerySpec{Event: "E", Strict: true, Tier: TierHot}); err != nil {
		t.Fatalf("strict without cursor: %v", err)
	}
}

// TestStrictCursorFullyEvictedStore covers the extreme: every instance
// after the cursor was evicted, including the whole store.
func TestStrictCursorFullyEvictedStore(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := s.Log(cursorInst(i, timemodel.Tick(i))); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRetention(Retention{MaxInstances: 1}) // evicts 0..6 immediately
	if _, err := s.QueryST(QuerySpec{Event: "E", Cursor: "3", Strict: true, Tier: TierHot}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("cursor into evicted prefix = %v, want ErrStaleCursor", err)
	}
	if _, err := s.QueryST(QuerySpec{Event: "E", Cursor: "6", Strict: true, Tier: TierHot}); err != nil {
		t.Fatalf("frontier after mass eviction: %v", err)
	}
}

func TestQuerySTSeqsParallelInstances(t *testing.T) {
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := s.Log(cursorInst(i, timemodel.Tick(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.QueryST(QuerySpec{Event: "E", Limit: 4, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != len(res.Instances) {
		t.Fatalf("Seqs length %d != Instances length %d", len(res.Seqs), len(res.Instances))
	}
	for i, seq := range res.Seqs {
		got, err := s.Get(res.Instances[i].EntityID())
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := s.SeqOf(got.EntityID()); want != seq {
			t.Fatalf("Seqs[%d] = %d, store says %d", i, seq, want)
		}
	}
	if res.NextCursor != strconv.FormatUint(res.Seqs[3], 10) {
		t.Fatalf("NextCursor %q != last seq %d", res.NextCursor, res.Seqs[3])
	}
}
