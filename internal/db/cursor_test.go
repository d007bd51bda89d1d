package db

import (
	"errors"
	"math/rand"
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
	if got, ok := s.SeqOf(&in); !ok || got != 0 {
		t.Fatalf("SeqOf = (%d, %v), want (0, true)", got, ok)
	}
	if _, ok := s.SeqOf(&event.Instance{Observer: "OB", Event: "missing", Seq: 9}); ok {
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
		if want, ok := s.SeqOf(&res.Instances[i]); !ok || want != seq {
			t.Fatalf("Seqs[%d] = %d, store says %d (resolved %v)", i, seq, want, ok)
		}
	}
	if res.NextCursor != strconv.FormatUint(res.Seqs[3], 10) {
		t.Fatalf("NextCursor %q != last seq %d", res.NextCursor, res.Seqs[3])
	}
}

// TestStrictCursorWalkTakesNoLocks audits the read plane's lock counters
// on a quiesced store: a strict cursor walk down the sequential log path
// (the subscription catch-up shape) takes no index-probe lock on any
// page and materializes every instance it returns off-lock, while an
// indexed page takes at most the one short probe lock.
func TestStrictCursorWalkTakesNoLocks(t *testing.T) {
	for _, ret := range []Retention{{}, {MaxInstances: 150}} {
		s := randomStore(t, rand.New(rand.NewSource(19)), 400, ret)
		q := QuerySpec{Limit: 16, Strict: true}
		pages := 0
		var materialized uint64
		for {
			before := s.Stats()
			res, err := s.QueryST(q)
			if err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if locks := after.ReadLocks - before.ReadLocks; locks != 0 {
				t.Fatalf("retention %+v page %d: %d index locks on the log path, want 0", ret, pages, locks)
			}
			if got := after.Materialized - before.Materialized; got != uint64(len(res.Instances)) {
				t.Fatalf("retention %+v page %d: materialized %d, returned %d", ret, pages, got, len(res.Instances))
			}
			materialized += after.Materialized - before.Materialized
			pages++
			if res.NextCursor == "" {
				break
			}
			q.Cursor = res.NextCursor
		}
		if pages < 2 || materialized != uint64(s.Len()) {
			t.Fatalf("retention %+v: walk took %d pages and materialized %d of %d instances", ret, pages, materialized, s.Len())
		}

		region := spatial.InField(spatial.MustField(
			spatial.Pt(10, 10), spatial.Pt(30, 10), spatial.Pt(30, 30), spatial.Pt(10, 30)))
		for _, iq := range []QuerySpec{{Event: "E1", Limit: 16}, {Region: &region, Limit: 16}} {
			before := s.Stats().ReadLocks
			if _, err := s.QueryST(iq); err != nil {
				t.Fatal(err)
			}
			if locks := s.Stats().ReadLocks - before; locks > 1 {
				t.Fatalf("retention %+v: indexed page %+v took %d locks, want <= 1", ret, iq, locks)
			}
		}
	}
}
