package db

import (
	"errors"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/segment"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// tieredFeed builds n unique instances spread over events, observers,
// time and space — enough volume that a tight retention cap retires
// whole chunks into the cold tier.
func tieredFeed(n int) []event.Instance {
	ins := make([]event.Instance, n)
	for i := range ins {
		ev := "E" + string(rune('0'+i%5))
		x := float64((i * 7) % 200)
		y := float64((i * 13) % 200)
		in := inst("MT"+string(rune('0'+i%3)), ev, uint64(i/5+1), timemodel.At(timemodel.Tick(i)), spatial.AtPoint(x, y))
		if i%11 == 0 {
			in.Attrs = event.Attrs{"v": float64(i)}
		}
		if i%17 == 0 {
			in.Inputs = []string{"E(a,b,1)"}
		}
		ins[i] = in
	}
	return ins
}

// tieredStore builds a store with a cold tier and a tight hot window,
// feeds it ins, and flushes the evicted backlog so nothing sits
// chunk-resident between the tiers unless keepBacklog.
func tieredStore(t *testing.T, ins []event.Instance, ret Retention, segRet segment.Retention, flush bool) *Store {
	t.Helper()
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := segment.Open(segment.Config{
		Dir:       filepath.Join(t.TempDir(), "cold"),
		CellSize:  16,
		BlockSize: 128,
		Retention: segRet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachCold(d); err != nil {
		t.Fatal(err)
	}
	s.SetRetention(ret)
	for i := 0; i < len(ins); i += 256 {
		end := i + 256
		if end > len(ins) {
			end = len(ins)
		}
		if _, _, err := s.LogBatch(ins[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if flush {
		if err := s.FlushCold(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// oracleStore is the all-in-RAM reference: same feed, no retention, no
// cold tier.
func oracleStore(t *testing.T, ins []event.Instance) *Store {
	t.Helper()
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ins); i += 256 {
		end := i + 256
		if end > len(ins) {
			end = len(ins)
		}
		if _, _, err := s.LogBatch(ins[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestTieredQueryMatchesOracle is the tiered differential oracle: with
// retention tight enough that most of the history lives in cold
// segments, every query shape must return byte-identical pages — same
// instances, same seqs, same cursors — as an unevicted all-in-RAM
// store.
func TestTieredQueryMatchesOracle(t *testing.T) {
	ins := tieredFeed(10_000)
	s := tieredStore(t, ins, Retention{MaxInstances: 512}, segment.Retention{}, false)
	oracle := oracleStore(t, ins)

	st := s.Stats()
	if st.SpilledSeq < chunkSize {
		t.Fatalf("spilled only %d seqs — the cold tier is not exercised", st.SpilledSeq)
	}
	if st.Cold == nil || st.Cold.Segments == 0 {
		t.Fatalf("no segments written: %+v", st.Cold)
	}

	region, err := spatial.Rect(30, 30, 120, 120)
	if err != nil {
		t.Fatal(err)
	}
	loc := spatial.InField(region)
	// A rectangle over every populated cell: the grid estimate cannot
	// beat the live count, so the live window is walked sequentially.
	everywhere, err := spatial.Rect(-10, -10, 210, 210)
	if err != nil {
		t.Fatal(err)
	}
	wide := spatial.InField(everywhere)
	specs := []QuerySpec{
		{Region: &wide},
		{},
		{Limit: 0},
		{Event: "E2"},
		{Event: "E3", Window: &TimeWindow{From: 100, To: 7000}},
		{Region: &loc},
		{Window: &TimeWindow{From: 2000, To: 2500}},
		{Event: "E1", Region: &loc, Window: &TimeWindow{From: 0, To: 9000}},
	}
	for _, base := range specs {
		for _, limit := range []int{0, 97, 1000} {
			q := base
			q.Limit = limit
			pages := 0
			for {
				got, err := s.QueryST(q)
				if err != nil {
					t.Fatalf("tiered %+v: %v", q, err)
				}
				want, err := oracle.QueryST(q)
				if err != nil {
					t.Fatalf("oracle %+v: %v", q, err)
				}
				if !reflect.DeepEqual(got.Instances, want.Instances) ||
					!reflect.DeepEqual(got.Seqs, want.Seqs) ||
					got.NextCursor != want.NextCursor {
					t.Fatalf("page %d of %+v diverges: tiered %d instances (cursor %q), oracle %d (cursor %q)",
						pages, q, len(got.Instances), got.NextCursor, len(want.Instances), want.NextCursor)
				}
				if base.Region == &wide && got.Index != "log" {
					t.Fatalf("page %d of the all-covering region: index %q, want log", pages, got.Index)
				}
				pages++
				if got.NextCursor == "" {
					break
				}
				q.Cursor = got.NextCursor
			}
			if limit > 0 && pages < 2 && base.Event == "" && base.Region == nil && base.Window == nil {
				t.Fatalf("full walk with limit %d took %d pages — pagination is vacuous", limit, pages)
			}
		}
	}

	// The same all-covering region pinned to each tier: the pages of a
	// cursor walk concatenate to the oracle's answer restricted to the
	// tier's sequence range, whatever the page size.
	full, err := oracle.QueryST(QuerySpec{Region: &wide})
	if err != nil {
		t.Fatal(err)
	}
	hotBase := s.loadView().base
	for _, tier := range []Tier{TierAll, TierHot, TierCold} {
		var want []uint64
		for _, seq := range full.Seqs {
			if (tier != TierHot || seq >= hotBase) && (tier != TierCold || seq < hotBase) {
				want = append(want, seq)
			}
		}
		for _, limit := range []int{0, 97, 1000} {
			q := QuerySpec{Region: &wide, Tier: tier, Limit: limit}
			var got []uint64
			for {
				res, err := s.QueryST(q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				if res.Index != "log" {
					t.Fatalf("%+v: index %q, want log", q, res.Index)
				}
				got = append(got, res.Seqs...)
				if res.NextCursor == "" {
					break
				}
				q.Cursor = res.NextCursor
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tier %v limit %d: walk returned %d seqs, oracle %d", tier, limit, len(got), len(want))
			}
		}
	}

	// The cold tier was actually read, and block pruning fired.
	st = s.Stats()
	if st.ColdReads == 0 || st.Cold.BlocksRead == 0 {
		t.Fatalf("queries never touched the cold tier: %+v", st)
	}
	if st.Cold.BlocksPruned == 0 {
		t.Fatalf("no block was ever pruned: %+v", st.Cold)
	}
}

// TestTieredOverBoundInstanceRefused: an instance whose record the
// segment reader would refuse (4,097 attributes, one over the codec's
// bound) is refused at log time with event.ErrWireBounds. Its batch
// fails whole, the per-instance retry the engine falls back to stores
// every other instance, and cold pages over the spilled history match
// the all-in-RAM oracle instead of failing on a poisoned block.
func TestTieredOverBoundInstanceRefused(t *testing.T) {
	ins := tieredFeed(600)
	const bad = 3
	ins[bad].Attrs = make(event.Attrs, 4097)
	for i := range 4097 {
		ins[bad].Attrs[strconv.Itoa(i)] = 1
	}
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := segment.Open(segment.Config{Dir: filepath.Join(t.TempDir(), "cold"), CellSize: 16, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachCold(d); err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: 100})
	if _, _, err := s.LogBatch(ins[:256]); !errors.Is(err, event.ErrWireBounds) {
		t.Fatalf("batch holding an over-bound instance: err %v, want ErrWireBounds", err)
	}
	for i := range ins {
		if err := s.Log(ins[i]); (i == bad) != errors.Is(err, event.ErrWireBounds) || (i != bad && err != nil) {
			t.Fatalf("Log(ins[%d]) = %v", i, err)
		}
	}
	if err := s.FlushCold(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SpilledSeq < 400 {
		t.Fatalf("spilled only %d seqs; the cold tier is not exercised", st.SpilledSeq)
	}
	oracle := oracleStore(t, append(ins[:bad:bad], ins[bad+1:]...))
	for _, q := range []QuerySpec{{Limit: 50}, {Event: "E4"}} {
		got, err := s.QueryST(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		want, err := oracle.QueryST(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Instances, want.Instances) || !reflect.DeepEqual(got.Seqs, want.Seqs) || got.Cold.Records == 0 {
			t.Fatalf("%+v: %d instances over %d cold records, oracle %d", q, len(got.Instances), got.Cold.Records, len(want.Instances))
		}
	}
}

// TestTieredTierSelection pins the Tier field: hot sees only the live
// window, cold only the spilled history, all their union.
func TestTieredTierSelection(t *testing.T) {
	ins := tieredFeed(10_000)
	s := tieredStore(t, ins, Retention{MaxInstances: 512}, segment.Retention{}, true)

	st := s.Stats()
	all, err := s.QueryST(QuerySpec{Tier: TierAll})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := s.QueryST(QuerySpec{Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.QueryST(QuerySpec{Tier: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Instances) != len(ins) {
		t.Fatalf("TierAll = %d instances, want %d", len(all.Instances), len(ins))
	}
	// FlushCold pushed the spill boundary up to the hot base, so the
	// hot page starts exactly at SpilledSeq.
	if len(hot.Seqs) == 0 || hot.Seqs[0] != st.SpilledSeq {
		t.Fatalf("TierHot starts at %v, want spill boundary %d", hot.Seqs[:1], st.SpilledSeq)
	}
	// FlushCold pushed the spill boundary to the hot base, so cold+hot
	// partition the full history exactly.
	if got := len(cold.Instances) + len(hot.Instances); got != len(ins) {
		t.Fatalf("cold %d + hot %d = %d, want %d", len(cold.Instances), len(hot.Instances), got, len(ins))
	}
	if cold.Seqs[len(cold.Seqs)-1]+1 != hot.Seqs[0] {
		t.Fatalf("cold ends at %d, hot starts at %d — tiers must abut", cold.Seqs[len(cold.Seqs)-1], hot.Seqs[0])
	}

}

// TestTieredStrictCursorThroughCold: strict cursors stay valid across
// the spill boundary, and go stale only when segment GC actually
// deletes the history below them.
func TestTieredStrictCursorThroughCold(t *testing.T) {
	ins := tieredFeed(10_000)
	s := tieredStore(t, ins, Retention{MaxInstances: 512}, segment.Retention{MaxSegments: 1}, false)

	st := s.Stats()
	if st.Cold == nil || st.Cold.GCSegments == 0 {
		t.Fatalf("GC never fired: %+v", st.Cold)
	}
	if st.Cold.BaseSeq == 0 {
		t.Fatal("GC left base at 0 — the stale window is empty")
	}

	// Below the cold base: the history is gone, strict says so.
	if _, err := s.QueryST(QuerySpec{Cursor: "0", Strict: true, Limit: 10}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("cursor 0 err = %v, want ErrStaleCursor", err)
	}
	// At the cold base: a strict walk pages gaplessly through segments,
	// the evicted chunk-resident middle, and the live window. The
	// cursor names the last-seen seq, so the walk starts one below.
	full, err := s.QueryST(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	next := st.Cold.BaseSeq
	q := QuerySpec{Strict: true, Limit: 512}
	total := 0
	for {
		q.Cursor = strconv.FormatUint(next-1, 10)
		res, err := s.QueryST(q)
		if err != nil {
			t.Fatalf("strict walk at %d: %v", next, err)
		}
		for _, seq := range res.Seqs {
			if seq != next {
				t.Fatalf("gap: got seq %d, want %d", seq, next)
			}
			next++
		}
		total += len(res.Seqs)
		if res.NextCursor == "" {
			break
		}
	}
	if total != len(full.Instances) {
		t.Fatalf("strict walk returned %d instances, full query %d", total, len(full.Instances))
	}
}

// TestTieredReattach: a segment directory survives its store. A fresh
// store re-attaches it, serves the spilled history, and continues the
// sequence space where the directory ends.
func TestTieredReattach(t *testing.T) {
	ins := tieredFeed(6_000)
	dir := filepath.Join(t.TempDir(), "cold")
	d, err := segment.Open(segment.Config{Dir: dir, CellSize: 16, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.AttachCold(d); err != nil {
		t.Fatal(err)
	}
	s1.SetRetention(Retention{MaxInstances: 512})
	for i := range ins {
		if err := s1.Log(ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.FlushCold(); err != nil {
		t.Fatal(err)
	}
	spilled := s1.Stats().SpilledSeq
	if spilled == 0 {
		t.Fatal("nothing spilled")
	}
	d.Close()

	// AttachCold refuses a non-empty store and double attachment.
	d2, err := segment.Open(segment.Config{Dir: dir, CellSize: 16, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.AttachCold(d2); err == nil {
		t.Fatal("second AttachCold on a used store succeeded")
	}

	s2, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AttachCold(d2); err != nil {
		t.Fatal(err)
	}
	res, err := s2.QueryST(QuerySpec{Tier: TierCold})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Instances)) != spilled {
		t.Fatalf("reattached cold tier serves %d instances, want %d", len(res.Instances), spilled)
	}
	for i, in := range res.Instances {
		if !reflect.DeepEqual(in, ins[i]) {
			t.Fatalf("instance %d differs after reattach", i)
		}
	}
	// New writes continue the cursor space exactly at the directory end.
	extra := inst("MT9", "E.new", 1, timemodel.At(99_999), spatial.AtPoint(1, 1))
	if err := s2.Log(extra); err != nil {
		t.Fatal(err)
	}
	seq, ok := s2.SeqOf(&extra)
	if !ok || seq != spilled {
		t.Fatalf("first post-reattach seq = %d (ok=%v), want %d", seq, ok, spilled)
	}
	all, err := s2.QueryST(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(all.Instances); uint64(n) != spilled+1 {
		t.Fatalf("TierAll after reattach = %d, want %d", n, spilled+1)
	}
}

// TestTieredSpillFailureKeepsData: when the spill sink fails, chunk
// retirement is refused — the history stays readable from RAM and the
// failure is counted, never silently dropped.
func TestTieredSpillFailureKeepsData(t *testing.T) {
	ins := tieredFeed(10_000)
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	d, err := segment.Open(segment.Config{Dir: filepath.Join(t.TempDir(), "cold"), CellSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachCold(d); err != nil {
		t.Fatal(err)
	}
	d.Close() // every Spill from here on fails with segment.ErrClosed
	s.SetRetention(Retention{MaxInstances: 512})
	for i := 0; i < len(ins); i += 256 {
		end := i + 256
		if end > len(ins) {
			end = len(ins)
		}
		if _, _, err := s.LogBatch(ins[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SpillErrs == 0 {
		t.Fatalf("spill failures were not counted: %+v", st)
	}
	if st.SpilledSeq != 0 {
		t.Fatalf("spill boundary advanced past a failed spill: %d", st.SpilledSeq)
	}
	if err := s.FlushCold(); err == nil {
		t.Fatal("FlushCold over a dead sink succeeded")
	}
	// Every instance is still served from the chunk-resident history.
	res, err := s.QueryST(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != len(ins) {
		t.Fatalf("after spill failures %d instances readable, want %d", len(res.Instances), len(ins))
	}
}
