package db

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// checkStoreInvariants asserts every index agrees with the chunked log:
// the entity and grid indexes hold exactly the live instances, the time
// index resolves within the retained chunks with accurate live/stale
// bookkeeping, and dead chunks are retired.
func checkStoreInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	live := int(s.frontier - s.base)
	if len(s.byEntity) != live {
		t.Fatalf("byEntity %d != live %d", len(s.byEntity), live)
	}
	if s.grid.Len() != live {
		t.Fatalf("grid %d != live %d", s.grid.Len(), live)
	}
	liveTotal, staleTotal := 0, 0
	for ev, lst := range s.byEvent {
		liveSeen := 0
		for i, seq := range lst {
			if seq < s.firstSeq || seq >= s.frontier {
				t.Fatalf("byEvent[%s][%d] = unresolvable seq %d", ev, i, seq)
			}
			in := s.at(seq)
			if in.Event != ev {
				t.Fatalf("byEvent[%s] points at %s", ev, in.Event)
			}
			if i > 0 && s.at(lst[i-1]).Occ.Start() > in.Occ.Start() {
				t.Fatalf("byEvent[%s] start order broken at %d", ev, i)
			}
			if seq >= s.base {
				liveSeen++
			} else {
				staleTotal++
			}
		}
		if liveSeen == 0 {
			t.Fatalf("byEvent[%s] kept with no live entries", ev)
		}
		if liveSeen != s.liveEv[ev] {
			t.Fatalf("liveEv[%s] = %d, want %d", ev, s.liveEv[ev], liveSeen)
		}
		liveTotal += liveSeen
	}
	if liveTotal != live {
		t.Fatalf("byEvent live total %d != live %d", liveTotal, live)
	}
	if staleTotal != s.stale {
		t.Fatalf("stale counter %d != actual stale entries %d", s.stale, staleTotal)
	}
	if int(s.base-s.firstSeq) >= chunkSize {
		t.Fatalf("unretired dead chunk: base %d, firstSeq %d", s.base, s.firstSeq)
	}
	for seq := s.base; seq < s.frontier; seq++ {
		id := s.at(seq).EntityID()
		if got, ok := s.resolveLocked(id); !ok || got != seq {
			t.Fatalf("byEntity resolves %s to %d, want %d", id, got, seq)
		}
	}
}

// TestQuerySTPagesMatchOracle walks every cursor chain of random
// queries, paged and unpaged, for every retention variant: the chain
// must hold exactly the ScanTime∩ScanRegion oracle's instances, in
// strictly ascending sequence order, each page within its limit and
// below its frontier, with a cursor on every page but the last.
func TestQuerySTPagesMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		ret  Retention
	}{
		{name: "unbounded"},
		{name: "evicting", ret: Retention{MaxInstances: 150}},
		{name: "aged", ret: Retention{MaxAge: 120}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			s := randomStore(t, rng, 400, tc.ret)
			for trial := 0; trial < 80; trial++ {
				q := randomQuery(t, rng)
				if rng.Intn(2) == 0 {
					q.Limit = 1 + rng.Intn(20)
				}
				if got, want := pagedIDs(t, s, q), oracleST(s, q); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d (%+v): paged QueryST %v != oracle %v", trial, q, got, want)
				}
			}
		})
	}
}

// pagedIDs follows q's cursor chain to its end, checks each page's
// shape, and returns the sorted entity ids of every page.
func pagedIDs(t *testing.T, s *Store, q QuerySpec) []string {
	t.Helper()
	var all []event.Instance
	var prev uint64
	for page := 0; ; page++ {
		res, err := s.QueryST(q)
		if err != nil {
			t.Fatalf("page %d (%+v): %v", page, q, err)
		}
		if q.Limit > 0 && len(res.Instances) > q.Limit {
			t.Fatalf("page %d holds %d > limit %d", page, len(res.Instances), q.Limit)
		}
		for i, seq := range res.Seqs {
			if seq >= res.Frontier || (len(all)+i > 0 && seq <= prev) {
				t.Fatalf("page %d: seq %d breaks order (previous %d, frontier %d)", page, seq, prev, res.Frontier)
			}
			prev = seq
		}
		all = append(all, res.Instances...)
		if res.NextCursor == "" {
			return entityIDs(all)
		}
		if q.Limit == 0 || len(res.Instances) != q.Limit {
			t.Fatalf("page %d: cursor %q on a page of %d (limit %d)", page, res.NextCursor, len(res.Instances), q.Limit)
		}
		q.Cursor = res.NextCursor
	}
}

// TestHotEventChurnAmortized evicts 100k instances of a single hot
// event — every occurrence sharing one start tick, the worst case for
// the old per-instance binary-search-then-splice eviction (quadratic in
// the run length). With tombstone counting + periodic compaction the
// whole run completes in amortized O(1) per eviction; before the fix
// this test did not finish in any reasonable time.
func TestHotEventChurnAmortized(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: 1000})
	const total = 100_000
	occ := timemodel.At(42)
	for i := 0; i < total; i++ {
		in := inst("M", "E.hot", uint64(i+1), occ, spatial.AtPoint(float64(i%50), 0))
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	st := s.Stats()
	if st.Evicted != total-1000 {
		t.Fatalf("Evicted = %d, want %d", st.Evicted, total-1000)
	}
	if got := hotTime(t, s, "E.hot", 0, 100); len(got) != 1000 {
		t.Fatalf("time query after churn = %d, want 1000", len(got))
	}
	checkStoreInvariants(t, s)
}

// TestHotCellRetentionStaysFlat logs a stream whose every instance falls
// in one grid cell under a -db-max-instances style cap and compares the
// cost of LogBatch while the cell fills with its cost once every batch
// also evicts. Eviction retires the cell's oldest entry; when the grid
// removed by swap-with-last the cell's order scrambled and each eviction
// scanned half the cell — LogBatch ran tens of times slower full than
// filling (the ingest cliff on hot cells). With ordered cells eviction
// pops the front, and a full cell logs at about the cost of a filling
// one, whatever the cap.
func TestHotCellRetentionStaysFlat(t *testing.T) {
	const (
		maxInstances = 30_000
		batch        = 8
	)
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: maxInstances})
	next := uint64(0)
	logPhase := func(n int) time.Duration {
		ins := make([]event.Instance, batch)
		start := time.Now()
		for done := 0; done < n; done += batch {
			for i := range ins {
				next++
				ins[i] = inst("M", "E.hot", next, timemodel.At(timemodel.Tick(next)), spatial.AtPoint(3, 3))
			}
			if _, _, err := s.LogBatch(ins); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	filling := logPhase(maxInstances)
	logPhase(maxInstances) // settle into the steady state
	full := logPhase(maxInstances)
	if s.Len() != maxInstances || s.Stats().Evicted != 2*maxInstances {
		t.Fatalf("Len = %d, Evicted = %d, want %d and %d", s.Len(), s.Stats().Evicted, maxInstances, 2*maxInstances)
	}
	if full > 6*filling {
		t.Fatalf("LogBatch on a full hot cell: %v per %d instances, %v while filling (%.1f×): eviction is scanning the cell",
			full, maxInstances, filling, float64(full)/float64(filling))
	}
	t.Logf("filling %v, full %v (%.1f×)", filling, full, float64(full)/float64(filling))
	checkStoreInvariants(t, s)
}

// TestQuerySTConsistentUnderIngest runs queries concurrently with a
// batched writer on an unbounded store and asserts the bounded-
// staleness contract: every mid-ingest page must be byte-identical to
// the same query against the quiesced store restricted to sequence
// numbers below the frontier the page observed.
// TestQuerySTRegionFallthroughReleasesLock: a region query whose grid
// estimate is no cheaper than the sequential scan falls through to the
// log path. The probe lock (taken whenever a region predicate is
// present) must be released on that path too — a leaked reader blocks
// the next writer forever. Regression: the daemon deadlocked at
// shutdown after serving one broad region query over a small store.
func TestQuerySTRegionFallthroughReleasesLock(t *testing.T) {
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		in := inst("M0", "E0", uint64(i+1), timemodel.At(timemodel.Tick(i)),
			spatial.AtPoint(float64(i), float64(i)))
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	// A region covering every instance: the grid estimate cannot beat
	// the full scan, so the planner takes the log path.
	f, err := spatial.Rect(-100, -100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	region := spatial.InField(f)
	res, err := s.QueryST(QuerySpec{Region: &region, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != n || res.Index != "log" {
		t.Fatalf("region fallthrough = %d instances via %q, want %d via log", len(res.Instances), res.Index, n)
	}
	if !s.mu.TryLock() {
		t.Fatal("store left read-locked after a region query fell through to the log path")
	}
	s.mu.Unlock()
	// The writer path must still make progress.
	if err := s.Log(inst("M0", "E0", n+1, timemodel.At(100), spatial.AtPoint(0, 0))); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySTConsistentUnderIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	const total = 6000
	ins := make([]event.Instance, 0, total)
	for i := 0; i < total; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		in := inst(fmt.Sprintf("M%d", i%3), fmt.Sprintf("E%d", rng.Intn(4)), uint64(i+1),
			timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(50))),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100))
		in.Gen = timemodel.Tick(i)
		ins = append(ins, in)
	}
	queries := make([]QuerySpec, 16)
	qrng := rand.New(rand.NewSource(31))
	for i := range queries {
		queries[i] = randomQuery(t, qrng)
	}

	done := make(chan struct{})
	type observed struct {
		q   QuerySpec
		res Result
	}
	var results []observed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(queries)*40; i++ {
			q := queries[i%len(queries)]
			res, err := s.QueryST(q)
			if err != nil {
				t.Errorf("mid-ingest QueryST: %v", err)
				return
			}
			results = append(results, observed{q: q, res: res})
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for off := 0; off < total; {
		n := 1 + rng.Intn(64)
		if off+n > total {
			n = total - off
		}
		if n == 1 {
			if err := s.Log(ins[off]); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := s.LogBatch(ins[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	close(done)
	wg.Wait()

	for i, ob := range results {
		want, err := s.QueryST(ob.q)
		if err != nil {
			t.Fatal(err)
		}
		wantSeqs := make([]uint64, 0, len(want.Seqs))
		for _, seq := range want.Seqs {
			if seq < ob.res.Frontier {
				wantSeqs = append(wantSeqs, seq)
			}
		}
		gotSeqs := ob.res.Seqs
		if len(gotSeqs) == 0 {
			gotSeqs = nil
		}
		if len(wantSeqs) == 0 {
			wantSeqs = nil
		}
		if !reflect.DeepEqual(gotSeqs, wantSeqs) {
			t.Fatalf("result %d (%+v, frontier %d): mid-ingest seqs %v != quiesced prefix %v",
				i, ob.q, ob.res.Frontier, gotSeqs, wantSeqs)
		}
		for j, in := range ob.res.Instances {
			if quiesced := *s.loadView().at(ob.res.Seqs[j]); !reflect.DeepEqual(in, quiesced) {
				t.Fatalf("result %d seq %d: instance diverged from quiesced store", i, ob.res.Seqs[j])
			}
		}
	}
}

// TestStoreRaceStress drives every concurrent entry point at once —
// single and batched writes, single pages and whole cursor chains,
// retention flips, snapshots, scans — so the race detector can see any
// unsafe interleaving between the read plane and the write plane; once
// the writers stop, the same query shapes must match the oracle.
func TestStoreRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	const total = 20_000
	ins := make([]event.Instance, 0, total)
	for i := 0; i < total; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		in := inst(fmt.Sprintf("M%d", i%3), fmt.Sprintf("E%d", rng.Intn(4)), uint64(i+1),
			timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(50))),
			spatial.AtPoint(rng.Float64()*100, rng.Float64()*100))
		in.Gen = timemodel.Tick(i)
		ins = append(ins, in)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	region := spatial.InField(spatial.MustField(
		spatial.Pt(10, 10), spatial.Pt(80, 10), spatial.Pt(80, 80), spatial.Pt(10, 80)))
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(41 + r)))
			q := QuerySpec{Event: "E1", Region: &region, Window: &TimeWindow{From: 0, To: 800}, Limit: 64, Tier: TierHot}
			replay := QuerySpec{Limit: 128, Strict: true, Tier: TierHot}
			for {
				select {
				case <-done:
					return
				default:
				}
				switch qrng.Intn(6) {
				case 0:
					res, err := s.QueryST(q)
					if err != nil {
						t.Errorf("QueryST: %v", err)
						return
					}
					for i, in := range res.Instances {
						if in.Event != "E1" {
							t.Errorf("predicate violated at seq %d", res.Seqs[i])
							return
						}
						// The chunk walk and the index candidates abut at
						// the probed eviction base: no overlap, no reorder.
						if seq := res.Seqs[i]; seq >= res.Frontier || (i > 0 && seq <= res.Seqs[i-1]) {
							t.Errorf("seq %d at position %d breaks page order (frontier %d)", seq, i, res.Frontier)
							return
						}
					}
				case 1:
					// SSE-style strict catch-up: a stale cursor means the
					// retention window passed us — resync from scratch.
					res, err := s.QueryST(replay)
					if errors.Is(err, ErrStaleCursor) {
						replay.Cursor = ""
						continue
					}
					if err != nil {
						t.Errorf("replay QueryST: %v", err)
						return
					}
					// Bounded staleness on the log path too: a page never
					// reaches past the frontier it observed, in seq order.
					for i, seq := range res.Seqs {
						if seq >= res.Frontier || (i > 0 && seq <= res.Seqs[i-1]) {
							t.Errorf("replay seq %d at position %d breaks page order (frontier %d)", seq, i, res.Frontier)
							return
						}
					}
					if res.NextCursor != "" {
						replay.Cursor = res.NextCursor
					} else {
						replay.Cursor = ""
					}
				case 2:
					// The whole chain of q's pages, walked mid-ingest;
					// the oracle check runs once the writers stop.
					chain := q
					for {
						res, err := s.QueryST(chain)
						if err != nil {
							t.Errorf("QueryST chain: %v", err)
							return
						}
						if res.NextCursor == "" {
							break
						}
						chain.Cursor = res.NextCursor
					}
				case 3:
					_ = s.ScanTime("E2", 100, 400)
					_ = s.ScanRegion(region)
				case 4:
					_ = s.All()
					_ = s.Len()
					_ = s.Stats()
				case 5:
					if err := s.Snapshot(func(*event.Instance) error { return nil }); err != nil {
						t.Errorf("Snapshot: %v", err)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rrng := rand.New(rand.NewSource(43))
		for {
			select {
			case <-done:
				return
			default:
			}
			switch rrng.Intn(3) {
			case 0:
				s.SetRetention(Retention{MaxInstances: 500 + rrng.Intn(4000)})
			case 1:
				s.SetRetention(Retention{MaxAge: timemodel.Tick(1000 + rrng.Intn(10000))})
			default:
				s.SetRetention(Retention{})
			}
		}
	}()

	for off := 0; off < total; {
		n := 1 + rng.Intn(48)
		if off+n > total {
			n = total - off
		}
		if n == 1 {
			if err := s.Log(ins[off]); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := s.LogBatch(ins[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	close(done)
	wg.Wait()
	s.SetRetention(Retention{MaxInstances: 1500})
	checkStoreInvariants(t, s)
	for _, q := range []QuerySpec{
		{Event: "E1", Region: &region, Window: &TimeWindow{From: 0, To: 800}, Limit: 64, Tier: TierHot},
		{Event: "E2", Window: &TimeWindow{From: 100, To: 400}, Limit: 64, Tier: TierHot},
		{Region: &region, Limit: 64, Tier: TierHot},
	} {
		if got, want := pagedIDs(t, s, q), oracleST(s, q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v: paged QueryST %d ids != oracle %d ids", q, len(got), len(want))
		}
	}
}

// TestLogBatchMatchesLog pins the batched write path to the
// per-instance one: identical inputs produce identical seqs, fresh
// flags, dedup behavior, retention outcome and snapshot bytes.
func TestLogBatchMatchesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	one := randomStore(t, rng, 500, Retention{MaxInstances: 200})
	all := one.All()
	if len(all) != 200 {
		t.Fatalf("fixture: %d live", len(all))
	}

	rng = rand.New(rand.NewSource(47))
	batched, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	batched.SetRetention(Retention{MaxInstances: 200})
	var page []event.Instance
	for i := 0; i < 500; i++ {
		start := timemodel.Tick(rng.Intn(1000))
		length := timemodel.Tick(rng.Intn(50))
		var loc spatial.Location
		if rng.Intn(10) == 0 {
			x, y := rng.Float64()*90, rng.Float64()*90
			f, err := spatial.Rect(x, y, x+5+rng.Float64()*10, y+5+rng.Float64()*10)
			if err != nil {
				t.Fatal(err)
			}
			loc = spatial.InField(f)
		} else {
			loc = spatial.AtPoint(rng.Float64()*100, rng.Float64()*100)
		}
		in := inst(fmt.Sprintf("M%d", i%3), fmt.Sprintf("E%d", rng.Intn(4)), uint64(i+1),
			timemodel.MustBetween(start, start+length), loc)
		in.Gen = timemodel.Tick(i)
		page = append(page, in)
		if len(page) == 37 {
			if _, _, err := batched.LogBatch(page); err != nil {
				t.Fatal(err)
			}
			page = page[:0]
		}
	}
	if _, _, err := batched.LogBatch(page); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(batched.All(), all) {
		t.Fatal("batched ingest diverged from per-instance ingest")
	}

	// Duplicates: a re-sent batch returns the original seqs, none fresh.
	dup := batched.All()[:5]
	seqs, fresh, err := batched.LogBatch(dup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dup {
		want, ok := batched.SeqOf(&dup[i])
		if !ok || seqs[i] != want || fresh[i] {
			t.Fatalf("dup %d: seq=%d fresh=%v want seq=%d fresh=false", i, seqs[i], fresh[i], want)
		}
	}

	// An invalid instance anywhere fails the whole batch atomically.
	before := batched.Len()
	bad := []event.Instance{dup[0], {}}
	if _, _, err := batched.LogBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if batched.Len() != before {
		t.Fatal("failed batch mutated the store")
	}
}
