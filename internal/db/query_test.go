package db

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// randomStore fills a store with n random instances over four events:
// mostly points, some field occurrences, occurrence windows in
// [0,1000+50].
func randomStore(t *testing.T, rng *rand.Rand, n int, ret Retention) *Store {
	t.Helper()
	s, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(ret)
	for i := 0; i < n; i++ {
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
		in.Gen = timemodel.Tick(i) // arrival order = generation order
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func entityIDs(list []event.Instance) []string {
	out := make([]string, len(list))
	for i, in := range list {
		out[i] = in.EntityID()
	}
	sort.Strings(out)
	return out
}

// oracleST is the unindexed reference: ScanTime ∩ ScanRegion, the
// composition the issue names as the ground truth for QueryST.
func oracleST(s *Store, q QuerySpec) []string {
	var timeSide []event.Instance
	if q.Window != nil {
		timeSide = s.ScanTime(q.Event, q.Window.From, q.Window.To)
	} else {
		timeSide = s.ScanTime(q.Event, 0, timemodel.Tick(1<<62))
	}
	ids := entityIDs(timeSide)
	if q.Region == nil {
		return ids
	}
	inRegion := make(map[string]bool)
	for _, in := range s.ScanRegion(*q.Region) {
		inRegion[in.EntityID()] = true
	}
	var out []string
	for _, id := range ids {
		if inRegion[id] {
			out = append(out, id)
		}
	}
	return out
}

// randomQuery builds a random subset of {event, region, window}.
func randomQuery(t *testing.T, rng *rand.Rand) QuerySpec {
	t.Helper()
	q := QuerySpec{Tier: TierHot}
	if rng.Intn(3) > 0 {
		q.Event = fmt.Sprintf("E%d", rng.Intn(4))
	}
	if rng.Intn(3) > 0 {
		x, y := rng.Float64()*80, rng.Float64()*80
		w := 5 + rng.Float64()*30
		f, err := spatial.Rect(x, y, x+w, y+w)
		if err != nil {
			t.Fatal(err)
		}
		loc := spatial.InField(f)
		q.Region = &loc
	}
	if rng.Intn(3) > 0 {
		from := timemodel.Tick(rng.Intn(1000))
		q.Window = &TimeWindow{From: from, To: from + timemodel.Tick(rng.Intn(300))}
	}
	return q
}

// TestQuerySTMatchesOracle is the differential test: QueryST must equal
// the ScanTime∩ScanRegion oracle over randomized instance sets, regions
// and windows — on an unbounded store and on a retention-evicted one.
func TestQuerySTMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		ret  Retention
	}{
		{name: "unbounded"},
		{name: "evicting", ret: Retention{MaxInstances: 150}},
		{name: "aged", ret: Retention{MaxAge: 120}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			s := randomStore(t, rng, 400, tc.ret)
			if tc.ret.MaxInstances > 0 && s.Len() != tc.ret.MaxInstances {
				t.Fatalf("Len = %d, want retention cap %d", s.Len(), tc.ret.MaxInstances)
			}
			for trial := 0; trial < 60; trial++ {
				q := randomQuery(t, rng)
				res, err := s.QueryST(q)
				if err != nil {
					t.Fatal(err)
				}
				got := entityIDs(res.Instances)
				want := oracleST(s, q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d (%+v, index=%s): QueryST %d ids != oracle %d ids",
						trial, q, res.Index, len(got), len(want))
				}
			}
		})
	}
}

// TestQuerySTPagination walks a query through pages and asserts the
// concatenation equals the unpaginated result, in arrival order.
func TestQuerySTPagination(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randomStore(t, rng, 300, Retention{})
	region := spatial.InField(spatial.MustField(
		spatial.Pt(10, 10), spatial.Pt(80, 10), spatial.Pt(80, 80), spatial.Pt(10, 80)))
	base := QuerySpec{Event: "E1", Region: &region, Window: &TimeWindow{From: 100, To: 900}, Tier: TierHot}

	full, err := s.QueryST(base)
	if err != nil {
		t.Fatal(err)
	}
	if full.NextCursor != "" {
		t.Fatalf("unlimited query returned a cursor %q", full.NextCursor)
	}
	if len(full.Instances) == 0 {
		t.Fatal("query matched nothing; broaden the fixture")
	}

	var pages []event.Instance
	q := base
	q.Limit = 7
	for {
		res, err := s.QueryST(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Instances) > q.Limit {
			t.Fatalf("page of %d exceeds limit %d", len(res.Instances), q.Limit)
		}
		pages = append(pages, res.Instances...)
		if res.NextCursor == "" {
			break
		}
		q.Cursor = res.NextCursor
	}
	if len(pages) != len(full.Instances) {
		t.Fatalf("paged %d != full %d", len(pages), len(full.Instances))
	}
	for i := range pages {
		if pages[i].EntityID() != full.Instances[i].EntityID() {
			t.Fatalf("page order diverges at %d", i)
		}
	}

	if _, err := s.QueryST(QuerySpec{Cursor: "not-a-seq", Tier: TierHot}); !errors.Is(err, ErrBadCursor) {
		t.Errorf("bad cursor err = %v", err)
	}
	if res, err := s.QueryST(QuerySpec{Window: &TimeWindow{From: 10, To: 5}, Tier: TierHot}); err != nil || len(res.Instances) != 0 {
		t.Errorf("inverted window = %v, %v", res.Instances, err)
	}

	// Forged cursors past the live range (including values above
	// MaxInt64, which would wrap an int conversion) must yield a clean
	// empty page, never a panic.
	for _, cursor := range []string{
		"9223372036854775808",  // 2^63
		"18446744073709551615", // MaxUint64
		"400",                  // just past the data
	} {
		res, err := s.QueryST(QuerySpec{Cursor: cursor, Limit: 5, Tier: TierHot})
		if err != nil {
			t.Fatalf("cursor %s: %v", cursor, err)
		}
		if len(res.Instances) != 0 || res.NextCursor != "" {
			t.Errorf("cursor %s returned %d instances, cursor %q", cursor, len(res.Instances), res.NextCursor)
		}
		if res.Instances == nil {
			t.Errorf("cursor %s: Instances nil, want empty slice for stable JSON", cursor)
		}
	}
	if res, _ := s.QueryST(QuerySpec{Window: &TimeWindow{From: 10, To: 5}, Tier: TierHot}); res.Instances == nil {
		t.Error("inverted window: Instances nil, want empty slice")
	}
}

// TestQuerySTOpenEndedWindow regresses the time-window floor underflow:
// an open-ended From (MinInt64, what the HTTP handler sends when only
// `to` is given) must not wrap positive when the event has interval
// instances (maxDur > 0) and empty the window.
func TestQuerySTOpenEndedWindow(t *testing.T) {
	s, _ := New(0)
	if err := s.Log(inst("M", "E1", 1, timemodel.MustBetween(10, 20), spatial.AtPoint(0, 0))); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryST(QuerySpec{Event: "E1", Window: &TimeWindow{From: math.MinInt64, To: 100}, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("open-ended window found %d instances (index=%s), want 1", len(res.Instances), res.Index)
	}
	// Open-ended To as well.
	res, err = s.QueryST(QuerySpec{Event: "E1", Window: &TimeWindow{From: 0, To: math.MaxInt64}, Tier: TierHot})
	if err != nil || len(res.Instances) != 1 {
		t.Fatalf("open-ended To = %d instances, %v", len(res.Instances), err)
	}
	if got := hotTime(t, s, "E1", math.MinInt64, 100); len(got) != 1 {
		t.Fatalf("open-ended From = %d", len(got))
	}
}

// TestQuerySTCursorSurvivesEviction pages across a store that evicts
// between pages: later pages must stay disjoint from and ordered after
// earlier ones.
func TestQuerySTCursorSurvivesEviction(t *testing.T) {
	s, _ := New(8)
	s.SetRetention(Retention{MaxInstances: 100})
	log := func(lo, n int) {
		for i := lo; i < lo+n; i++ {
			in := inst("M", "E", uint64(i+1), timemodel.At(timemodel.Tick(i)),
				spatial.AtPoint(float64(i%50), 0))
			in.Gen = timemodel.Tick(i)
			if err := s.Log(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	log(0, 100)
	q := QuerySpec{Event: "E", Limit: 10, Tier: TierHot}
	page1, err := s.QueryST(q)
	if err != nil {
		t.Fatal(err)
	}
	log(100, 50) // evicts the 50 oldest, including part of page 1
	q.Cursor = page1.NextCursor
	page2, err := s.QueryST(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, in := range page1.Instances {
		seen[in.EntityID()] = true
	}
	for _, in := range page2.Instances {
		if seen[in.EntityID()] {
			t.Fatalf("instance %s repeated across pages", in.EntityID())
		}
	}
	if len(page2.Instances) == 0 {
		t.Fatal("page 2 empty")
	}
	if first := page2.Instances[0].Seq; first <= page1.Instances[len(page1.Instances)-1].Seq {
		t.Fatalf("page 2 starts at seq %d, not after page 1", first)
	}
}

// TestQuerySTIndexSelection pins the planner's choices on a store where
// the cheap side is known.
func TestQuerySTIndexSelection(t *testing.T) {
	s, _ := New(8)
	// 200 instances of E.busy spread over time at x=0..99; 2 instances
	// of E.rare in a far corner.
	for i := 0; i < 200; i++ {
		_ = s.Log(inst("M", "E.busy", uint64(i+1), timemodel.At(timemodel.Tick(i)),
			spatial.AtPoint(float64(i%100), 0)))
	}
	for i := 0; i < 2; i++ {
		_ = s.Log(inst("M", "E.rare", uint64(i+1), timemodel.At(timemodel.Tick(i)),
			spatial.AtPoint(500, 500)))
	}
	corner, _ := spatial.Rect(495, 495, 505, 505)
	cornerLoc := spatial.InField(corner)
	res, err := s.QueryST(QuerySpec{Event: "E.busy", Region: &cornerLoc, Window: &TimeWindow{From: 0, To: 1000}, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "region" {
		t.Errorf("corner query used %q index (scanned %d), want region", res.Index, res.Scanned)
	}
	if len(res.Instances) != 0 {
		t.Errorf("corner query matched %d E.busy", len(res.Instances))
	}

	wide, _ := spatial.Rect(-10, -10, 110, 10)
	wideLoc := spatial.InField(wide)
	res, err = s.QueryST(QuerySpec{Event: "E.rare", Region: &wideLoc, Window: &TimeWindow{From: 0, To: 10}, Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "time" {
		t.Errorf("rare-event query used %q index (scanned %d), want time", res.Index, res.Scanned)
	}
	if res.Scanned > 5 {
		t.Errorf("rare-event query scanned %d candidates", res.Scanned)
	}

	// No predicates at all: sequential log path, everything returned.
	res, err = s.QueryST(QuerySpec{Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "log" || len(res.Instances) != 202 {
		t.Errorf("empty query: index=%q n=%d", res.Index, len(res.Instances))
	}
}

// TestRetentionConsistency hammers a bounded store and asserts every
// index agrees with the live log afterwards: far past the cap, and at
// the steady state of logging exactly twice the cap.
func TestRetentionConsistency(t *testing.T) {
	for _, tc := range []struct{ logged, cap int }{{2000, 100}, {2000, 1000}} {
		rng := rand.New(rand.NewSource(17))
		s := randomStore(t, rng, tc.logged, Retention{MaxInstances: tc.cap})
		if s.Len() != tc.cap {
			t.Fatalf("logged %d, cap %d: Len = %d", tc.logged, tc.cap, s.Len())
		}
		st := s.Stats()
		if st.Instances != tc.cap || st.Evicted != uint64(tc.logged-tc.cap) {
			t.Fatalf("logged %d, cap %d: stats = %+v", tc.logged, tc.cap, st)
		}
		// The time index may hold stale (evicted) entries between
		// compaction sweeps; checkStoreInvariants asserts the full
		// live/stale contract.
		checkStoreInvariants(t, s)
	}
}

// TestQuerySTIndexedAtScale runs the combined region×time retrieval
// shape of the retired E9 benchmark (BENCH_2.json) at 20k instances: 64
// events over a 4096² space, occurrences of up to 100 ticks anywhere in
// a million-tick span, queried by one event, a 256² region and a window
// of 1/50 of the span. Every answer must equal the unindexed oracle, and
// the planner's candidate count must stay a small fraction of the store
// — the index win, asserted as work done instead of as a clock ratio.
func TestQuerySTIndexedAtScale(t *testing.T) {
	const (
		n        = 20_000
		nEvents  = 64
		nQueries = 64
		space    = 4096.0
		span     = 1_000_000
	)
	rng := rand.New(rand.NewSource(9))
	s, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		start := timemodel.Tick(rng.Int63n(span))
		in := inst(fmt.Sprintf("M%d", i%257), fmt.Sprintf("E%d", rng.Intn(nEvents)), uint64(i),
			timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(100))),
			spatial.AtPoint(rng.Float64()*space, rng.Float64()*space))
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	hits, scanned := 0, 0
	for i := 0; i < nQueries; i++ {
		x, y := rng.Float64()*(space-256), rng.Float64()*(space-256)
		f, err := spatial.Rect(x, y, x+256, y+256)
		if err != nil {
			t.Fatal(err)
		}
		region := spatial.InField(f)
		from := timemodel.Tick(rng.Int63n(span))
		q := QuerySpec{
			Event: fmt.Sprintf("E%d", rng.Intn(nEvents)), Region: &region,
			Window: &TimeWindow{From: from, To: from + span/50},
		}
		// The combined shape rarely matches at this size, so its time
		// half is checked too: alone it matches a handful per query.
		for _, q := range []QuerySpec{q, {Event: q.Event, Window: q.Window}} {
			res, err := s.QueryST(q)
			if err != nil {
				t.Fatal(err)
			}
			got, want := entityIDs(res.Instances), oracleST(s, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("query %d %+v (index=%s): QueryST %d ids != oracle %d ids", i, q, res.Index, len(got), len(want))
			}
			if res.Scanned > n/100 {
				t.Fatalf("query %d %+v (index=%s): scanned %d candidates of %d instances", i, q, res.Index, res.Scanned, n)
			}
			hits += len(res.Instances)
			scanned += res.Scanned
		}
	}
	if hits == 0 {
		t.Fatal("no query matched anything; the differential proved nothing")
	}
	t.Logf("%d hits, %d candidates scanned over %d query draws", hits, scanned, nQueries)
}

// TestRetentionMaxAge evicts by generation-time age.
func TestRetentionMaxAge(t *testing.T) {
	s, _ := New(0)
	s.SetRetention(Retention{MaxAge: 50})
	for i := 0; i < 10; i++ {
		in := inst("M", "E", uint64(i+1), timemodel.At(timemodel.Tick(i*10)), spatial.AtPoint(0, 0))
		in.Gen = timemodel.Tick(i * 10)
		if err := s.Log(in); err != nil {
			t.Fatal(err)
		}
	}
	// Gens 0..90 with MaxAge 50: gens < 90-50 = 40 evicted.
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if _, ok := s.SeqOf(&event.Instance{Observer: "M", Event: "E", Seq: 1}); ok {
		t.Error("evicted instance still resolvable")
	}
	if got := hotTime(t, s, "E", 0, 1000); len(got) != 6 {
		t.Errorf("time query after aging = %d", len(got))
	}
}

// TestTimeIndexPagesMatchOracle pages the time-index path where its
// candidates leave the index out of sequence order: occurrence starts
// falling as sequence numbers rise, starts alternating between the two
// ends of the window, and every start tied. The lowest sequence numbers
// lie outside the query region, so the first candidates popped fail
// verification. A dense field of another event inside the region keeps
// the planner on the time index. Every cursor chain must equal the
// oracle.
func TestTimeIndexPagesMatchOracle(t *testing.T) {
	for name, start := range map[string]func(i int) timemodel.Tick{
		"reverse":     func(i int) timemodel.Tick { return timemodel.Tick(1000 - i) },
		"interleaved": func(i int) timemodel.Tick { return timemodel.Tick(500 + (i%2*2-1)*i) },
		"tied":        func(int) timemodel.Tick { return 700 },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := New(8)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				loc := spatial.AtPoint(float64(i%50), float64(i/8))
				if err := s.Log(inst("MF", "F", uint64(i+1), timemodel.At(timemodel.Tick(i)), loc)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				loc := spatial.AtPoint(float64(i%40), 10) // inside the region
				if i < 60 {
					loc = spatial.AtPoint(200, 200)
				}
				occ := timemodel.MustBetween(start(i), start(i)+timemodel.Tick(i%5))
				if i == 7 {
					occ = timemodel.MustBetween(start(i), start(i)+400) // widens every window's index range
				}
				if err := s.Log(inst("ME", "E", uint64(i+1), occ, loc)); err != nil {
					t.Fatal(err)
				}
			}
			region := spatial.InField(spatial.MustField(spatial.Pt(0, 0), spatial.Pt(50, 0), spatial.Pt(50, 50), spatial.Pt(0, 50)))
			matched := 0
			for _, w := range []*TimeWindow{nil, {From: 0, To: 2000}, {From: 650, To: 900}, {From: 700, To: 700}, {From: 850, To: 860}} {
				for _, limit := range []int{0, 1, 3, 7} {
					for _, r := range []*spatial.Location{nil, &region} {
						q := QuerySpec{Event: "E", Region: r, Window: w, Limit: limit, Tier: TierHot}
						if res, err := s.QueryST(q); err != nil || res.Index != "time" {
							t.Fatalf("%+v: index %q, err %v; want the time index", q, res.Index, err)
						}
						if got, want := pagedIDs(t, s, q), oracleST(s, q); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%+v: paged QueryST %v != oracle %v", q, got, want)
						} else if r != nil && w != nil {
							matched += len(got)
						}
					}
				}
			}
			if matched == 0 {
				t.Fatal("no region and window query matched; the test is vacuous")
			}
		})
	}
}
