package sub

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// mkInst builds a valid point instance.
func mkInst(ev string, seq uint64, t timemodel.Tick, x, y float64, attrs event.Attrs) event.Instance {
	return event.Instance{
		Layer:      event.LayerSensor,
		Observer:   "OB",
		Event:      ev,
		Seq:        seq,
		Gen:        t,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        timemodel.At(t),
		Loc:        spatial.AtPoint(x, y),
		Attrs:      attrs,
		Confidence: 1,
	}
}

// drain polls every buffered delivery.
func drain(t *testing.T, s *Subscription) []Delivery {
	t.Helper()
	var out []Delivery
	for {
		d, ok, err := s.Poll()
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

func TestMatchPredicates(t *testing.T) {
	m := NewMatcher(Config{})
	region := spatial.InField(mustRect(t, 0, 0, 100, 100))
	s, err := m.Subscribe(Spec{
		Event:   "E.hot",
		Region:  &region,
		HasTime: true, From: 10, To: 20,
		Where: "e.temp > 30",
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := func(in event.Instance) { m.Publish(&in, in.Seq, true) }

	pub(mkInst("E.hot", 1, 15, 50, 50, event.Attrs{"temp": 40}))  // match
	pub(mkInst("E.cold", 2, 15, 50, 50, event.Attrs{"temp": 40})) // wrong event
	pub(mkInst("E.hot", 3, 30, 50, 50, event.Attrs{"temp": 40}))  // outside window
	pub(mkInst("E.hot", 4, 15, 500, 50, event.Attrs{"temp": 40})) // outside region
	pub(mkInst("E.hot", 5, 15, 50, 50, event.Attrs{"temp": 20}))  // condition false
	pub(mkInst("E.hot", 6, 15, 50, 50, nil))                      // condition errors
	pub(mkInst("E.hot", 7, 20, 0, 0, event.Attrs{"temp": 31}))    // boundary match

	got := drain(t, s)
	if len(got) != 2 || got[0].Inst.Seq != 1 || got[1].Inst.Seq != 7 {
		t.Fatalf("got %d deliveries %+v, want seqs 1 and 7", len(got), got)
	}
	if !got[0].HasCursor || got[0].Cursor != 1 {
		t.Fatalf("delivery cursor = %+v, want 1", got[0])
	}
	st := m.Stats()
	if st.Subscriptions != 1 || st.Published != 7 || st.Matched != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CondErrors != 1 {
		t.Fatalf("condErrors = %d, want 1", st.CondErrors)
	}
	ss := m.SubscriptionStats()
	if len(ss) != 1 || ss[0].Delivered != 2 || ss[0].Event != "E.hot" || !ss[0].HasRegion {
		t.Fatalf("substats = %+v", ss)
	}
}

// mustRect builds a rectangular field or fails the test.
func mustRect(t *testing.T, x1, y1, x2, y2 float64) spatial.Field {
	t.Helper()
	f, err := spatial.Rect(x1, y1, x2, y2)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAnyEventAndUnregioned(t *testing.T) {
	m := NewMatcher(Config{})
	all, err := m.Subscribe(Spec{}) // everything
	if err != nil {
		t.Fatal(err)
	}
	m.Publish(&[]event.Instance{mkInst("A", 1, 5, 0, 0, nil)}[0], 1, true)
	m.Publish(&[]event.Instance{mkInst("B", 2, 5, 9999, -9999, nil)}[0], 2, true)
	if got := drain(t, all); len(got) != 2 {
		t.Fatalf("any-event sub got %d deliveries, want 2", len(got))
	}
}

func TestDropOldestBackpressure(t *testing.T) {
	m := NewMatcher(Config{Buffer: 4})
	s, err := m.Subscribe(Spec{Event: "E"})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		in := mkInst("E", i, timemodel.Tick(i), 0, 0, nil)
		m.Publish(&in, i, true)
	}
	got := drain(t, s)
	if len(got) != 4 {
		t.Fatalf("got %d buffered, want 4", len(got))
	}
	for i, d := range got {
		if want := uint64(7 + i); d.Inst.Seq != want {
			t.Fatalf("delivery %d has seq %d, want %d (drop-oldest)", i, d.Inst.Seq, want)
		}
	}
	ss := m.SubscriptionStats()[0]
	if ss.Dropped != 6 || ss.Delivered != 10 {
		t.Fatalf("dropped=%d delivered=%d, want 6/10", ss.Dropped, ss.Delivered)
	}
}

func TestMultiCellFieldInstanceDeliveredOnce(t *testing.T) {
	m := NewMatcher(Config{Cell: 10})
	region := spatial.InField(mustRect(t, 0, 0, 100, 100)) // many cells
	s, err := m.Subscribe(Spec{Event: "E", Region: &region})
	if err != nil {
		t.Fatal(err)
	}
	// A field instance spanning several cells the subscription occupies.
	in := mkInst("E", 1, 5, 0, 0, nil)
	in.Loc = spatial.InField(mustRect(t, 5, 5, 55, 55))
	m.Publish(&in, 1, true)
	if got := drain(t, s); len(got) != 1 {
		t.Fatalf("field instance delivered %d times, want once", len(got))
	}
}

func TestUnsubscribeStopsDeliveryAndDrains(t *testing.T) {
	m := NewMatcher(Config{})
	s, err := m.Subscribe(Spec{Event: "E"})
	if err != nil {
		t.Fatal(err)
	}
	in := mkInst("E", 1, 5, 0, 0, nil)
	m.Publish(&in, 1, true)
	if !m.Unsubscribe(s.ID()) {
		t.Fatal("Unsubscribe reported missing sub")
	}
	if m.Len() != 0 {
		t.Fatalf("matcher still has %d subs", m.Len())
	}
	in2 := mkInst("E", 2, 6, 0, 0, nil)
	m.Publish(&in2, 2, true)

	// The pre-close delivery drains, then ErrClosed.
	d, ok, err := s.Poll()
	if err != nil || !ok || d.Inst.Seq != 1 {
		t.Fatalf("Poll after close = (%+v, %v, %v)", d, ok, err)
	}
	if _, _, err := s.Poll(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Poll on drained closed sub = %v, want ErrClosed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := s.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next on closed sub = %v, want ErrClosed", err)
	}
	// Closed-sub counters survive in the aggregate.
	if st := m.Stats(); st.Delivered != 1 {
		t.Fatalf("aggregate delivered = %d, want 1 (retired counters)", st.Delivered)
	}
}

func TestNextBlocksUntilDelivery(t *testing.T) {
	m := NewMatcher(Config{})
	s, err := m.Subscribe(Spec{Event: "E"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		in := mkInst("E", 42, 5, 0, 0, nil)
		m.Publish(&in, 42, true)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err := s.Next(ctx)
	if err != nil || d.Inst.Seq != 42 {
		t.Fatalf("Next = (%+v, %v)", d, err)
	}
}

// TestIndexedMatchesLinearOracle fuzzes subscriptions and instances and
// checks the indexed matcher delivers exactly what a linear scan over
// every subscription would.
func TestIndexedMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		m := NewMatcher(Config{Cell: 32, Buffer: 4096})
		type oracleSub struct {
			spec Spec
			s    *Subscription
			want []uint64
		}
		events := []string{"A", "B", "C", ""}
		var subs []*oracleSub
		for i := 0; i < 30; i++ {
			spec := Spec{Event: events[rng.Intn(len(events))]}
			if rng.Intn(2) == 0 {
				x, y := rng.Float64()*400-200, rng.Float64()*400-200
				var loc spatial.Location
				if rng.Intn(4) == 0 {
					loc = spatial.AtPoint(x, y) // point region
				} else {
					loc = spatial.InField(mustRect(t, x, y, x+rng.Float64()*150, y+rng.Float64()*150))
				}
				spec.Region = &loc
			}
			if rng.Intn(2) == 0 {
				spec.HasTime = true
				spec.From = timemodel.Tick(rng.Intn(50))
				spec.To = spec.From + timemodel.Tick(rng.Intn(60))
			}
			if rng.Intn(3) == 0 {
				spec.Where = "e.v > 0.5"
			}
			s, err := m.Subscribe(spec)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, &oracleSub{spec: spec, s: s})
		}
		for i := 0; i < 300; i++ {
			ev := events[rng.Intn(3)] // no empty event ids on instances
			in := mkInst(ev, uint64(i), timemodel.Tick(rng.Intn(100)),
				rng.Float64()*500-250, rng.Float64()*500-250,
				event.Attrs{"v": rng.Float64()})
			if rng.Intn(5) == 0 {
				x, y := rng.Float64()*400-200, rng.Float64()*400-200
				in.Loc = spatial.InField(mustRect(t, x, y, x+rng.Float64()*80, y+rng.Float64()*80))
			}
			m.Publish(&in, uint64(i), true)
			for _, os := range subs {
				if oracleMatch(os.spec, &in) {
					os.want = append(os.want, uint64(i))
				}
			}
		}
		for si, os := range subs {
			got := drain(t, os.s)
			if len(got) != len(os.want) {
				t.Fatalf("round %d sub %d (%+v): got %d deliveries, oracle %d",
					round, si, os.spec, len(got), len(os.want))
			}
			for i := range got {
				if got[i].Cursor != os.want[i] {
					t.Fatalf("round %d sub %d: delivery %d cursor %d, oracle %d",
						round, si, i, got[i].Cursor, os.want[i])
				}
			}
		}
	}
}

// oracleMatch is the linear-scan matching oracle: db.QuerySpec semantics
// plus the condition.
func oracleMatch(spec Spec, in *event.Instance) bool {
	if spec.Event != "" && spec.Event != in.Event {
		return false
	}
	if spec.HasTime && (in.Occ.Start() > spec.To || in.Occ.End() < spec.From) {
		return false
	}
	if spec.Region != nil && !spatial.OpJoint.Apply(in.Loc, *spec.Region) {
		return false
	}
	if spec.Where != "" {
		c, err := condition.Compile(condition.MustParse(spec.Where), condition.NewSlotMap([]string{CondRole}))
		if err != nil {
			return false
		}
		ok, err := c.Eval([]event.Entity{*in})
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func TestCatchUpReplayThenLive(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{ReplayPage: 3, Buffer: 1024})
	log := func(in event.Instance) uint64 {
		seq, fresh, err := store.LogSeq(in)
		if err != nil || !fresh {
			t.Fatalf("LogSeq: %v fresh=%v", err, fresh)
		}
		m.Publish(&in, seq, true)
		return seq
	}
	// History before the subscriber exists.
	for i := uint64(1); i <= 10; i++ {
		log(mkInst("E", i, timemodel.Tick(i), 0, 0, nil))
	}
	s, err := m.SubscribeFrom(Spec{Event: "E"}, store)
	if err != nil {
		t.Fatal(err)
	}
	// Live emissions while catch-up is still unconsumed.
	for i := uint64(11); i <= 15; i++ {
		log(mkInst("E", i, timemodel.Tick(i), 0, 0, nil))
	}
	got := drain(t, s)
	if len(got) != 15 {
		t.Fatalf("got %d deliveries, want 15 exactly-once (10 history + 5 live)", len(got))
	}
	for i, d := range got {
		if d.Inst.Seq != uint64(i+1) {
			t.Fatalf("delivery %d is seq %d, want %d", i, d.Inst.Seq, i+1)
		}
		// The pre-subscribe history must come from the replay; emissions
		// during the replay may arrive via a later replay page (their
		// live copies seam-dedup) or via the spliced live feed.
		if i < 10 && !d.Replayed {
			t.Fatalf("history delivery %d not marked Replayed", i)
		}
	}
	ss := m.SubscriptionStats()[0]
	if ss.Replayed < 10 {
		t.Fatalf("replayed = %d, want >= 10", ss.Replayed)
	}
}

func TestCatchUpFromCursorNoGapsNoDups(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{ReplayPage: 4})
	var lastCursor uint64
	log := func(i uint64) {
		in := mkInst("E", i, timemodel.Tick(i), 0, 0, nil)
		seq, _, err := store.LogSeq(in)
		if err != nil {
			t.Fatal(err)
		}
		m.Publish(&in, seq, true)
	}
	for i := uint64(1); i <= 6; i++ {
		log(i)
	}
	s1, err := m.SubscribeFrom(Spec{Event: "E"}, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drain(t, s1) {
		lastCursor = d.Cursor
	}
	s1.Close()

	// Missed while disconnected.
	for i := uint64(7); i <= 12; i++ {
		log(i)
	}
	s2, err := m.SubscribeFrom(Spec{Event: "E", Cursor: CursorString(lastCursor)}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(13); i <= 14; i++ {
		log(i)
	}
	got := drain(t, s2)
	if len(got) != 8 {
		t.Fatalf("resumed sub got %d deliveries, want 8 (seqs 7..14)", len(got))
	}
	for i, d := range got {
		if d.Inst.Seq != uint64(7+i) {
			t.Fatalf("resumed delivery %d is seq %d, want %d", i, d.Inst.Seq, 7+i)
		}
	}
}

// TestSeamDedup forces the duplicate window: an instance is logged and
// published while the catch-up replay is mid-flight, so it arrives both
// from the store page and from the live pending buffer — the
// cursor seam must keep exactly one copy.
func TestSeamDedup(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{ReplayPage: 2})
	log := func(i uint64) {
		in := mkInst("E", i, timemodel.Tick(i), 0, 0, nil)
		seq, _, err := store.LogSeq(in)
		if err != nil {
			t.Fatal(err)
		}
		m.Publish(&in, seq, true)
	}
	log(1)
	log(2)
	log(3) // three history items at page size 2 keep the replay open
	s, err := m.SubscribeFrom(Spec{Event: "E"}, store)
	if err != nil {
		t.Fatal(err)
	}
	// Logged after the subscription registered (so they land in the live
	// pending buffer) and before the replay's later pages run (so the
	// replay reads them from the store too): the classic seam overlap.
	log(4)
	log(5)
	got := drain(t, s)
	if len(got) != 5 {
		t.Fatalf("got %d deliveries, want 5 exactly-once", len(got))
	}
	for i, d := range got {
		if d.Inst.Seq != uint64(i+1) {
			t.Fatalf("delivery %d is seq %d, want %d", i, d.Inst.Seq, i+1)
		}
	}
	if ss := m.SubscriptionStats()[0]; ss.SeamDropped != 2 {
		t.Fatalf("seamDropped = %d, want 2 (seqs 4,5 arrived twice)", ss.SeamDropped)
	}
}

// TestCatchUpAppliesWhere: replayed rows pass the where condition the
// live path applies, and a rejected row still advances the seam.
func TestCatchUpAppliesWhere(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{})
	var last uint64
	for i, v := range []float64{1, 0} {
		if last, _, err = store.LogSeq(mkInst("E", uint64(i+1), timemodel.Tick(i), 0, 0, event.Attrs{"v": v})); err != nil {
			t.Fatal(err)
		}
	}
	s, err := m.SubscribeFrom(Spec{Event: "E", Where: "e.v > 0.5"}, store)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	if len(got) != 1 || got[0].Inst.Attrs["v"] != 1 {
		t.Fatalf("catch-up delivered %+v, want only the v=1 row", got)
	}
	s.mu.Lock()
	seam := s.seam
	s.mu.Unlock()
	if seam != last+1 {
		t.Fatalf("seam = %d, want %d: the rejected row must advance it", seam, last+1)
	}
}

// TestResumeDropsDelayedPublishAtCursor: a client resumed at cursor c
// already holds the instance at c, so an emission hook that publishes
// that instance only after the resume must not deliver it again.
func TestResumeDropsDelayedPublishAtCursor(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{})
	in := mkInst("E", 1, 1, 0, 0, nil)
	c, _, err := store.LogSeq(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.SubscribeFrom(Spec{Event: "E", Cursor: CursorString(c)}, store)
	if err != nil {
		t.Fatal(err)
	}
	m.Publish(&in, c, true) // the delayed emission hook
	if got := drain(t, s); len(got) != 0 {
		t.Fatalf("resume at cursor %d redelivered %+v", c, got)
	}
	if ss := m.SubscriptionStats()[0]; ss.SeamDropped != 1 {
		t.Fatalf("seamDropped = %d, want 1", ss.SeamDropped)
	}
}

// TestSeamKeepsInstancesDifferingOnlyInSeq: two stored instances are two
// deliveries even when they agree on everything but their own Seq, one
// replayed and one live.
func TestSeamKeepsInstancesDifferingOnlyInSeq(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(Config{})
	log := func(in event.Instance) {
		seq, fresh, err := store.LogSeq(in)
		if err != nil || !fresh {
			t.Fatalf("LogSeq: %v fresh=%v", err, fresh)
		}
		m.Publish(&in, seq, true)
	}
	first := mkInst("E", 1, 5, 0, 0, nil)
	log(first)
	s, err := m.SubscribeFrom(Spec{Event: "E"}, store)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	second := first
	second.Seq = 2
	log(second)
	got = append(got, drain(t, s)...)
	if len(got) != 2 || got[0].Inst.Seq != 1 || !got[0].Replayed || got[1].Inst.Seq != 2 || got[1].Replayed {
		t.Fatalf("got %+v, want seq 1 replayed then seq 2 live", got)
	}
}

func TestStaleCursorSurfaces(t *testing.T) {
	store, err := db.New(16)
	if err != nil {
		t.Fatal(err)
	}
	store.SetRetention(db.Retention{MaxInstances: 4})
	m := NewMatcher(Config{})
	for i := uint64(1); i <= 12; i++ {
		if err := store.Log(mkInst("E", i, timemodel.Tick(i), 0, 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Seqs 0..7 are evicted; cursor 2 points below retained history.
	if _, err := m.SubscribeFrom(Spec{Event: "E", Cursor: "2"}, store); !errors.Is(err, db.ErrStaleCursor) {
		t.Fatalf("SubscribeFrom with evicted cursor = %v, want ErrStaleCursor", err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed subscribe left %d subs registered", m.Len())
	}
	// The eviction frontier itself is a clean resume.
	s, err := m.SubscribeFrom(Spec{Event: "E", Cursor: "7"}, store)
	if err != nil {
		t.Fatalf("SubscribeFrom at frontier: %v", err)
	}
	if got := drain(t, s); len(got) != 4 {
		t.Fatalf("frontier resume got %d, want 4", len(got))
	}
	if _, err := m.SubscribeFrom(Spec{Event: "E", Cursor: "bogus"}, store); !errors.Is(err, db.ErrBadCursor) {
		t.Fatalf("bogus cursor = %v, want ErrBadCursor", err)
	}
	if _, err := m.SubscribeFrom(Spec{Event: "E"}, nil); !errors.Is(err, ErrNoStore) {
		t.Fatalf("nil store = %v, want ErrNoStore", err)
	}
	for _, spec := range []Spec{{Event: "E", Replay: true}, {Event: "E", Cursor: "7"}} {
		if _, err := m.Subscribe(spec); !errors.Is(err, ErrNoStore) {
			t.Fatalf("live Subscribe(%+v) = %v, want ErrNoStore", spec, err)
		}
	}
}

func TestBadWhereFailsSubscribe(t *testing.T) {
	m := NewMatcher(Config{})
	if _, err := m.Subscribe(Spec{Where: "x.temp > 30"}); err == nil {
		t.Fatal("condition over unknown role must fail Subscribe")
	}
	if _, err := m.Subscribe(Spec{Where: "e.temp >"}); err == nil {
		t.Fatal("unparseable condition must fail Subscribe")
	}
}

// TestPublishProbeNoAllocs pins the index-probe hot path at zero
// allocations: a point instance probing a populated index, with and
// without a delivery.
func TestPublishProbeNoAllocs(t *testing.T) {
	m := NewMatcher(Config{Cell: 64, Buffer: 64})
	for i := 0; i < 1000; i++ {
		x, y := float64(i%32)*64, float64(i/32)*64
		region := spatial.InField(mustRect(t, x, y, x+63, y+63))
		if _, err := m.Subscribe(Spec{Event: fmt.Sprintf("E%d", i%16), Region: &region}); err != nil {
			t.Fatal(err)
		}
	}
	miss := mkInst("E.none", 1, 5, 100, 100, nil)
	if got := testing.AllocsPerRun(200, func() { m.Publish(&miss, 1, true) }); got != 0 {
		t.Fatalf("miss probe allocates %.1f/op, want 0", got)
	}
	hitSub, err := m.Subscribe(Spec{Event: "E.hit"})
	if err != nil {
		t.Fatal(err)
	}
	hit := mkInst("E.hit", 2, 5, 100, 100, nil)
	// Warm the ring to steady state (lazy growth allocates early).
	for i := 0; i < 200; i++ {
		m.Publish(&hit, uint64(i), true)
	}
	if got := testing.AllocsPerRun(200, func() { m.Publish(&hit, 3, true) }); got != 0 {
		t.Fatalf("hit probe+deliver allocates %.1f/op, want 0", got)
	}
	_ = hitSub
}

// TestPublishRegionHitNoAllocs extends the zero-allocation pin to the
// grid probe's hit path: a point instance delivered to region-scoped
// subscriptions, the shape of an SSE subscriber with a region.
func TestPublishRegionHitNoAllocs(t *testing.T) {
	m := NewMatcher(Config{Cell: 64, Buffer: 64})
	for i := 0; i < 4; i++ {
		region := spatial.InField(mustRect(t, float64(i), 0, 200, 200))
		if _, err := m.Subscribe(Spec{Event: "E", Region: &region}); err != nil {
			t.Fatal(err)
		}
	}
	hit := mkInst("E", 1, 5, 100, 100, nil)
	for i := 0; i < 200; i++ {
		m.Publish(&hit, uint64(i), true)
	}
	if got := testing.AllocsPerRun(200, func() { m.Publish(&hit, 3, true) }); got != 0 {
		t.Fatalf("region hit probe+deliver allocates %.1f/op, want 0", got)
	}
	if st := m.Stats(); st.Matched != 4*(200+201) {
		t.Fatalf("matched = %d, want %d", st.Matched, 4*(200+201))
	}
}

// TestConcurrentPublishSubscribe exercises the matcher under -race:
// concurrent publishers, subscribers joining/leaving, and consumers.
func TestConcurrentPublishSubscribe(t *testing.T) {
	m := NewMatcher(Config{Buffer: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				in := mkInst(fmt.Sprintf("E%d", i%3), uint64(p*1_000_000+i), timemodel.Tick(i), float64(i%100), 0, nil)
				m.Publish(&in, uint64(i), true)
			}
		}(p)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := m.Subscribe(Spec{Event: fmt.Sprintf("E%d", i%3)})
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, _ = s.Next(ctx)
				cancel()
				s.Close()
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := m.Stats(); st.Subscriptions != 0 {
		t.Fatalf("leaked %d subscriptions", st.Subscriptions)
	}
}

// TestConcurrentRegionProbes runs grid probes from several publishers
// at once (they share the matcher's read lock) while region-scoped
// subscriptions insert into and remove from the same grid; run it under
// -race.
func TestConcurrentRegionProbes(t *testing.T) {
	m := NewMatcher(Config{Cell: 8, Buffer: 16})
	region := spatial.InField(mustRect(t, 0, 0, 50, 50))
	keep, err := m.Subscribe(Spec{Event: "E", Region: &region})
	if err != nil {
		t.Fatal(err)
	}
	const perPublisher = 2000
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				in := mkInst("E", uint64(i), 5, float64(i%40), float64(p), nil)
				m.Publish(&in, uint64(i), true)
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := spatial.Rect(float64(i%40), 0, float64(i%40+c+1), 10)
				if err != nil {
					t.Error(err)
					return
				}
				r := spatial.InField(f)
				s, err := m.Subscribe(Spec{Event: "E", Region: &r})
				if err != nil {
					t.Error(err)
					return
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
	if st := keep.Stats(); st.Delivered != 4*perPublisher {
		t.Fatalf("standing region sub delivered %d, want %d", st.Delivered, 4*perPublisher)
	}
}

// TestExtremeCoordinates pins the clamp on the float→cell conversion: a
// subscription region (or instance location) at ±1e21 must neither
// index at a wrapped garbage cell (silently dead subscription) nor make
// the probe enumerate an astronomically wide cell rectangle.
func TestExtremeCoordinates(t *testing.T) {
	m := NewMatcher(Config{})
	huge := spatial.InField(mustRect(t, -1e21, -1e21, 1e21, 1e21))
	s, err := m.Subscribe(Spec{Event: "E", Region: &huge})
	if err != nil {
		t.Fatal(err)
	}
	small := spatial.InField(mustRect(t, 0, 0, 10, 10))
	s2, err := m.Subscribe(Spec{Event: "E", Region: &small})
	if err != nil {
		t.Fatal(err)
	}
	// An ordinary instance must reach the huge-region subscription.
	in := mkInst("E", 1, 5, 3, 3, nil)
	m.Publish(&in, 1, true)
	if got := drain(t, s); len(got) != 1 {
		t.Fatalf("huge-region sub got %d deliveries, want 1", len(got))
	}
	// An instance with a near-infinite footprint must probe in bounded
	// time (populated-cell fallback) and still match exactly.
	in2 := mkInst("E", 2, 5, 0, 0, nil)
	in2.Loc = spatial.InField(mustRect(t, -1e21, -1e21, 1e21, 1e21))
	done := make(chan struct{})
	go func() { m.Publish(&in2, 2, true); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish of a huge-footprint instance did not return (unbounded cell walk)")
	}
	if got := drain(t, s2); len(got) != 2 {
		t.Fatalf("small-region sub got %d deliveries, want 2 (point + huge field)", len(got))
	}
}

func TestHandleAccessors(t *testing.T) {
	m := NewMatcher(Config{})
	spec := Spec{Event: "E", Where: "e.v > 0"}
	s, err := m.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Get(s.ID()); !ok || got != s {
		t.Fatalf("Get(%d) = (%v, %v)", s.ID(), got, ok)
	}
	if s.Spec().Event != "E" || s.Spec().Where != spec.Where {
		t.Fatalf("Spec() = %+v", s.Spec())
	}
	if st := s.Stats(); st.ID != s.ID() || st.Capacity != DefaultBuffer || st.Where != spec.Where {
		t.Fatalf("Stats() = %+v", st)
	}
	select {
	case <-s.Done():
		t.Fatal("Done closed before Close")
	default:
	}
	in := mkInst("E", 1, 5, 0, 0, event.Attrs{"v": 1})
	m.Publish(&in, 1, true)
	select {
	case <-s.Notify():
	default:
		t.Fatal("Notify carried no token after a delivery")
	}
	s.Close()
	select {
	case <-s.Done():
	default:
		t.Fatal("Done still open after Close")
	}
	if _, ok := m.Get(s.ID()); ok {
		t.Fatal("Get resolved a closed subscription")
	}
	s.Close() // idempotent
}

func BenchmarkPublishIndexed10k(b *testing.B) {
	m := NewMatcher(Config{Cell: 64})
	for i := 0; i < 10_000; i++ {
		x, y := float64(i%100)*40, float64(i/100)*40
		f, err := spatial.Rect(x, y, x+39, y+39)
		if err != nil {
			b.Fatal(err)
		}
		region := spatial.InField(f)
		if _, err := m.Subscribe(Spec{Event: fmt.Sprintf("E%d", i%64), Region: &region}); err != nil {
			b.Fatal(err)
		}
	}
	in := mkInst("E7", 1, 5, 500, 500, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Publish(&in, uint64(i), true)
	}
}
