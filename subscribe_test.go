package stcps

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
)

// subTestDetect declares the pass-through detector the subscription
// tests observe: one instance per observation, deterministically.
func subTestDetect(t *testing.T, eng *Engine) {
	t.Helper()
	if err := eng.Detect(LayerSensor, EventSpec{
		ID:    "E.obs",
		Roles: []Role{{Name: "x", Source: "S", Window: 1}},
		When:  "x.v > -1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Detect(LayerSensor, EventSpec{
		ID:    "E.high",
		Roles: []Role{{Name: "x", Source: "S", Window: 1}},
		When:  "x.v > 0.5",
	}); err != nil {
		t.Fatal(err)
	}
}

// fuzzObs builds the deterministic fuzzed observation stream.
func fuzzObs(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, n)
	for i := range out {
		out[i] = Observation{
			Mote:   "M",
			Sensor: "S",
			Seq:    uint64(i),
			Time:   At(Tick(i + 1)),
			Loc:    AtPoint(rng.Float64()*100, rng.Float64()*100),
			Attrs:  Attrs{"v": rng.Float64()},
		}
	}
	return out
}

// encodeAll renders instances in the canonical wire form for the
// byte-identical comparison.
func encodeAll(t *testing.T, insts []Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range insts {
		data, err := event.EncodeInstance(insts[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSubscriberDifferentialVsQueryST is the acceptance differential:
// for a fuzzed stream, the set of instances a subscriber receives —
// catch-up replay plus live push, across a forced disconnect/reconnect
// mid-stream — is byte-identical to a QueryST of the same
// event/region/window on an uninterrupted run. No gaps, no duplicates.
func TestSubscriberDifferentialVsQueryST(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		const n = 400
		stream := fuzzObs(seed, n)
		region := func() *Location {
			f, err := Rect(25, 25, 75, 75)
			if err != nil {
				t.Fatal(err)
			}
			loc := InField(f)
			return &loc
		}()
		q := QuerySpec{Event: "E.obs", Region: region, Window: &TimeWindow{From: 100, To: 350}, Tier: TierHot}

		// Uninterrupted oracle run.
		oracleEng, err := NewEngine(EngineConfig{Observer: "X", WithStore: true})
		if err != nil {
			t.Fatal(err)
		}
		subTestDetect(t, oracleEng)
		for i := range stream {
			if _, err := oracleEng.Observe(stream[i]); err != nil {
				t.Fatal(err)
			}
		}
		oracleEng.Flush(Tick(n + 1))
		oracleRes, err := oracleEng.QueryST(q)
		if err != nil {
			t.Fatal(err)
		}
		oracle := encodeAll(t, oracleRes.Instances)
		if len(oracleRes.Instances) == 0 {
			t.Fatalf("seed %d: oracle query matched nothing — test stream too narrow", seed)
		}

		// Subscriber run: same stream, with a disconnect/reconnect.
		eng, err := NewEngine(EngineConfig{Observer: "X", WithStore: true})
		if err != nil {
			t.Fatal(err)
		}
		subTestDetect(t, eng)
		spec := SubscriptionSpec{
			Event: "E.obs", Region: region,
			HasTime: true, From: 100, To: 350,
			Buffer: 2 * n, Replay: true,
		}
		feed := func(from, to int) {
			for i := from; i < to; i++ {
				if _, err := eng.Observe(stream[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		drainAll := func(s *Subscription) []SubDelivery {
			var out []SubDelivery
			for {
				d, ok, err := s.Poll()
				if err != nil {
					t.Fatalf("seed %d: Poll: %v", seed, err)
				}
				if !ok {
					return out
				}
				out = append(out, d)
			}
		}

		feed(0, n/4) // history before the subscriber exists
		s1, err := eng.Subscribe(spec)
		if err != nil {
			t.Fatal(err)
		}
		feed(n/4, n/2) // live while connected
		got := drainAll(s1)
		s1.Close() // forced disconnect
		var cursor string
		if len(got) > 0 {
			last := got[len(got)-1]
			if !last.HasCursor {
				t.Fatalf("seed %d: delivery without cursor on a store engine", seed)
			}
			cursor = fmt.Sprintf("%d", last.Cursor)
		}
		feed(n/2, 3*n/4) // missed while disconnected
		s2, err := eng.Subscribe(SubscriptionSpec{
			Event: spec.Event, Region: spec.Region,
			HasTime: spec.HasTime, From: spec.From, To: spec.To,
			Buffer: spec.Buffer, Replay: true, Cursor: cursor,
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(3*n/4, n) // live again
		eng.Flush(Tick(n + 1))
		got = append(got, drainAll(s2)...)
		s2.Close()

		received := make([]Instance, len(got))
		for i := range got {
			received[i] = got[i].Inst
		}
		if gotB := encodeAll(t, received); !bytes.Equal(gotB, oracle) {
			t.Fatalf("seed %d: subscriber stream diverges from uninterrupted QueryST\nsubscriber (%d insts):\n%soracle (%d insts):\n%s",
				seed, len(received), gotB, len(oracleRes.Instances), oracle)
		}
		if st := eng.SubscriptionStats(); st.Dropped != 0 {
			t.Fatalf("seed %d: %d deliveries dropped — buffer sized wrong for the test", seed, st.Dropped)
		}
	}
}

// TestSubscribeShardedEngine checks live push from worker goroutines
// and the store cursor on deliveries.
func TestSubscribeShardedEngine(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Observer: "X", Workers: 4, WithStore: true})
	if err != nil {
		t.Fatal(err)
	}
	subTestDetect(t, eng)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Subscribe(SubscriptionSpec{Event: "E.obs", Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	stream := fuzzObs(7, 200)
	for i := range stream {
		if _, err := eng.Observe(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	var got []SubDelivery
	for {
		d, ok, err := s.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !d.HasCursor {
			t.Fatal("sharded store engine delivered without cursor")
		}
		got = append(got, d)
	}
	if len(got) != 200 {
		t.Fatalf("subscriber got %d deliveries, want 200", len(got))
	}
	eng.Close(201)
}

// TestSubscribeWithoutStore: live push works, cursors are absent, and
// catch-up is refused.
func TestSubscribeWithoutStore(t *testing.T) {
	var emitted []Instance
	eng, err := NewEngine(EngineConfig{Observer: "X", OnInstance: func(in Instance) { emitted = append(emitted, in) }})
	if err != nil {
		t.Fatal(err)
	}
	subTestDetect(t, eng)
	if _, err := eng.Subscribe(SubscriptionSpec{Event: "E.obs", Replay: true}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("Replay without store = %v, want ErrNoStore", err)
	}
	s, err := eng.Subscribe(SubscriptionSpec{Event: "E.obs"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Observe(fuzzObs(3, 1)[0]); err != nil {
		t.Fatal(err)
	}
	d, ok, err := s.Poll()
	if err != nil || !ok {
		t.Fatalf("Poll = (%v, %v)", ok, err)
	}
	if d.HasCursor {
		t.Fatal("store-less delivery claims a cursor")
	}
	if d.Inst.Event != "E.obs" {
		t.Fatalf("delivered %q, want E.obs", d.Inst.Event)
	}
	obsEmitted := 0
	for _, in := range emitted {
		if in.Event == "E.obs" {
			obsEmitted++
		}
	}
	if obsEmitted != 1 {
		t.Fatalf("OnInstance saw %d E.obs instances, want 1", obsEmitted)
	}
	if !eng.Unsubscribe(s.ID()) {
		t.Fatal("Unsubscribe lost the subscription")
	}
}

// TestConcurrentIngestFlushQuerySubscribe is the -race satellite: one
// producer ingesting then flushing, while HTTP-handler-shaped readers
// run QueryST/Stats and subscribers join, receive and leave — the
// documented concurrency contract of Drain/Flush.
func TestConcurrentIngestFlushQuerySubscribe(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Observer: "X", Workers: 4, WithStore: true})
	if err != nil {
		t.Fatal(err)
	}
	subTestDetect(t, eng)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	stream := fuzzObs(9, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: combined queries and stats, as the HTTP handlers would.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.QueryST(QuerySpec{Event: "E.obs", Limit: 10, Tier: TierHot}); err != nil {
					t.Error(err)
					return
				}
				_ = eng.Stats()
				_ = eng.StoreStats()
				_ = eng.SubscriptionStats()
				_ = eng.SubscriberStats()
			}
		}()
	}
	// Subscribers joining and leaving, some with catch-up replay.
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := eng.Subscribe(SubscriptionSpec{Event: "E.obs", Replay: c == 0, Buffer: 64})
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				for {
					if _, err := s.Next(ctx); err != nil {
						break
					}
				}
				cancel()
				s.Close()
			}
		}(c)
	}

	// The single producer: ingest everything, then Flush per contract.
	for i := range stream {
		if _, err := eng.Observe(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush(Tick(n + 1))
	close(stop)
	wg.Wait()
}
