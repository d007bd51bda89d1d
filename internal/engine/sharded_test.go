package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// shardedFixture registers nEvents detectors (event E<i> consuming
// source S<i>) on a fresh sharded engine.
func shardedFixture(t testing.TB, shards, nEvents int, emit EmitFunc) *Sharded {
	s, err := NewSharded(Config{Observer: "OB", Emit: emit}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nEvents; i++ {
		if err := s.AddDetector(detect.Spec{
			EventID: fmt.Sprintf("E%d", i),
			Layer:   event.LayerSensor,
			Roles:   []detect.RoleSpec{{Name: "x", Source: fmt.Sprintf("S%d", i), Window: 4}},
			Cond:    condition.MustParse("x.v > 0"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestShardedMatchesBank proves the sharded engine emits exactly the
// instance set a single sequential bank emits for the same feed.
func TestShardedMatchesBank(t *testing.T) {
	const nEvents, nOffers = 13, 500
	loc := spatial.AtPoint(0, 0)
	feed := func(offer func(source string, ent event.Entity, conf float64, now timemodel.Tick)) {
		for i := 0; i < nOffers; i++ {
			src := fmt.Sprintf("S%d", i%nEvents)
			now := timemodel.Tick(i)
			offer(src, obsAt(src, uint64(i/nEvents+1), now, float64(i%3)), 1, now)
		}
	}

	// Reference: one sequential bank.
	ref, err := NewBank(Config{Observer: "OB"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nEvents; i++ {
		if _, err := ref.AddDetector(detect.Spec{
			EventID: fmt.Sprintf("E%d", i),
			Layer:   event.LayerSensor,
			Roles:   []detect.RoleSpec{{Name: "x", Source: fmt.Sprintf("S%d", i), Window: 4}},
			Cond:    condition.MustParse("x.v > 0"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	feed(func(src string, ent event.Entity, conf float64, now timemodel.Tick) {
		for _, in := range ref.Ingest(src, ent, conf, now, loc) {
			want = append(want, in.EntityID())
		}
	})

	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			var got []string
			s := shardedFixture(t, shards, nEvents, func(in event.Instance) {
				mu.Lock()
				got = append(got, in.EntityID())
				mu.Unlock()
			})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			feed(func(src string, ent event.Entity, conf float64, now timemodel.Tick) {
				if err := s.Ingest(src, ent, conf, now, loc); err != nil {
					t.Fatal(err)
				}
			})
			s.Drain()
			st := s.Stats()
			if st.Ingested != nOffers {
				t.Errorf("ingested = %d, want %d", st.Ingested, nOffers)
			}
			s.Close(timemodel.Tick(nOffers), loc)

			a, b := append([]string(nil), want...), got
			sort.Strings(a)
			sort.Strings(b)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("sharded emitted %d instances, reference %d:\n got %v\nwant %v",
					len(b), len(a), b, a)
			}
		})
	}
}

func TestShardedLifecycle(t *testing.T) {
	if _, err := NewSharded(Config{}, 4); !errors.Is(err, ErrNoObserver) {
		t.Fatalf("missing observer err = %v", err)
	}
	s := shardedFixture(t, 0, 1, nil) // shard count clamps to 1
	if len(s.banks) != 1 {
		t.Fatalf("shard count = %d", len(s.banks))
	}
	loc := spatial.AtPoint(0, 0)
	if err := s.Ingest("S0", obsAt("S0", 1, 0, 1), 1, 0, loc); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("pre-start ingest err = %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); !errors.Is(err, ErrStarted) {
		t.Fatalf("double start err = %v", err)
	}
	if err := s.AddDetector(punctualSpec("E.late", "s")); !errors.Is(err, ErrStarted) {
		t.Fatalf("post-start add err = %v", err)
	}
	if got := s.Sources(); len(got) != 1 || got[0] != "S0" {
		t.Fatalf("Sources() = %v", got)
	}
	s.Close(0, loc)
	if err := s.Ingest("S0", obsAt("S0", 2, 1, 1), 1, 1, loc); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close ingest err = %v", err)
	}
	if out := s.Close(0, loc); out != nil {
		t.Fatalf("double close returned %v", out)
	}
}

// TestShardedIngestCloseRace closes the engine from a non-producer
// goroutine while the producer is mid-feed — under -race this covered
// the old unsynchronized closed/pending lifecycle, which could panic
// with a send on a closed channel. The producer must observe ErrClosed,
// never a panic or a lost error.
func TestShardedIngestCloseRace(t *testing.T) {
	loc := spatial.AtPoint(0, 0)
	for round := 0; round < 20; round++ {
		s := shardedFixture(t, 4, 8, nil)
		s.batch = 2 // small batches force frequent channel sends
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			for i := 0; ; i++ {
				src := fmt.Sprintf("S%d", i%8)
				err := s.Ingest(src, obsAt(src, uint64(i+1), timemodel.Tick(i), 1), 1, timemodel.Tick(i), loc)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}()
		s.Close(0, loc)
		<-closed
	}
}

// TestShardedDoubleCloseRace races two Close calls; exactly the normal
// teardown must happen and the loser must return nil.
func TestShardedDoubleCloseRace(t *testing.T) {
	loc := spatial.AtPoint(0, 0)
	for round := 0; round < 20; round++ {
		s := shardedFixture(t, 4, 8, nil)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			src := fmt.Sprintf("S%d", i%8)
			if err := s.Ingest(src, obsAt(src, uint64(i+1), timemodel.Tick(i), 1), 1, timemodel.Tick(i), loc); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Close(100, loc)
			}()
		}
		wg.Wait()
		if err := s.Ingest("S0", obsAt("S0", 999, 200, 1), 1, 200, loc); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close ingest err = %v", err)
		}
	}
}

// TestShardOfZeroAlloc pins the routing-path hash at zero allocations:
// the old hash/fnv.New32a allocated a hasher per Ingest.
func TestShardOfZeroAlloc(t *testing.T) {
	s := shardedFixture(t, 7, 4, nil)
	ids := []string{"E0", "E1", "a-much-longer-event-identifier", ""}
	if n := testing.AllocsPerRun(1000, func() {
		for _, id := range ids {
			_ = s.shardOf(id)
		}
	}); n != 0 {
		t.Fatalf("shardOf allocates %.1f objects/run, want 0", n)
	}
	// Distribution sanity: shardOf must still land inside the bank range.
	for i := 0; i < 100; i++ {
		if sh := s.shardOf(fmt.Sprintf("E%d", i)); sh < 0 || sh >= len(s.banks) {
			t.Fatalf("shardOf out of range: %d", sh)
		}
	}
}

// BenchmarkShardOf guards the zero-allocation routing hash.
func BenchmarkShardOf(b *testing.B) {
	s := shardedFixture(b, 8, 4, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.shardOf("E.some-event-id")
	}
}

// TestShardedCloseFlushesIntervals checks open interval detections are
// emitted on Close.
func TestShardedCloseFlushesIntervals(t *testing.T) {
	var mu sync.Mutex
	var got []event.Instance
	s, err := NewSharded(Config{Observer: "OB", Emit: func(in event.Instance) {
		mu.Lock()
		got = append(got, in)
		mu.Unlock()
	}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := punctualSpec("E.i", "s")
	spec.Mode = detect.ModeInterval
	if err := s.AddDetector(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	loc := spatial.AtPoint(0, 0)
	for i := 0; i < 5; i++ {
		if err := s.Ingest("s", obsAt("s", uint64(i+1), timemodel.Tick(i), 1), 1, timemodel.Tick(i), loc); err != nil {
			t.Fatal(err)
		}
	}
	flushed := s.Close(10, loc)
	if len(flushed) != 1 {
		t.Fatalf("flushed %d instances, want 1", len(flushed))
	}
	if len(got) != 1 || got[0].Event != "E.i" {
		t.Fatalf("emit hook saw %v", got)
	}
	if got[0].Occ.Start() != 0 || got[0].Occ.End() != 4 {
		t.Errorf("interval = %v, want [0,4]", got[0].Occ)
	}
}

// BenchmarkEngineShardedIngest measures sustained entity throughput of
// the sharded engine at increasing shard counts. Each offer drives a
// two-role spatio-temporal join so there is real per-offer work to
// spread over cores; on a multicore host (≥4 cores) higher shard counts
// sustain higher throughput, on a single core they tie with shards=1.
func BenchmarkEngineShardedIngest(b *testing.B) {
	const nEvents = 64
	loc := spatial.AtPoint(0, 0)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := NewSharded(Config{Observer: "OB"}, shards)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < nEvents; i++ {
				if err := s.AddDetector(detect.Spec{
					EventID: fmt.Sprintf("E%d", i),
					Layer:   event.LayerSensor,
					Roles: []detect.RoleSpec{
						{Name: "x", Source: fmt.Sprintf("S%d", i), Window: 8},
						{Name: "y", Source: fmt.Sprintf("T%d", i), Window: 8},
					},
					Cond: condition.MustParse("x.time before y.time and dist(x.loc, y.loc) < 2"),
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Start(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := (i / 2) % nEvents
				src := fmt.Sprintf("S%d", ev)
				if i%2 == 1 {
					src = fmt.Sprintf("T%d", ev)
				}
				now := timemodel.Tick(i)
				o := event.Observation{
					Mote: "M", Sensor: src, Seq: uint64(i),
					Time: timemodel.At(now),
					Loc:  spatial.AtPoint(float64(i%7), 0),
				}
				if err := s.Ingest(src, o, 1, now, loc); err != nil {
					b.Fatal(err)
				}
			}
			s.Drain()
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Emitted)/float64(b.N), "emitted/op")
			s.Close(timemodel.Tick(b.N), loc)
		})
	}
}
