package stcps

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
)

// durFeedOp is one deterministic feed step: a lower-layer instance or a
// raw observation.
type durFeedOp struct {
	inst *Instance
	obs  *Observation
	tick Tick
}

// makeDurFeed builds a deterministic mixed feed: two sensor-instance
// streams (S.a, S.b) and one raw observation stream (SR1), ticks
// strictly increasing.
func makeDurFeed(n int) []durFeedOp {
	rng := rand.New(rand.NewSource(7))
	ops := make([]durFeedOp, 0, n)
	seqs := map[string]uint64{}
	for i := 0; i < n; i++ {
		tick := Tick(i * 2)
		switch i % 3 {
		case 0, 1:
			src := "S.a"
			obsr := "MT1"
			if i%3 == 1 {
				src, obsr = "S.b", "MT2"
			}
			seqs[src]++
			ops = append(ops, durFeedOp{tick: tick, inst: &Instance{
				Layer: LayerSensor, Observer: obsr, Event: src,
				Seq: seqs[src], Gen: tick,
				GenLoc:     AtPoint(0, 0),
				Occ:        At(tick),
				Loc:        AtPoint(rng.Float64()*20, rng.Float64()*20),
				Attrs:      Attrs{"v": rng.Float64() * 10},
				Confidence: 0.5 + rng.Float64()/2,
			}})
		case 2:
			seqs["SR1"]++
			ops = append(ops, durFeedOp{tick: tick, obs: &Observation{
				Mote: "MT9", Sensor: "SR1", Seq: seqs["SR1"],
				Time: At(tick), Loc: AtPoint(5, 5),
				Attrs: Attrs{"raw": rng.Float64()},
			}})
		}
	}
	return ops
}

// declareDurEvents declares the test's detected events: a two-role
// punctual join, a single-role interval event, and a sensor-layer event
// over raw observations. All roles carry MaxAge so WAL compaction has a
// finite horizon.
func declareDurEvents(t *testing.T, eng *Engine) {
	t.Helper()
	specs := []struct {
		layer Layer
		spec  EventSpec
	}{
		{LayerCyber, EventSpec{
			ID: "E.pair",
			Roles: []Role{
				{Name: "a", Source: "S.a", Window: 6, MaxAge: 60},
				{Name: "b", Source: "S.b", Window: 6, MaxAge: 60},
			},
			When:       "a.v + b.v > 11",
			Confidence: "noisy-or",
		}},
		{LayerCyber, EventSpec{
			ID:       "E.warm",
			Roles:    []Role{{Name: "x", Source: "S.a", Window: 2, MaxAge: 60}},
			When:     "x.v > 3",
			Interval: true,
		}},
		{LayerSensor, EventSpec{
			ID:    "E.high",
			Roles: []Role{{Name: "o", Source: "SR1", Window: 1, MaxAge: 60}},
			When:  "o.raw > 0.5",
		}},
	}
	for _, s := range specs {
		if err := eng.Detect(s.layer, s.spec); err != nil {
			t.Fatal(err)
		}
	}
}

// durEngine builds a durable engine over dir with fsync always (so an
// abandoned engine loses nothing the tests expect to survive).
func durEngine(t *testing.T, dir string, workers, snapshotEvery int) *Engine {
	t.Helper()
	eng, err := NewEngine(EngineConfig{
		Observer: "obs1",
		Loc:      AtPoint(1, 1),
		Workers:  workers,
		Durability: DurabilityConfig{
			Dir:           dir,
			Fsync:         "always",
			SnapshotEvery: snapshotEvery,
			SegmentBytes:  4096, // force rotation so compaction has targets
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareDurEvents(t, eng)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func durFeedRange(t *testing.T, eng *Engine, ops []durFeedOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.inst != nil {
			_, err = eng.Feed(*op.inst)
		} else {
			_, err = eng.Observe(*op.obs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// canonicalInstances renders a query result as one sorted JSON blob —
// the byte-identical comparison form (arrival order through recovery is
// an implementation detail; the instance SET is the contract).
func canonicalInstances(t *testing.T, insts []Instance) string {
	t.Helper()
	lines := make([]string, len(insts))
	for i, in := range insts {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func queryAll(t *testing.T, eng *Engine) string {
	t.Helper()
	res, err := eng.QueryST(QuerySpec{Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	return canonicalInstances(t, res.Instances)
}

// TestCrashRecovery is the kill-and-recover differential: an engine is
// abandoned mid-ingest (no flush, no close — the in-process equivalent
// of SIGKILL with an always-fsync WAL), a fresh engine recovers from the
// same WAL directory and ingests the rest of the feed, and the final
// QueryST result set must be byte-identical to an uninterrupted run's.
func TestCrashRecovery(t *testing.T) {
	const n, kill = 180, 97
	ops := makeDurFeed(n)
	final := ops[len(ops)-1].tick

	cases := []struct {
		name          string
		workers       int
		snapshotEvery int
		drainAtKill   bool
	}{
		// The sharded cases drain before abandoning: in-process the
		// abandoned engine's worker goroutines would otherwise still be
		// appending to the WAL while the recovery engine opens it —
		// something a real SIGKILL (covered by the stcpsd subprocess
		// test) cannot do.
		{name: "sync", workers: 1},
		{name: "sharded", workers: 4, drainAtKill: true},
		{name: "sync-snapshots", workers: 1, snapshotEvery: 35},
		{name: "sharded-snapshots", workers: 4, snapshotEvery: 35, drainAtKill: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := durEngine(t, t.TempDir(), tc.workers, tc.snapshotEvery)
			durFeedRange(t, ref, ops)
			if _, err := ref.Shutdown(final); err != nil {
				t.Fatalf("reference shutdown: %v", err)
			}
			want := queryAll(t, ref)
			if want == "" {
				t.Fatal("reference run emitted nothing — the differential is vacuous")
			}

			// Crash run: feed half, abandon without any teardown.
			dir := t.TempDir()
			crashed := durEngine(t, dir, tc.workers, tc.snapshotEvery)
			durFeedRange(t, crashed, ops[:kill])
			if tc.drainAtKill {
				crashed.Drain()
			}
			// (engine abandoned here — simulated SIGKILL)

			// Recovery run over the same WAL directory.
			rec := durEngine(t, dir, tc.workers, tc.snapshotEvery)
			ds := rec.DurabilityStats()
			if ds.ReplayedRecords == 0 {
				t.Fatalf("recovery replayed nothing: %+v", ds)
			}
			if ds.RecoveredInstances == 0 {
				t.Fatalf("recovery restored no instances: %+v", ds)
			}
			durFeedRange(t, rec, ops[kill:])
			if _, err := rec.Shutdown(final); err != nil {
				t.Fatalf("recovered shutdown: %v", err)
			}
			if got := queryAll(t, rec); got != want {
				t.Errorf("post-recovery QueryST differs from uninterrupted run\n--- want (%d bytes) ---\n%s\n--- got (%d bytes) ---\n%s",
					len(want), want, len(got), got)
			}
			if tc.snapshotEvery > 0 {
				if st := rec.DurabilityStats(); st.SnapshotSeq == 0 {
					t.Errorf("snapshots never happened: %+v", st)
				}
			}
		})
	}
}

// TestCleanRestartRecovers: a Shutdown engine's directory reopens into
// the same store contents (served from the final snapshot), and new
// detections continue the entity numbering instead of reusing ids.
func TestCleanRestartRecovers(t *testing.T) {
	ops := makeDurFeed(120)
	mid := 60
	final := ops[len(ops)-1].tick

	ref := durEngine(t, t.TempDir(), 1, 0)
	durFeedRange(t, ref, ops)
	if _, err := ref.Shutdown(final); err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, ref)

	dir := t.TempDir()
	first := durEngine(t, dir, 1, 0)
	durFeedRange(t, first, ops[:mid])
	// Shutdown closes any open E.warm interval at the cut — an instance
	// the uninterrupted run does not have — so the comparison below
	// filters the interval event and checks it separately.
	if _, err := first.Shutdown(ops[mid-1].tick); err != nil {
		t.Fatal(err)
	}

	second := durEngine(t, dir, 1, 0)
	st := second.DurabilityStats()
	if st.RecoveredInstances == 0 {
		t.Fatalf("clean restart recovered nothing: %+v", st)
	}
	durFeedRange(t, second, ops[mid:])
	if _, err := second.Shutdown(final); err != nil {
		t.Fatal(err)
	}
	got := queryAll(t, second)

	// The restarted run legitimately differs by interval instances cut
	// at the shutdown boundary; compare the punctual events exactly and
	// the interval event only for id uniqueness across the restart.
	filter := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if line != "" && !strings.Contains(line, `"event":"E.warm"`) {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if filter(got) != filter(want) {
		t.Errorf("punctual events differ after clean restart\n--- want ---\n%s\n--- got ---\n%s",
			filter(want), filter(got))
	}
	// Entity ids must never be reused across the restart: every id in
	// the final store is unique (db dedups silently, so count instead).
	res, err := second.QueryST(QuerySpec{Event: "E.warm", Tier: TierHot})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, in := range res.Instances {
		if seen[in.Seq] {
			t.Errorf("E.warm reused seq %d after restart", in.Seq)
		}
		seen[in.Seq] = true
	}
}

// TestDurableEngineGuards covers the durable engine's error paths.
func TestDurableEngineGuards(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(EngineConfig{
		Observer:   "obs1",
		Durability: DurabilityConfig{Dir: dir, Fsync: "always"},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareDurEvents(t, eng)

	// Ingest before Start (recovery) must refuse.
	if _, err := eng.Ingest("S.a", Instance{}, 1, 0); !errors.Is(err, ErrNotRecovered) {
		t.Errorf("ingest before recovery = %v, want ErrNotRecovered", err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Errorf("second Start = %v, want nil", err)
	}
	// Entities the WAL cannot serialize are refused.
	if _, err := eng.Ingest("S.a", PhysicalEvent{}, 1, 0); !errors.Is(err, ErrNotDurable) {
		t.Errorf("physical-event ingest = %v, want ErrNotDurable", err)
	}
	// Durability implies the store.
	if eng.Store() == nil {
		t.Error("durable engine has no store")
	}
	if st := eng.DurabilityStats(); !st.Enabled {
		t.Errorf("durability stats not enabled: %+v", st)
	}
	if _, err := eng.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	// Repeated Shutdown is a clean no-op, not a spurious WAL error.
	if _, err := eng.Shutdown(0); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}

	// Unknown fsync policy fails construction.
	if _, err := NewEngine(EngineConfig{
		Observer:   "obs1",
		Durability: DurabilityConfig{Dir: t.TempDir(), Fsync: "bogus"},
	}); err == nil {
		t.Error("bogus fsync policy should fail")
	}

	// Non-durable engines report zero-value stats.
	plain, err := NewEngine(EngineConfig{Observer: "obs1", WithStore: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.DurabilityStats(); st.Enabled {
		t.Errorf("plain engine claims durability: %+v", st)
	}
	_ = os.RemoveAll(dir)
}

// TestDurabilityStatsConcurrent hammers DurabilityStats from a second
// goroutine while the WAL is replayed and while ingest runs. The replay
// counters (ReplayedRecords, ReofferedEntities, RecoveredInstances)
// were once plain fields written by recovery while the HTTP stats
// endpoint could read them; run under -race this test pins the atomic
// rewrite in place.
func TestDurabilityStatsConcurrent(t *testing.T) {
	dir := t.TempDir()
	ops := makeDurFeed(150)

	// Seed the directory with a crashed run so recovery has work to do.
	crashed := durEngine(t, dir, 1, 40)
	durFeedRange(t, crashed, ops[:100])
	// (engine abandoned here — simulated SIGKILL)

	rec, err := NewEngine(EngineConfig{
		Observer: "obs1",
		Loc:      AtPoint(1, 1),
		Workers:  2,
		Durability: DurabilityConfig{
			Dir:           dir,
			Fsync:         "always",
			SnapshotEvery: 40,
			SegmentBytes:  4096,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	declareDurEvents(t, rec)

	// Poll stats across recovery (Start replays the WAL) and the rest of
	// the feed — the window where the counters are written concurrently.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = rec.DurabilityStats()
			}
		}
	}()
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	durFeedRange(t, rec, ops[100:])
	if _, err := rec.Shutdown(ops[len(ops)-1].tick); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	if ds := rec.DurabilityStats(); ds.ReplayedRecords == 0 {
		t.Fatalf("recovery replayed nothing: %+v", ds)
	}
}

// TestFailedSnapshotDoesNotReapplyRedelivery: a cluster node applies a
// record through Engine.Ingest and marks it applied only when Ingest
// returns nil. A periodic snapshot that fails after the entity reached
// the WAL and the detectors must therefore not fail Ingest: if it did,
// the sender's redelivery would be logged and detected a second time.
func TestFailedSnapshotDoesNotReapplyRedelivery(t *testing.T) {
	dir := t.TempDir()
	eng := durEngine(t, dir, 0, 1)
	// Every snapshot fails: its rename target is a directory.
	for seq := 1; seq <= 4; seq++ {
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("snapshot-%016d.snap", seq)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	node, err := cluster.New(cluster.Config{Nodes: []cluster.NodeSpec{{Wire: "n0", HTTP: "h0"}}}, nil, cluster.Hooks{
		Guard: func(fn func() error) (bool, error) { return true, fn() },
		Apply: eng.Ingest,
		SeqOf: func(*event.Instance) (uint64, bool) { return 0, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Coord.Close()
	// One replica hop from peer 1, delivered twice (the sender's resend).
	var bw frame.BatchWriter
	bw.AddForwardObservation(frame.Forward{Origin: 1, Seq: 0, Replica: true}, &Observation{
		Mote: "MT9", Sensor: "SRX", Seq: 1, Time: At(5), Loc: AtPoint(5, 5),
	})
	payload, _ := bw.Take(nil)
	var b frame.Batch
	if err := frame.DecodeBatch(payload, true, event.NewInterner(), &b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := node.Coord.OfferBatch(&b); err != nil {
			t.Fatalf("delivery %d: %v", i+1, err)
		}
	}
	st, ds := node.Coord.Stats(), eng.DurabilityStats()
	if st.Applied != 1 || st.Duplicates != 1 || ds.Appended != 1 {
		t.Fatalf("after two deliveries: applied %d, duplicates %d, WAL appends %d; want 1, 1, 1",
			st.Applied, st.Duplicates, ds.Appended)
	}
	if ds.WALErrors == 0 || ds.Snapshots != 0 {
		t.Fatalf("failed snapshot not counted: %+v", ds)
	}
	if _, err := eng.Shutdown(10); err == nil {
		t.Fatal("Shutdown hid the failed snapshot")
	}
}
