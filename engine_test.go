package stcps

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
)

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); !errors.Is(err, ErrEngineConfig) {
		t.Fatalf("missing observer err = %v", err)
	}
	if _, err := NewEngine(EngineConfig{Observer: "OB", Workers: 4}); !errors.Is(err, ErrEngineConfig) {
		t.Fatalf("sharded without sink err = %v", err)
	}
	if _, err := NewEngine(EngineConfig{Observer: "OB", Workers: 4, WithStore: true}); err != nil {
		t.Fatalf("sharded with store err = %v", err)
	}
}

func TestEngineSynchronous(t *testing.T) {
	var seen []Instance
	eng, err := NewEngine(EngineConfig{
		Observer:   "edge-1",
		Loc:        AtPoint(10, 10),
		OnInstance: func(in Instance) { seen = append(seen, in) },
		WithStore:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Detect(LayerCyber, EventSpec{
		ID:    "E.hot",
		Roles: []Role{{Name: "x", Source: "S.temp", Window: 2}},
		When:  "x.temp > 30",
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Detect(LayerCyber, EventSpec{
		ID:       "E.warm",
		Roles:    []Role{{Name: "x", Source: "S.temp", Window: 2}},
		When:     "x.temp > 20",
		Interval: true,
	}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Sources(); len(got) != 1 || got[0] != "S.temp" {
		t.Fatalf("Sources() = %v", got)
	}
	if err := eng.Start(); err != nil { // no-op in sync mode
		t.Fatal(err)
	}

	feed := func(seq uint64, tick Tick, temp float64) []Instance {
		out, err := eng.Feed(Instance{
			Layer: LayerSensor, Observer: "MT1", Event: "S.temp", Seq: seq,
			Gen: tick, Occ: At(tick), Loc: AtPoint(0, 0),
			Attrs: Attrs{"temp": temp}, Confidence: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := feed(1, 10, 25); len(out) != 0 {
		t.Fatalf("cool feed emitted %v", out)
	}
	out := feed(2, 20, 35)
	if len(out) != 1 || out[0].Event != "E.hot" || out[0].Observer != "edge-1" {
		t.Fatalf("hot feed emitted %v", out)
	}
	if out[0].Confidence != 0.9 {
		t.Errorf("confidence = %g, want 0.9 (min policy over one input)", out[0].Confidence)
	}

	// Observe: raw observation path.
	if _, err := eng.Observe(Observation{
		Mote: "MT1", Sensor: "SRx", Seq: 1, Time: At(30), Loc: AtPoint(0, 0),
	}); err != nil {
		t.Fatal(err)
	}

	flushed := eng.Flush(40)
	if len(flushed) != 1 || flushed[0].Event != "E.warm" {
		t.Fatalf("flush emitted %v", flushed)
	}
	if flushed[0].Occ.Start() != 10 || flushed[0].Occ.End() != 20 {
		t.Errorf("interval = %v, want [10,20]", flushed[0].Occ)
	}

	if len(seen) != 2 {
		t.Errorf("OnInstance saw %d instances, want 2", len(seen))
	}
	if eng.Store().Len() != 2 {
		t.Errorf("store logged %d instances, want 2", eng.Store().Len())
	}
	st := eng.Stats()
	if st.Ingested != 3 || st.Emitted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEngineQueryST drives the public query path: a store-backed engine
// answering combined region×time queries, with retention bounding the
// store.
func TestEngineQueryST(t *testing.T) {
	// No store: query and lineage must refuse.
	bare, err := NewEngine(EngineConfig{Observer: "edge-q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.QueryST(QuerySpec{Tier: TierHot}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("storeless QueryST err = %v", err)
	}
	if _, err := bare.Lineage("x"); !errors.Is(err, ErrNoStore) {
		t.Fatalf("storeless Lineage err = %v", err)
	}

	eng, err := NewEngine(EngineConfig{
		Observer:    "edge-q",
		WithStore:   true,
		DBRetention: Retention{MaxInstances: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Detect(LayerCyber, EventSpec{
		ID:    "E.hot",
		Roles: []Role{{Name: "x", Source: "S.temp", Window: 1}},
		When:  "x.temp > 30",
	}); err != nil {
		t.Fatal(err)
	}
	// 200 hot feeds at x=i%100: every one emits, retention keeps 50.
	for i := 0; i < 200; i++ {
		if _, err := eng.Feed(Instance{
			Layer: LayerSensor, Observer: "MT1", Event: "S.temp", Seq: uint64(i + 1),
			Gen: Tick(i), Occ: At(Tick(i)), Loc: AtPoint(float64(i%100), 0),
			Attrs: Attrs{"temp": 40}, Confidence: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.StoreStats()
	if st.Instances != 50 || st.Evicted != 150 {
		t.Fatalf("store stats = %+v, want 50 live / 150 evicted", st)
	}

	region, err := Rect(-1, -1, 80.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	loc := InField(region)
	res, err := eng.QueryST(QuerySpec{
		Event: "E.hot", Region: &loc,
		Window: &TimeWindow{From: 150, To: 1000},
		Limit:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Live occurrences are ticks 150..199 at x = 50..99; window [150,1000]
	// keeps all 50, region x<=80.5 keeps 31 of them; page one holds 10.
	if len(res.Instances) != 10 || res.NextCursor == "" {
		t.Fatalf("page = %d instances, cursor %q", len(res.Instances), res.NextCursor)
	}
	total := 0
	q := QuerySpec{Event: "E.hot", Region: &loc, Window: &TimeWindow{From: 150, To: 1000}, Limit: 10, Tier: TierHot}
	for {
		page, err := eng.QueryST(q)
		if err != nil {
			t.Fatal(err)
		}
		total += len(page.Instances)
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	if total != 31 {
		t.Fatalf("paged total = %d, want 31", total)
	}

	// Lineage of a live emission reaches its input feed instance.
	chain, err := eng.Lineage(res.Instances[0].EntityID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("lineage = %v", chain)
	}
}

func TestEngineSharded(t *testing.T) {
	var mu sync.Mutex
	var seen []Instance
	eng, err := NewEngine(EngineConfig{
		Observer: "edge-s",
		Workers:  4,
		OnInstance: func(in Instance) {
			mu.Lock()
			seen = append(seen, in)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nEvents = 8
	for i := 0; i < nEvents; i++ {
		if err := eng.Detect(LayerCyber, EventSpec{
			ID:    fmt.Sprintf("E.hot%d", i),
			Roles: []Role{{Name: "x", Source: fmt.Sprintf("S.temp%d", i), Window: 2}},
			When:  "x.temp > 30",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := eng.Feed(Instance{
			Layer: LayerSensor, Observer: "MT1",
			Event: fmt.Sprintf("S.temp%d", i%nEvents), Seq: uint64(i/nEvents + 1),
			Gen: Tick(i), Occ: At(Tick(i)), Loc: AtPoint(0, 0),
			Attrs: Attrs{"temp": 40}, Confidence: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	st := eng.Stats()
	if st.Ingested != n || st.Emitted != n {
		t.Errorf("stats = %+v, want %d/%d", st, n, n)
	}
	eng.Close(Tick(n))
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Errorf("OnInstance saw %d instances, want %d", len(seen), n)
	}
}

// record captures one observer's bank inputs during a simulation run.
func record(b *engine.Bank) *[]engine.TraceOp {
	var ops []engine.TraceOp
	b.Trace = func(op engine.TraceOp) { ops = append(ops, op) }
	return &ops
}

// TestEngineSimDifferential proves the extracted engine is the same
// machine the simulated nodes run: the entity trace each observer saw
// during a fixed-seed System.Run, replayed through a fresh
// engine.Bank, reproduces that observer's emitted instances
// byte-identically (IDs, occurrence intervals, confidences — the full
// wire form). The sim side is read from the run's database: every
// observer's log hook transfers each emission there after the same TTL,
// so one observer's logged instances are its emissions in order.
func TestEngineSimDifferential(t *testing.T) {
	moteNear := EventSpec{
		ID:    "S.near",
		Roles: []Role{{Name: "x", Source: "SRrange", Window: 1}},
		When:  "x.range < 25",
	}
	moteOcc := EventSpec{
		ID:       "S.occ",
		Roles:    []Role{{Name: "x", Source: "SRrange", Window: 1, MaxAge: 50}},
		When:     "x.range < 40",
		Interval: true,
	}
	sinkPresence := EventSpec{
		ID:         "CP.presence",
		Roles:      []Role{{Name: "x", Source: "S.near", Window: 4, MaxAge: 60}},
		When:       "x.range < 25",
		Confidence: "noisy-or",
	}
	ccuAlert := EventSpec{
		ID:    "E.alert",
		Roles: []Role{{Name: "x", Source: "CP.presence", Window: 2}},
		When:  "true",
	}

	sys, err := NewSystem(Config{Seed: 7, Radio: Radio{Range: 40, HopDelay: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.World().AddObject(&Object{ID: "userA", Traj: NewWaypoints([]Waypoint{
		{T: 0, P: Pt(0, 5)},
		{T: 400, P: Pt(100, 5)},
	})}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSink("sink1", Pt(45, 20)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCCU("CCU1", Pt(45, 30)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"MT1", "MT2"} {
		pos := Pt(30, 8)
		if id == "MT2" {
			pos = Pt(60, 8)
		}
		if err := sys.AddSensorMote(id, pos, []SensorConfig{
			{ID: "SRrange", Object: "userA", Period: 10, Noise: 0.5},
		}); err != nil {
			t.Fatal(err)
		}
		if err := sys.OnMote(id, moteNear); err != nil {
			t.Fatal(err)
		}
		if err := sys.OnMote(id, moteOcc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.OnSink("sink1", sinkPresence); err != nil {
		t.Fatal(err)
	}
	if err := sys.OnCCU("CCU1", ccuAlert); err != nil {
		t.Fatal(err)
	}

	recs := map[string]*[]engine.TraceOp{
		"MT1":   record(sys.motes["MT1"].Bank()),
		"MT2":   record(sys.motes["MT2"].Bank()),
		"sink1": record(sys.sinks["sink1"].Bank()),
		"CCU1":  record(sys.ccus["CCU1"].Bank()),
	}

	report, err := sys.Run(400)
	if err != nil {
		t.Fatal(err)
	}
	emitted := make(map[string][]event.Instance)
	for _, in := range report.Instances() {
		emitted[in.Observer] = append(emitted[in.Observer], in)
	}

	// Replay every observer's trace through a standalone bank built from
	// the same specs, in the same registration order.
	replaySpecs := map[string][]struct {
		layer Layer
		spec  EventSpec
	}{
		"MT1":   {{LayerSensor, moteNear}, {LayerSensor, moteOcc}},
		"MT2":   {{LayerSensor, moteNear}, {LayerSensor, moteOcc}},
		"sink1": {{LayerCyberPhysical, sinkPresence}},
		"CCU1":  {{LayerCyber, ccuAlert}},
	}
	for obs, ops := range recs {
		if len(*ops) == 0 {
			t.Fatalf("%s: empty trace (scenario produced no traffic)", obs)
		}
		outs := emitted[obs]
		if len(outs) == 0 {
			t.Fatalf("%s: no emissions during the run", obs)
		}
		bank, err := engine.NewBank(engine.Config{Observer: obs})
		if err != nil {
			t.Fatal(err)
		}
		for _, es := range replaySpecs[obs] {
			ds, err := es.spec.toDetect(es.layer)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bank.AddDetector(ds); err != nil {
				t.Fatal(err)
			}
		}
		got := bank.Replay(*ops)
		if len(got) != len(outs) {
			t.Fatalf("%s: replay emitted %d instances, sim emitted %d", obs, len(got), len(outs))
		}
		for i := range got {
			want, err := event.EncodeInstance(outs[i])
			if err != nil {
				t.Fatal(err)
			}
			have, err := event.EncodeInstance(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, have) {
				t.Fatalf("%s instance %d differs:\nsim:    %s\nengine: %s", obs, i, want, have)
			}
		}
	}
}
