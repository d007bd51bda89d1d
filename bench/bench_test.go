package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGeneratorDeterminism: the same seed yields a byte-identical wire
// payload, a different seed does not — for both streams.
func TestGeneratorDeterminism(t *testing.T) {
	for _, cfg := range []StreamCfg{
		{Kind: "join", Sites: "uniform", Jitter: 2.1},
		{Kind: "join", Sites: "zipf", Jitter: 2.1},
		{Kind: "imu"},
	} {
		const n = 3000
		a := payloadHash(generate(cfg, 7, n), n)
		b := payloadHash(generate(cfg, 7, n), n)
		c := payloadHash(generate(cfg, 8, n), n)
		if a != b {
			t.Errorf("%+v: seed 7 hashed %s then %s", cfg, a, b)
		}
		if a == c {
			t.Errorf("%+v: seeds 7 and 8 share payload hash %s", cfg, a)
		}
	}
}

// TestJoinStreamEmissionRate pins the calibration the workloads rely
// on: the seed-1 join stream emits 1.8 ± 0.2 instances per observation.
func TestJoinStreamEmissionRate(t *testing.T) {
	w := workloadByName(t, "join_flatout")
	const n = 20000
	ref, err := runReference(w, generate(w.Stream, 1, n), t.TempDir(), n, n, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if rate := float64(ref.Emitted) / n; rate < 1.6 || rate > 2.0 {
		t.Errorf("join stream emits %.3f instances per observation, want 1.8 ± 0.2", rate)
	}
}

// TestIMUStreamPassCount: every seed's ring holds the same number of
// records that pass the filter, so the seed moves which observations
// emit, never how many — store size and RSS must not depend on it.
func TestIMUStreamPassCount(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		pass := 0
		for _, o := range generate(StreamCfg{Kind: "imu"}, seed, imuRing).recs {
			if o.Attrs["ax"] > 9.9 {
				pass++
			}
		}
		if pass != imuPass {
			t.Errorf("seed %d: %d of %d ring records pass the filter, want %d", seed, pass, imuRing, imuPass)
		}
	}
}

func workloadByName(t *testing.T, name string) *Workload {
	t.Helper()
	all, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload(all, name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// and workloads/ telling the same story.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bm.RunSeconds, defaultSeconds)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bm.Paths)
	}
	all, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(all) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads/", len(bm.Workloads), len(all))
	}
	for i, w := range all {
		if bm.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workloads/", i, bm.Workloads[i].Name, w.Name)
		}
		if n := len(bm.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, n)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %s/%s/%s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s: bound differs from metrics.go's %v", m.Name, m.Bound)
			case bounded && (m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
}

// TestCompare exercises -compare on synthetic result files.
func TestCompare(t *testing.T) {
	base := func() report {
		e2e := map[string]float64{}
		for _, m := range endToEnd {
			e2e[m.Name] = 100
		}
		return report{Results: []*result{{Workload: "join_flatout", EndToEnd: e2e}}}
	}
	write := func(name string, rep report) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base())

	// Values just inside and just outside a metric's bound, from 100.
	bound := func(name string) float64 {
		for _, m := range endToEnd {
			if m.Name == name {
				return 100 * m.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *result)
		want   int
	}{
		{"identical", func(*result) {}, 0},
		{"throughput within its bound", func(r *result) { r.EndToEnd["ingest_obs_per_s"] = 100 - bound("ingest_obs_per_s") + 1 }, 0},
		{"throughput past its bound", func(r *result) { r.EndToEnd["ingest_obs_per_s"] = 100 - bound("ingest_obs_per_s") - 1 }, 1},
		{"throughput better", func(r *result) { r.EndToEnd["ingest_obs_per_s"] = 150 }, 0},
		{"latency within its bound", func(r *result) { r.EndToEnd["detect_latency_p50_us"] = 100 + bound("detect_latency_p50_us") - 1 }, 0},
		{"latency past its bound", func(r *result) { r.EndToEnd["detect_latency_p50_us"] = 100 + bound("detect_latency_p50_us") + 1 }, 1},
		{"latency better", func(r *result) { r.EndToEnd["detect_latency_p50_us"] = 50 }, 0},
		{"failed operations rose", func(r *result) { r.FailedOpsShare = 0.001 }, 1},
	} {
		rep := base()
		tc.mutate(rep.Results[0])
		b := write("b.json", rep)
		var out bytes.Buffer
		ra, err := readReport(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := readReport(b)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if compareReports(&out, ra, rb) {
			got = 1
		}
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
		if rows := strings.Count(out.String(), "join_flatout"); rows != len(endToEnd)+1 {
			t.Errorf("%s: %d rows, want one per end-to-end metric plus failed_ops_share", tc.name, rows)
		}
		if code := run([]string{"-compare", a, b}); code != tc.want {
			t.Errorf("%s: bench -compare exits %d, want %d", tc.name, code, tc.want)
		}
	}
	if missing := (report{}); !compareReports(&bytes.Buffer{}, base(), missing) {
		t.Error("a workload missing from B must count as a regression")
	}
}

// TestSelfTime checks the span arithmetic: a layer's self time is its
// span minus the part its child spans cover.
func TestSelfTime(t *testing.T) {
	tr := &tracer{mode: traceTime, spans: []span{
		{stage: stIngest, parent: -1, start: 0, end: 100},
		{stage: stLogBatch, parent: 0, start: 10, end: 40},
		{stage: stPublish, parent: 0, start: 50, end: 60},
		{stage: stEncodeJSON, parent: -1, start: 100, end: 130},
	}}
	sums := tr.sums(0, 0)
	for st, want := range map[stage]float64{stIngest: 60, stLogBatch: 30, stPublish: 10, stEncodeJSON: 30} {
		if got := sums[st].selfNS; got != want {
			t.Errorf("%s: self %v ns, want %v", stageNames[st], got, want)
		}
	}
	// Each span is inflated by its own clock readings and by its children's.
	sums = tr.sums(2, 1)
	if got := sums[stIngest].selfNS; got != 60-2-2*1 {
		t.Errorf("corrected self %v ns, want 56", got)
	}
}

func TestPercentiles(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing %v, want 0", got)
	}
	// Stalled stretches move the pooled p90 but not the steady one.
	in := make([]float64, 800)
	for i := range in {
		in[i] = 1
		if i%100 < 12 {
			in[i] = 1000 // a stall at the start of every other chunk
		}
	}
	if got := percentile(in, 90); got != 1000 {
		t.Errorf("pooled p90 %v, want 1000", got)
	}
	if got := steadyPercentile(in, 90); got != 1 {
		t.Errorf("steady p90 %v, want 1", got)
	}
}

// TestSpawnFailure: a daemon that cannot start yields an error, not a
// hang, and leaves no process behind.
func TestSpawnFailure(t *testing.T) {
	e := testEnv(t)
	if _, err := spawn(e.bin, filepath.Join(t.TempDir(), "missing.json"), nil); err == nil {
		t.Fatal("spawn with a missing events file succeeded")
	}
}
