package main

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

var (
	envOnce sync.Once
	envVal  *env
	envErr  error
	envDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if envDir != "" {
		os.RemoveAll(envDir)
	}
	os.Exit(code)
}

// testEnv builds stcpsd once per test binary, into a directory of its
// own that TestMain removes.
func testEnv(t *testing.T) *env {
	t.Helper()
	envOnce.Do(func() {
		var root string
		if root, envErr = moduleRoot(); envErr != nil {
			return
		}
		if envDir, envErr = os.MkdirTemp("", "stcps-bench-"); envErr != nil {
			return
		}
		var bin string
		if bin, envErr = buildDaemon(root, envDir); envErr != nil {
			return
		}
		envVal = &env{bin: bin, outDir: envDir, walkSamples: 50}
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// smokeSize shrinks a workload to a few thousand records: the same
// phases, flags and checks, a fraction of a second each.
func smokeSize(w *Workload) (*Workload, float64) {
	c := *w
	n := 5000
	switch {
	case c.Daemon.WAL:
		n = 20000 // WAL appends and the recovery replay cost ~40 µs a record
	case c.Stream.Kind == "imu":
		n = 50000 // imu records cost a fiftieth of a join record
	case c.Load.Shape == "paced":
		n = c.Load.RecordsPerS // one second on the schedule
	}
	if c.Load.Preload > 0 {
		c.Load.Preload = 6000
	}
	if c.Probe.Records > 0 {
		c.Probe.Records = c.Probe.Rate / 5 // 200 ms of probe
	}
	c.Restarts = 1
	return &c, float64(n) / float64(c.Load.RecordsPerS)
}

// TestSmoke runs every workload and its traced run end to end against a
// real stcpsd at N ≈ 5k: no operation may fail, the seed-1 counts must
// equal the pinned ones, the replica must be byte-identical to
// stcps.Engine (runWorkload fails otherwise), and on the three
// ingest-bound workloads the stage self times must add up to the
// untraced replica's wall time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns stcpsd")
	}
	e := testEnv(t)
	all, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("%d workloads, want 5", len(all))
	}
	var results []*result
	defer func() {
		// BENCH_UPDATE_GOLDEN=1 go test -run TestSmoke ./bench re-pins the
		// smoke sizes after a deliberate change to detection.
		if os.Getenv("BENCH_UPDATE_GOLDEN") == "" {
			return
		}
		root, err := moduleRoot()
		if err == nil {
			err = updateGolden(root, results)
		}
		if err != nil {
			t.Error(err)
		}
	}()
	closureChecked := map[string]bool{"join_flatout": true, "imu_filter_flatout": true, "imu_filter_durable": true}
	for _, full := range all {
		w, seconds := smokeSize(full)
		t0 := time.Now()
		r, err := e.runWorkload(w, 1, seconds, true)
		t.Logf("%s: %.1fs", w.Name, time.Since(t0).Seconds())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		results = append(results, r)
		if r.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, r.Failed, r.Attempted, r.Mismatches)
		}
		if !r.GoldenPinned {
			t.Errorf("%s: smoke size %s is not pinned in golden.json (counts %+v)", w.Name,
				goldenKey(w.Name, 1, r.Warm+r.N+r.Probe), r.Counts)
		}
		for _, m := range endToEnd {
			// At smoke size a window is shorter than /proc's 10 ms CPU tick.
			if v := r.EndToEnd[m.Name]; v <= 0 && m.Name != "daemon_cpu_us_per_obs" {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if _, ok := r.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if c := r.PerLayer["pipeline.closure_ratio"]; closureChecked[w.Name] && (c < 0.9 || c > 1.1) {
			t.Errorf("%s: pipeline.closure_ratio %.3f outside [0.9, 1.1]", w.Name, c)
		}
		if _, err := contractLine(r, false); err != nil {
			t.Error(err)
		}
		if testing.Verbose() {
			printResult(os.Stdout, w, r)
		}
		if _, err := os.Stat(fmt.Sprintf("%s/trace-%s.json", e.outDir, w.Name)); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}
