package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenCounts are the exact, seed-determined counts of one run. The
// reference engine produces them for any seed; golden.json pins the
// seed-1 values, which catches a semantic change that moves the daemon
// and the reference together.
type goldenCounts struct {
	Emitted     uint64 `json:"emitted"`
	StoreTotal  uint64 `json:"store_total"`
	Delivered   uint64 `json:"delivered"`
	WalkCount   int    `json:"walk_count"`
	WalkHash    string `json:"walk_hash"`
	PayloadHash string `json:"payload_hash"`
}

// goldenKey identifies a pinned run: counts depend on the workload, the
// seed and the total record count.
func goldenKey(workload string, seed uint64, total int) string {
	return fmt.Sprintf("%s/seed%d/n%d", workload, seed, total)
}

func loadGolden() (map[string]goldenCounts, error) {
	data, err := files.ReadFile("golden.json")
	if err != nil {
		return nil, err
	}
	g := map[string]goldenCounts{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a run's counts with the pinned ones, when this
// (workload, seed, size) is pinned. It reports whether it was.
func checkGolden(t *tally, workload string, seed uint64, total int, got goldenCounts) bool {
	g, err := loadGolden()
	if err != nil {
		t.fail("%v", err)
		return false
	}
	want, ok := g[goldenKey(workload, seed, total)]
	if !ok {
		return false
	}
	t.equal("golden.emitted", got.Emitted, want.Emitted)
	t.equal("golden.store_total", got.StoreTotal, want.StoreTotal)
	t.equal("golden.delivered", got.Delivered, want.Delivered)
	t.equal("golden.walk_count", got.WalkCount, want.WalkCount)
	t.equal("golden.walk_hash", got.WalkHash, want.WalkHash)
	t.equal("golden.payload_hash", got.PayloadHash, want.PayloadHash)
	return true
}

// updateGolden merges the runs' counts into bench/golden.json in the
// source tree — for the change that deliberately alters detection.
func updateGolden(root string, results []*result) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for _, r := range results {
		g[goldenKey(r.Workload, r.Seed, r.Warm+r.N+r.Probe)] = r.Counts
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "golden.json"), append(data, '\n'), 0o644)
}
