package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host describes the box and the tree the numbers came from.
type host struct {
	NProc             int    `json:"nproc"`
	HarnessGOMAXPROCS int    `json:"harness_gomaxprocs"`
	DaemonGOMAXPROCS  string `json:"daemon_gomaxprocs"`
	GoVersion         string `json:"go_version"`
	Commit            string `json:"commit"`
	TempDir           string `json:"temp_dir"`
	TempDirFS         string `json:"temp_dir_fs"`
	// KeepAwake reports whether the SCHED_IDLE spinners ran (keepawake.go).
	KeepAwake bool `json:"keep_awake"`
	// NonTestLoC and Packages track the size of the module (ROADMAP
	// item 5): non-test .go lines and directories holding them,
	// bench/ excluded.
	NonTestLoC int `json:"non_test_loc"`
	Packages   int `json:"packages"`
}

// report is the result file -compare reads.
type report struct {
	Host    host      `json:"host"`
	Results []*result `json:"results"`
}

func describeHost(root, outDir string) host {
	h := host{
		NProc:             runtime.NumCPU(),
		HarnessGOMAXPROCS: runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS:  "default",
		GoVersion:         runtime.Version(),
		Commit:            "unknown",
		TempDir:           outDir,
		TempDirFS:         fsType(outDir),
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		h.DaemonGOMAXPROCS = v // the daemon inherits the environment
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.NonTestLoC, h.Packages = moduleSize(root)
	return h
}

// fsType names the filesystem holding dir: the longest mount point in
// /proc/mounts that prefixes it.
func fsType(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fields[2]
		}
	}
	return typ
}

// moduleSize counts non-test Go lines and the directories holding them,
// leaving out the benchmark itself.
func moduleSize(root string) (loc, pkgs int) {
	dirs := map[string]bool{}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		loc += strings.Count(string(data), "\n")
		dirs[filepath.Dir(path)] = true
		return nil
	})
	return loc, len(dirs)
}

func printHost(w io.Writer, h host) {
	fmt.Fprintf(w, "host: nproc=%d harness_gomaxprocs=%d daemon_gomaxprocs=%s %s commit=%s\n",
		h.NProc, h.HarnessGOMAXPROCS, h.DaemonGOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "      temp_dir=%s (%s) keep_awake=%v non_test_loc=%d packages=%d\n", h.TempDir, h.TempDirFS, h.KeepAwake, h.NonTestLoC, h.Packages)
}

// sampleFamily maps a percentile metric to its sample-count key.
func sampleFamily(name string) string {
	switch {
	case strings.Contains(name, "detect_latency"):
		return "detect_latency"
	case strings.Contains(name, "query_page"):
		return "query_page"
	}
	return ""
}

// printResult prints every metric of one run by name with its unit.
func printResult(w io.Writer, wl *Workload, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d  warm=%d N=%d probe=%d  window=%.2fs ==\n", r.Workload, r.Seed, r.Warm, r.N, r.Probe, r.WindowS)
	fmt.Fprintf(w, "why: %s\n", wl.Why)
	fmt.Fprintf(w, "daemon: stcpsd -events <tmp>/events.json -tcp 127.0.0.1:0 -http 127.0.0.1:0 -workers 1 %s\n", strings.Join(r.DaemonFlags, " "))
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-32s %14.3f %-5s (%s is better, bound %.0f%%)", m.Name, r.EndToEnd[m.Name], m.Unit, m.Better, m.Bound*100)
		if fam := sampleFamily(m.Name); fam != "" {
			line += fmt.Sprintf(" n=%d", r.Samples[fam])
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-32s %14.6f       (%d of %d operations failed)\n", "failed_ops_share", r.FailedOpsShare, r.Failed, r.Attempted)
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "per-layer (T = traced replica, S = daemon counters):")
		for _, m := range perLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-32s %14.3f %-5s %s", m.Name, v, m.Unit, m.Src)
			if fam := sampleFamily(m.Name); fam != "" {
				line += fmt.Sprintf(" n=%d", r.Samples[fam])
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(r.Stages) > 0 {
		fmt.Fprintln(w, "ingest stages by self time (traced replica; `outside` = 1e9/ingest_obs_per_s minus their sum):")
		for _, s := range r.Stages {
			fmt.Fprintf(w, "  %-32s %10.0f ns/obs\n", s.Name, s.NsPerObs)
		}
	}
	for _, s := range r.Mismatches {
		fmt.Fprintf(w, "MISMATCH %s\n", s)
	}
	for _, s := range r.Invalid {
		fmt.Fprintf(w, "INVALID %s\n", s)
	}
}

// contractLine is the driver's result object: the last line of stdout.
func contractLine(r *result, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.EndToEnd
	if trace {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, metrics})
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
