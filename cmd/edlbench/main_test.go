package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	tests := []struct {
		exp  string
		want string
	}{
		{"E1", "E1: EDL vs. network depth"},
		{"e2", "E2: EDL vs. sampling period"},
		{"E3", "E3: recall and EDL"},
		{"E8", "E8: baseline expressiveness"},
		{"E11", "E11: condition evaluation placement"},
	}
	for _, tt := range tests {
		t.Run(tt.exp, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{"-exp", tt.exp, "-runs", "2"}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tt.want) {
				t.Errorf("output missing %q", tt.want)
			}
			// Tables must have data rows beyond the two header lines.
			if lines := strings.Count(out.String(), "\n"); lines < 4 {
				t.Errorf("table too short:\n%s", out.String())
			}
		})
	}
}

func TestRunJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-exp", "E3", "-runs", "2", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Schema string `json:"schema"`
		E3     []struct {
			Loss   float64 `json:"loss"`
			Recall float64 `json:"recall"`
		} `json:"e3"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.Schema != "stcps-bench/1" {
		t.Errorf("schema = %q", art.Schema)
	}
	if len(art.E3) != 6 {
		t.Errorf("e3 rows = %d, want 6", len(art.E3))
	}
	if art.E3[0].Recall < art.E3[len(art.E3)-1].Recall {
		t.Errorf("recall should not improve with loss: %v", art.E3)
	}
	// An -exp E3 artifact carries the E3 rows and nothing else.
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	for key := range sections {
		switch key {
		case "schema", "generated", "goVersion", "goos", "goarch", "cpus", "runs", "e3":
		default:
			t.Errorf("artifact carries unexpected section %q", key)
		}
	}
}

// TestBenchArtifactRegenerates pins the paper reproduction: edlbench
// -json regenerates the committed BENCH_1.json exactly, host fields
// aside. The chains run in virtual time with fixed seeds, so a change
// to the EDL model or to the simulator shows up here as a changed row.
func TestBenchArtifactRegenerates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, want := readArtifact(t, path), readArtifact(t, filepath.Join("..", "..", "BENCH_1.json"))
	for _, host := range []string{"generated", "goVersion", "goos", "goarch", "cpus"} {
		delete(got, host)
		delete(want, host)
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("BENCH_1.json carries %q, which edlbench no longer writes", key)
		}
	}
	for key, v := range got {
		if !reflect.DeepEqual(v, want[key]) {
			t.Errorf("%q regenerates as\n%v\nbut BENCH_1.json holds\n%v", key, v, want[key])
		}
	}
}

// readArtifact decodes a benchmark artifact section by section.
func readArtifact(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art map[string]any
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return art
}

// TestRunUnknownExperiment also pins the tool's scope: the systems
// experiments and their tuning flags are gone (the pipeline ledger in
// bench/ measures the system), so asking for them fails.
func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	for _, exp := range []string{"E99", "E9", "E10", "E13", "E14", "E15", "E16", "E17"} {
		if err := run([]string{"-exp", exp}, &out); err == nil {
			t.Errorf("-exp %s should error as unknown", exp)
		}
	}
	for _, flag := range []string{"-nope", "-queryInstances", "-joinEntities", "-joinWindow",
		"-wireRecords", "-contendReaders", "-contendMillis"} {
		if err := run([]string{flag, "1"}, &out); err == nil {
			t.Errorf("%s should error as an unknown flag", flag)
		}
	}
}

func TestE1MonotoneInDepth(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E1", "-runs", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	// The measured mean column must be non-decreasing with depth.
	var prev float64 = -1
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) != 6 || fields[0] == "depth" {
			continue
		}
		mean, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if mean < prev {
			t.Fatalf("EDL decreased with depth: %v after %v", mean, prev)
		}
		prev = mean
	}
	if prev < 0 {
		t.Fatal("no data rows parsed")
	}
}
