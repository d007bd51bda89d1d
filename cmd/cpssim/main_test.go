package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

func TestRunBuildingScenario(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "building", "-ticks", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"scenario building",
		"sensor layer",
		"cyber-physical layer",
		"cyber layer",
		"CP.nearby",
		"E.presence",
		"ground truth:",
		"P.nearby",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunForestFireScenario(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "forestfire", "-ticks", "2500", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"CP.fireFront", "E.fireAlarm"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunLineageFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "building", "-ticks", "1000", "-lineage"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "provenance of first cyber event:") {
		t.Fatal("lineage section missing")
	}
	// The chain must reach a raw observation.
	if !strings.Contains(got, "O(MT") {
		t.Errorf("lineage does not reach an observation:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "marsrover"}, &out); err == nil {
		t.Error("unknown scenario should error")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	render := func() string {
		var out strings.Builder
		if err := run([]string{"-scenario", "building", "-ticks", "800", "-seed", "3"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if render() != render() {
		t.Fatal("same seed produced different reports")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestRunGolden compares both seeded scenarios byte for byte with the
// reports committed under testdata, so a change to detection,
// scheduling or emission order cannot move them unnoticed. Regenerate
// the files with -update only when a change means to move them.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"building.golden", []string{"-scenario", "building", "-lineage"}},
		{"forestfire.golden", []string{"-scenario", "forestfire", "-ticks", "3000", "-lineage"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(tc.args, &got); err != nil {
				t.Fatal(err)
			}
			path := "testdata/" + tc.golden
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("report differs from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got.String())
			}
		})
	}
}
