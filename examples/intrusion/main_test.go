package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestRunDeterministic runs the seeded example many times in one
// process and requires the same report every time: Go randomises map
// iteration on every range, so any node walk in map order shows here.
func TestRunDeterministic(t *testing.T) {
	var want bytes.Buffer
	if err := run(&want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		var got bytes.Buffer
		if err := run(&got); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("run %d differs from run 0\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, want.String(), i, got.String())
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/report.golden from this run")

// TestRunGolden compares the seeded report byte for byte with the one
// committed in testdata/report.golden, so a change to detection,
// scheduling or emission order cannot move the example unnoticed.
// Regenerate the file with -update only when a change means to move it.
func TestRunGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report.golden"
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
}
