package main

import (
	"bytes"
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
