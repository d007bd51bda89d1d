package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0); err == nil {
		t.Error("zero cell size should error")
	}
	if _, err := NewGrid(-3); err == nil {
		t.Error("negative cell size should error")
	}
}

func TestGridInsertQueryRemove(t *testing.T) {
	g, err := NewGrid(10)
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = 1, 2, 3
	g.Insert(a, AtPoint(5, 5))
	g.Insert(b, AtPoint(25, 25))
	g.Insert(c, InField(MustField(Pt(0, 0), Pt(12, 0), Pt(12, 12), Pt(0, 12))))
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}

	region, _ := Rect(0, 0, 10, 10)
	got := g.QueryRegion(nil, InField(region))
	if fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("QueryRegion = %v, want [1 3]", got)
	}
	// Results append to the caller's slice.
	if got := g.QueryRegion([]uint64{9}, InField(region)); fmt.Sprint(got) != "[9 1 3]" {
		t.Fatalf("QueryRegion onto a prefix = %v, want [9 1 3]", got)
	}

	g.Remove(a)
	got = g.QueryRegion(nil, InField(region))
	if len(got) != 1 || got[0] != c {
		t.Fatalf("after Remove, QueryRegion = %v, want [3]", got)
	}
	g.Remove(99) // unknown id: must not panic
	if g.Len() != 2 {
		t.Fatalf("Len after removes = %d, want 2", g.Len())
	}
}

func TestGridReplaceSameID(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(7, AtPoint(5, 5))
	g.Insert(7, AtPoint(95, 95))
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", g.Len())
	}
	region, _ := Rect(0, 0, 10, 10)
	if got := g.QueryRegion(nil, InField(region)); len(got) != 0 {
		t.Fatalf("old location still indexed: %v", got)
	}
	region2, _ := Rect(90, 90, 100, 100)
	if got := g.QueryRegion(nil, InField(region2)); len(got) != 1 {
		t.Fatalf("new location not found: %v", got)
	}
}

// TestGridHugeQueryRect guards against enumerating every cell of an
// arbitrarily large query rect: a region 2e9 wide (≈1.6e17 cells at
// cell size 5) must clamp to the populated extent and return promptly
// instead of walking O(area/cell²) keys.
func TestGridHugeQueryRect(t *testing.T) {
	g, _ := NewGrid(5)
	g.Insert(1, AtPoint(1, 0))
	g.Insert(2, AtPoint(-300, 42))
	g.Insert(3, AtPoint(7500, -9000))
	region, err := Rect(-1e9, -1e9, 1e9, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(region)); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("huge QueryRegion = %v, want [1 2 3]", got)
	}
	// Empty grid: nothing to clamp to, nothing returned.
	empty, _ := NewGrid(5)
	if got := empty.QueryRegion(nil, InField(region)); got != nil {
		t.Fatalf("empty grid QueryRegion = %v", got)
	}
	// A rect far outside the populated extent yields nothing.
	far, _ := Rect(1e6, 1e6, 2e6, 2e6)
	if got := g.QueryRegion(nil, InField(far)); len(got) != 0 {
		t.Fatalf("far QueryRegion = %v", got)
	}
	// Coordinates beyond int64 range: int(f) would wrap to MinInt64; the
	// float-space rejection must catch it.
	if got := g.QueryRegion(nil, AtPoint(1e30, 1)); len(got) != 0 {
		t.Fatalf("1e30 point query = %v", got)
	}
	if got := g.QueryRegion(nil, AtPoint(-1e30, -1e30)); len(got) != 0 {
		t.Fatalf("-1e30 point query = %v", got)
	}
	huge, err := Rect(1e300, 1e300, 2e300, 2e300)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(huge)); len(got) != 0 {
		t.Fatalf("1e300 rect query = %v", got)
	}
}

func TestGridEstimateRegion(t *testing.T) {
	g, _ := NewGrid(10)
	g.Insert(1, AtPoint(5, 5))
	g.Insert(2, AtPoint(6, 6))
	g.Insert(3, AtPoint(95, 95))
	near, _ := Rect(0, 0, 9, 9)
	if n := g.EstimateRegion(InField(near)); n != 2 {
		t.Errorf("EstimateRegion(near) = %d, want 2", n)
	}
	all, _ := Rect(-1e9, -1e9, 1e9, 1e9)
	if n := g.EstimateRegion(InField(all)); n != 3 {
		t.Errorf("EstimateRegion(all) = %d, want 3", n)
	}
	nowhere, _ := Rect(400, 400, 500, 500)
	if n := g.EstimateRegion(InField(nowhere)); n != 0 {
		t.Errorf("EstimateRegion(nowhere) = %d, want 0", n)
	}
}

// TestGridMatchesLinearScan cross-checks the grid against a brute-force
// scan over random points, multi-cell fields and regions, with removals
// from the front, the middle and the back of cells — the index must be
// exact and its results ascending without duplicates.
func TestGridMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := NewGrid(8)
	live := make(map[uint64]Location)
	for i := uint64(0); i < 300; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		loc := AtPoint(x, y)
		if i%5 == 0 {
			f, err := Rect(x, y, x+rng.Float64()*30, y+rng.Float64()*30)
			if err != nil {
				t.Fatal(err)
			}
			loc = InField(f)
		}
		g.Insert(i, loc)
		live[i] = loc
	}
	for _, id := range []uint64{0, 1, 2, 150, 151, 299, 298, 40, 45} {
		g.Remove(id)
		delete(live, id)
	}
	if g.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(live))
	}
	for trial := 0; trial < 25; trial++ {
		x := rng.Float64() * 90
		y := rng.Float64() * 90
		w := rng.Float64()*20 + 1
		region, err := Rect(x, y, x+w, y+w)
		if err != nil {
			t.Fatal(err)
		}
		rloc := InField(region)

		var want []uint64
		for id := uint64(0); id < 300; id++ {
			if loc, ok := live[id]; ok && OpJoint.Apply(loc, rloc) {
				want = append(want, id)
			}
		}
		if got := g.QueryRegion(nil, rloc); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: grid %v != scan %v", trial, got, want)
		}
	}
}

// TestGridFIFORemovalIsConstantTime pins the eviction cost of a hot
// cell: removing the oldest entry pops the front of the cell. With
// swap-with-last removal the cell's order scrambled and every removal
// scanned the whole cell — 200 000 removals from one cell took seconds.
func TestGridFIFORemovalIsConstantTime(t *testing.T) {
	const n = 200_000
	g, _ := NewGrid(16)
	at := AtPoint(3, 3)
	for i := uint64(0); i < n; i++ {
		g.Insert(i, at)
	}
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		g.Remove(i)
		g.Insert(n+i, at) // steady state: the cell stays full
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("%d FIFO removals from one cell took %v: removal is scanning the cell", n, d)
	}
	if g.Len() != n {
		t.Fatalf("Len = %d, want %d", g.Len(), n)
	}
	if got := g.QueryRegion(nil, at); len(got) != n || got[0] != n {
		t.Fatalf("cell holds %d entries from %d, want %d from %d", len(got), got[0], n, n)
	}
}

// TestGridWideEntry pins the cost of one very large field: a 1000×1000
// field in a cell-1 grid would cover 1M cells. It goes on the wide list
// instead — one key, a bounded allocation — and queries still find it
// exactly.
func TestGridWideEntry(t *testing.T) {
	g, _ := NewGrid(1)
	field := InField(MustField(Pt(0, 0), Pt(1000, 0), Pt(1000, 1000), Pt(0, 1000)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Insert(1, field)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("inserting one wide field allocated %d bytes, want ≤ 1 MiB", n)
	}
	if len(g.cells) != 0 {
		t.Fatalf("wide field filled %d cells, want 0", len(g.cells))
	}
	g.Insert(2, AtPoint(5000, 5000))
	inside, _ := Rect(10, 10, 20, 20)
	if got := g.QueryRegion(nil, InField(inside)); fmt.Sprint(got) != "[1]" {
		t.Fatalf("query inside the wide field = %v, want [1]", got)
	}
	if n := g.EstimateRegion(InField(inside)); n != 1 {
		t.Fatalf("EstimateRegion inside the wide field = %d, want 1", n)
	}
	// The wide entry is a candidate for every query and is verified.
	if got := g.QueryRegion(nil, AtPoint(5000, 5000)); fmt.Sprint(got) != "[2]" {
		t.Fatalf("query outside the wide field = %v, want [2]", got)
	}
	g.Remove(1)
	if got := g.QueryRegion(nil, InField(inside)); len(got) != 0 || len(g.wide) != 0 {
		t.Fatalf("after Remove: query = %v, wide list = %v", got, g.wide)
	}
}

// TestGridFarOutPoint: a point at (1e21, 1e21) lands in the clamped
// edge cell, where a query around it finds it. Unclamped, int(f) wraps
// it into cell MinInt64 and the query returns nothing.
func TestGridFarOutPoint(t *testing.T) {
	g, _ := NewGrid(16)
	g.Insert(1, AtPoint(1e21, 1e21))
	around, err := Rect(9e20, 9e20, 2e21, 2e21)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(around)); fmt.Sprint(got) != "[1]" {
		t.Fatalf("query around the far-out point = %v, want [1]", got)
	}
	if got := g.QueryRegion(nil, AtPoint(1e21, 1e21)); fmt.Sprint(got) != "[1]" {
		t.Fatalf("point query at the far-out point = %v, want [1]", got)
	}
}

// TestGridHugeQueryOverFarOutExtent: with a far-out point and a point
// near the origin, a query spanning ±1e22 must return both promptly.
// Unclamped, the populated extent spans the whole int64 range, its width
// overflows, and the query enumerates cells without end.
func TestGridHugeQueryOverFarOutExtent(t *testing.T) {
	g, _ := NewGrid(16)
	g.Insert(1, AtPoint(1e21, 1e21))
	g.Insert(2, AtPoint(5, 5))
	all, err := Rect(-1e22, -1e22, 1e22, 1e22)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []uint64, 1)
	go func() { done <- g.QueryRegion(nil, InField(all)) }()
	select {
	case got := <-done:
		if fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("huge query = %v, want [1 2]", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("huge query over a far-out extent still running after 5s")
	}
}

func TestClampCell(t *testing.T) {
	for _, tt := range []struct {
		in   float64
		want int
	}{
		{0, 0}, {0.5, 0}, {-0.5, -1}, {3.9, 3}, {-3.1, -4},
		{math.NaN(), 0},
		{1e21, maxCellCoord}, {-1e21, -maxCellCoord},
		{math.Inf(1), maxCellCoord}, {math.Inf(-1), -maxCellCoord},
		{maxCellCoord + 0.5, maxCellCoord}, {-maxCellCoord - 0.5, -maxCellCoord},
	} {
		if got := ClampCell(tt.in); got != tt.want {
			t.Errorf("ClampCell(%g) = %d, want %d", tt.in, got, tt.want)
		}
	}
}
