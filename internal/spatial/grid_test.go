package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// at resolves ids through a map, as a grid's owner resolves them
// through its own storage.
type locMap map[uint64]Location

func (m locMap) loc(id uint64) Location { return m[id] }

// insert indexes loc under id in both the grid and the map.
func (m locMap) insert(g *Grid, id uint64, loc Location) {
	m[id] = loc
	g.Insert(id, loc)
}

// remove drops id from both, passing the grid its inserted location.
func (m locMap) remove(g *Grid, id uint64) {
	g.Remove(id, m[id])
	delete(m, id)
}

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
	locs := locMap{}
	const a, b, c = 1, 2, 3
	locs.insert(g, a, AtPoint(5, 5))
	locs.insert(g, b, AtPoint(25, 25))
	locs.insert(g, c, InField(MustField(Pt(0, 0), Pt(12, 0), Pt(12, 12), Pt(0, 12))))
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}

	region, _ := Rect(0, 0, 10, 10)
	got := g.QueryRegion(nil, InField(region), locs.loc)
	if fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("QueryRegion = %v, want [1 3]", got)
	}
	// Results append to the caller's slice.
	if got := g.QueryRegion([]uint64{9}, InField(region), locs.loc); fmt.Sprint(got) != "[9 1 3]" {
		t.Fatalf("QueryRegion onto a prefix = %v, want [9 1 3]", got)
	}

	locs.remove(g, a)
	got = g.QueryRegion(nil, InField(region), locs.loc)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("after Remove, QueryRegion = %v, want [3]", got)
	}
	g.Remove(99, AtPoint(5, 5)) // unknown id: must not panic
	g.Remove(a, AtPoint(5, 5))  // already removed: a no-op too
	if g.Len() != 2 {
		t.Fatalf("Len after removes = %d, want 2", g.Len())
	}
}

// TestGridHugeQueryRect guards against enumerating every cell of an
// arbitrarily large query rect: a region 2e9 wide (≈1.6e17 cells at
// cell size 5) must clamp to the populated extent and return promptly
// instead of walking O(area/cell²) keys.
func TestGridHugeQueryRect(t *testing.T) {
	g, _ := NewGrid(5)
	locs := locMap{}
	locs.insert(g, 1, AtPoint(1, 0))
	locs.insert(g, 2, AtPoint(-300, 42))
	locs.insert(g, 3, AtPoint(7500, -9000))
	region, err := Rect(-1e9, -1e9, 1e9, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(region), locs.loc); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("huge QueryRegion = %v, want [1 2 3]", got)
	}
	// Empty grid: nothing to clamp to, nothing returned.
	empty, _ := NewGrid(5)
	if got := empty.QueryRegion(nil, InField(region), locs.loc); got != nil {
		t.Fatalf("empty grid QueryRegion = %v", got)
	}
	// A rect far outside the populated extent yields nothing.
	far, _ := Rect(1e6, 1e6, 2e6, 2e6)
	if got := g.QueryRegion(nil, InField(far), locs.loc); len(got) != 0 {
		t.Fatalf("far QueryRegion = %v", got)
	}
	// Coordinates beyond int64 range: int(f) would wrap to MinInt64; the
	// float-space rejection must catch it.
	if got := g.QueryRegion(nil, AtPoint(1e30, 1), locs.loc); len(got) != 0 {
		t.Fatalf("1e30 point query = %v", got)
	}
	if got := g.QueryRegion(nil, AtPoint(-1e30, -1e30), locs.loc); len(got) != 0 {
		t.Fatalf("-1e30 point query = %v", got)
	}
	huge, err := Rect(1e300, 1e300, 2e300, 2e300)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(huge), locs.loc); len(got) != 0 {
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

// FuzzGridMatchesLinearScan cross-checks the grid against a brute-force
// Joint scan of its live entries. The input is a program of Insert,
// Remove, QueryRegion and EstimateRegion steps over points, small
// fields, wide fields (more than maxEntryCells cells) and far-out
// coordinates (±1e21). Every query must equal the scan, ascending and
// without duplicates; every estimate must bound it; Len must equal the
// live count after every step. The seed is a fixed random case: 300
// points and fields, removals from the front, the middle and the back
// of cells, then 25 region queries.
func FuzzGridMatchesLinearScan(f *testing.F) {
	f.Add(linearScanSeed())
	f.Add([]byte{0, 2, 128, 0, 128, 0, 9, 0, 3, 1, 0, 0, 2, 2, 128, 0, 128, 0, 200, 3, 2, 0, 1, 0, 0, 2, 3, 0, 0, 0, 0, 0})
	f.Fuzz(checkGridProgram)
}

// checkGridProgram runs one FuzzGridMatchesLinearScan program.
func checkGridProgram(t *testing.T, prog []byte) {
	g, _ := NewGrid(8)
	locs := locMap{}
	var live []uint64 // ascending: ids are assigned in order
	r := progReader(prog)
	for nextID := uint64(0); r.more(); {
		switch r.next() % 4 {
		case 0:
			loc := r.location()
			locs.insert(g, nextID, loc)
			live = append(live, nextID)
			nextID++
		case 1:
			if len(live) == 0 {
				g.Remove(nextID, r.location()) // unknown id: a no-op
				break
			}
			i := int(r.next())<<8 | int(r.next())
			i %= len(live)
			locs.remove(g, live[i])
			live = append(live[:i], live[i+1:]...)
		case 2, 3:
			region := r.location()
			var want []uint64
			for _, id := range live {
				if OpJoint.Apply(locs[id], region) {
					want = append(want, id)
				}
			}
			got := g.QueryRegion(nil, region, locs.loc)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("QueryRegion(%v) = %v, scan = %v", region, got, want)
			}
			if n := g.EstimateRegion(region); n < len(want) {
				t.Fatalf("EstimateRegion(%v) = %d, below the %d matches", region, n, len(want))
			}
		}
		if g.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", g.Len(), len(live))
		}
	}
}

// progReader decodes a fuzz program; reading past its end yields zeros.
type progReader []byte

func (r *progReader) more() bool { return len(*r) > 0 }

func (r *progReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// coord decodes two bytes to a coordinate in [-128, 128).
func (r *progReader) coord() float64 {
	return float64(int(r.next())-128) + float64(r.next())/256
}

// location decodes a kind byte and its operands: a point, a small
// field, a wide field or a far-out location.
func (r *progReader) location() Location {
	kind, x, y := r.next()%4, r.coord(), r.coord()
	switch kind {
	case 1: // up to 32×32: a few cells of 8
		w, h := 0.5+float64(r.next())/8, 0.5+float64(r.next())/8
		f, _ := Rect(x, y, x+w, y+h)
		return InField(f)
	case 2: // at least 520×520: over 4096 cells of 8
		w := 520 + 4*float64(r.next())
		f, _ := Rect(x, y, x+w, y+w)
		return InField(f)
	case 3: // ±1e21: clamped into an edge cell
		fx, fy := math.Copysign(1e21, x), math.Copysign(1e21, y)
		if r.next()%2 == 0 {
			return AtPoint(fx+x, fy+y)
		}
		f, _ := Rect(fx, fy, fx+math.Abs(fx)/2, fy+math.Abs(fy)/2)
		return InField(f)
	}
	return AtPoint(x, y)
}

// linearScanSeed encodes the fixed random case: 300 entries in
// [0, 100)², every fifth a field up to 30 wide; nine removals; then 25
// region queries up to 21 wide.
func linearScanSeed() []byte {
	rng := rand.New(rand.NewSource(7))
	var prog []byte
	coord := func(v float64) []byte {
		whole := math.Floor(v)
		return []byte{byte(int(whole) + 128), byte((v - whole) * 256)}
	}
	for i := 0; i < 300; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		if i%5 == 0 {
			prog = append(prog, 0, 1)
			prog = append(prog, coord(x)...)
			prog = append(prog, coord(y)...)
			prog = append(prog, byte(rng.Intn(240)), byte(rng.Intn(240)))
			continue
		}
		prog = append(prog, 0, 0)
		prog = append(prog, coord(x)...)
		prog = append(prog, coord(y)...)
	}
	live := make([]uint64, 300)
	for i := range live {
		live[i] = uint64(i)
	}
	for _, id := range []uint64{0, 1, 2, 150, 151, 299, 298, 40, 45} {
		i := slices.Index(live, id)
		prog = append(prog, 1, byte(i>>8), byte(i))
		live = slices.Delete(live, i, i+1)
	}
	for i := 0; i < 25; i++ {
		x, y := rng.Float64()*90, rng.Float64()*90
		w := byte(rng.Intn(168))
		prog = append(prog, 2, 1)
		prog = append(prog, coord(x)...)
		prog = append(prog, coord(y)...)
		prog = append(prog, w, w)
	}
	return prog
}

// TestGridFIFORemovalIsConstantTime pins the eviction cost of a hot
// cell: removing the oldest entry pops the front of the cell. With
// swap-with-last removal the cell's order scrambled and every removal
// scanned the whole cell — 200 000 removals from one cell took seconds.
func TestGridFIFORemovalIsConstantTime(t *testing.T) {
	const n = 200_000
	g, _ := NewGrid(16)
	here := AtPoint(3, 3)
	locOf := func(uint64) Location { return here }
	for i := uint64(0); i < n; i++ {
		g.Insert(i, here)
	}
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		g.Remove(i, here)
		g.Insert(n+i, here) // steady state: the cell stays full
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("%d FIFO removals from one cell took %v: removal is scanning the cell", n, d)
	}
	if g.Len() != n {
		t.Fatalf("Len = %d, want %d", g.Len(), n)
	}
	if got := g.QueryRegion(nil, here, locOf); len(got) != n || got[0] != n {
		t.Fatalf("cell holds %d entries from %d, want %d from %d", len(got), got[0], n, n)
	}
}

// TestGridWideEntry pins the cost of one very large field: a 1000×1000
// field in a cell-1 grid would cover 1M cells. It goes on the wide list
// instead — one key, a bounded allocation — and queries still find it
// exactly.
func TestGridWideEntry(t *testing.T) {
	g, _ := NewGrid(1)
	locs := locMap{}
	field := InField(MustField(Pt(0, 0), Pt(1000, 0), Pt(1000, 1000), Pt(0, 1000)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	locs.insert(g, 1, field)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("inserting one wide field allocated %d bytes, want ≤ 1 MiB", n)
	}
	if len(g.cells) != 0 {
		t.Fatalf("wide field filled %d cells, want 0", len(g.cells))
	}
	locs.insert(g, 2, AtPoint(5000, 5000))
	inside, _ := Rect(10, 10, 20, 20)
	if got := g.QueryRegion(nil, InField(inside), locs.loc); fmt.Sprint(got) != "[1]" {
		t.Fatalf("query inside the wide field = %v, want [1]", got)
	}
	if n := g.EstimateRegion(InField(inside)); n != 1 {
		t.Fatalf("EstimateRegion inside the wide field = %d, want 1", n)
	}
	// The wide entry is a candidate for every query and is verified.
	if got := g.QueryRegion(nil, AtPoint(5000, 5000), locs.loc); fmt.Sprint(got) != "[2]" {
		t.Fatalf("query outside the wide field = %v, want [2]", got)
	}
	locs.remove(g, 1)
	if got := g.QueryRegion(nil, InField(inside), locs.loc); len(got) != 0 || len(g.wide) != 0 {
		t.Fatalf("after Remove: query = %v, wide list = %v", got, g.wide)
	}
}

// TestGridFarOutPoint: a point at (1e21, 1e21) lands in the clamped
// edge cell, where a query around it finds it. Unclamped, int(f) wraps
// it into cell MinInt64 and the query returns nothing.
func TestGridFarOutPoint(t *testing.T) {
	g, _ := NewGrid(16)
	locs := locMap{}
	locs.insert(g, 1, AtPoint(1e21, 1e21))
	around, err := Rect(9e20, 9e20, 2e21, 2e21)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRegion(nil, InField(around), locs.loc); fmt.Sprint(got) != "[1]" {
		t.Fatalf("query around the far-out point = %v, want [1]", got)
	}
	if got := g.QueryRegion(nil, AtPoint(1e21, 1e21), locs.loc); fmt.Sprint(got) != "[1]" {
		t.Fatalf("point query at the far-out point = %v, want [1]", got)
	}
}

// TestGridHugeQueryOverFarOutExtent: with a far-out point and a point
// near the origin, a query spanning ±1e22 must return both promptly.
// Unclamped, the populated extent spans the whole int64 range, its width
// overflows, and the query enumerates cells without end.
func TestGridHugeQueryOverFarOutExtent(t *testing.T) {
	g, _ := NewGrid(16)
	locs := locMap{}
	locs.insert(g, 1, AtPoint(1e21, 1e21))
	locs.insert(g, 2, AtPoint(5, 5))
	all, err := Rect(-1e22, -1e22, 1e22, 1e22)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []uint64, 1)
	go func() { done <- g.QueryRegion(nil, InField(all), locs.loc) }()
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
