package spatial

import (
	"fmt"
	"math"
	"slices"
)

// Grid is a uniform spatial hash index over locations. The database server
// (Section 3) uses it for region retrieval of event instances, the
// detection planner for spatial window probes, and the subscription
// matcher to find the subscriptions whose region an instance touches.
//
// The grid keeps keys only. Entries are keyed by a caller-owned uint64
// that every user already has and that is unique among its live
// entries: the store's log sequence number, the detector window's
// arrival sequence, the subscription id. The caller keeps the location
// too: Remove takes the location the id was inserted with, and
// QueryRegion resolves candidates through the caller's resolver (the
// store's chunk slot, the window entry, the subscription's region).
// Each cell keeps its keys in insertion order and removal preserves
// that order, so a caller that retires its oldest entry first
// (retention, a sliding window) always removes a cell's front key, in
// O(1); removing from the middle of a cell costs the cell's length.
//
// Cell coordinates are clamped (ClampCell), so a far-out location shares
// an edge cell instead of wrapping. An entry whose bounding box spans
// more than maxEntryCells cells is kept on one wide list instead of in
// cells; every query examines that list, verifying it like any other
// candidate, so one very large field costs one key, not a cell apiece.
//
// Grid is not safe for concurrent use; callers synchronize externally.
// Concurrent QueryRegion and EstimateRegion calls with no writer are
// safe, because they only read: the subscription matcher probes under a
// read lock from sharded emission workers.
type Grid struct {
	cell  float64
	cells map[cellKey][]uint64
	wide  []uint64 // keys of wide entries, in insertion order
	n     int      // indexed entries
	// ext is the cell extent ever populated, grow-only (removals do not
	// shrink it). Queries clamp their rect to it, so an arbitrarily large
	// query region costs at most the populated extent — never
	// O(area/cell²) of the request.
	ext    cellExtent
	hasExt bool
}

type cellKey struct{ cx, cy int }

// cellExtent is an inclusive cell-coordinate bounding box.
type cellExtent struct{ x0, y0, x1, y1 int }

// maxEntryCells is the most cells an entry is indexed under; a larger
// entry goes on the grid's wide list.
const maxEntryCells = 4096

// wide reports whether the extent spans more than maxEntryCells cells.
// Clamped coordinates keep the width and height below 2^31, so the
// product cannot overflow.
func (e cellExtent) wide() bool {
	w, h := e.x1-e.x0+1, e.y1-e.y0+1
	return w > maxEntryCells || h > maxEntryCells || w*h > maxEntryCells
}

// maxCellCoord bounds cell coordinates: int(f) for a float beyond the
// int64 range wraps on amd64 (and saturates elsewhere).
const maxCellCoord = 1 << 30

// ClampCell converts a coordinate in cell units — a position divided by
// the cell size — to its integer cell: floored, NaN mapped to 0, and
// clamped to ±2^30. Clamping merges far-out cells, so an index that
// verifies its candidates stays exact. The grid (the store's and the
// subscription index's) and the cluster router both cut space with it.
//
//stcps:hotpath
func ClampCell(f float64) int {
	f = math.Floor(f)
	switch {
	case f != f: // NaN
		return 0
	case f < -maxCellCoord:
		return -maxCellCoord
	case f > maxCellCoord:
		return maxCellCoord
	}
	return int(f)
}

// NewGrid returns a grid index with the given cell size. Cell size must be
// positive.
func NewGrid(cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: grid cell size %g must be positive", cellSize)
	}
	return &Grid{cell: cellSize, cells: make(map[cellKey][]uint64)}, nil
}

// Len returns the number of indexed entries.
func (g *Grid) Len() int { return g.n }

// Insert indexes the location under id. The id must not be indexed
// already: the grid does not look for an earlier entry to replace.
func (g *Grid) Insert(id uint64, loc Location) {
	g.n++
	e := g.extentOf(bboxOf(&loc))
	if e.wide() {
		g.wide = append(g.wide, id)
		return
	}
	if !g.hasExt {
		g.ext = e
		g.hasExt = true
	} else {
		g.ext.x0 = min(g.ext.x0, e.x0)
		g.ext.y0 = min(g.ext.y0, e.y0)
		g.ext.x1 = max(g.ext.x1, e.x1)
		g.ext.y1 = max(g.ext.y1, e.y1)
	}
	for cx := e.x0; cx <= e.x1; cx++ {
		for cy := e.y0; cy <= e.y1; cy++ {
			k := cellKey{cx: cx, cy: cy}
			g.cells[k] = append(g.cells[k], id)
		}
	}
}

// Remove drops the entry for id, which must have been inserted with loc.
// Removing an id that is not indexed is a no-op.
func (g *Grid) Remove(id uint64, loc Location) {
	var found bool
	if e := g.extentOf(bboxOf(&loc)); e.wide() {
		g.wide, found = without(g.wide, id)
	} else {
		for cx := e.x0; cx <= e.x1; cx++ {
			for cy := e.y0; cy <= e.y1; cy++ {
				k := cellKey{cx: cx, cy: cy}
				bucket, ok := without(g.cells[k], id)
				found = found || ok
				if len(bucket) > 0 {
					g.cells[k] = bucket
				} else {
					delete(g.cells, k)
				}
			}
		}
	}
	if found {
		g.n--
	}
}

// without removes id from a key list, preserving order, and reports
// whether it was there. Popping the front only moves the slice header;
// the next append that outgrows the tail reallocates and frees the
// popped prefix, so a list holds at most twice its keys.
func without(keys []uint64, id uint64) ([]uint64, bool) {
	switch i := slices.Index(keys, id); {
	case i < 0:
		return keys, false
	case i == 0:
		return keys[1:], true
	default:
		return slices.Delete(keys, i, i+1), true
	}
}

// QueryRegion appends to dst the ids of all entries whose location is
// Joint with the query region and returns the extended slice. locOf
// resolves an indexed id to the location it was inserted with. Results
// are exact (candidates from the grid are verified with the Joint
// operator), ascending and free of duplicates.
func (g *Grid) QueryRegion(dst []uint64, region Location, locOf func(id uint64) Location) []uint64 {
	base := len(dst)
	g.eachBucket(bboxOf(&region), func(bucket []uint64) {
		for _, id := range bucket {
			if OpJoint.Apply(locOf(id), region) {
				dst = append(dst, id)
			}
		}
	})
	// An entry spanning several cells was collected once per cell.
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}

// EstimateRegion returns an upper bound on the number of entries a
// QueryRegion over the region would verify (entries spanning several
// cells are counted once per overlapped cell). It is the grid's
// cardinality estimate for query planning and costs at most the number
// of populated cells.
func (g *Grid) EstimateRegion(region Location) int {
	n := 0
	g.eachBucket(bboxOf(&region), func(bucket []uint64) { n += len(bucket) })
	return n
}

// bboxOf returns the bounding box of a location.
func bboxOf(loc *Location) rect {
	if loc.kind == KindField {
		return loc.field.bbox
	}
	p := loc.point
	return rect{minX: p.X, minY: p.Y, maxX: p.X, maxY: p.Y}
}

// extentOf returns the inclusive range of clamped grid cells a bounding
// box overlaps — one cell for a point. Insert, Remove and the queries
// all cut with it, so a far-out entry and a query around it agree on
// its cell.
func (g *Grid) extentOf(b rect) cellExtent {
	return cellExtent{
		x0: ClampCell(b.minX / g.cell), y0: ClampCell(b.minY / g.cell),
		x1: ClampCell(b.maxX / g.cell), y1: ClampCell(b.maxY / g.cell),
	}
}

// eachBucket calls fn with the wide list and with every populated cell
// overlapped by a query rect. The rect is clamped to the extent ever
// populated, and when the clamped rect still covers more cells than
// exist, the populated cells are filtered directly instead of
// enumerated — an arbitrarily large rect costs at most the populated
// cells.
func (g *Grid) eachBucket(b rect, fn func(bucket []uint64)) {
	if len(g.wide) > 0 {
		fn(g.wide)
	}
	if len(g.cells) == 0 {
		return
	}
	q := g.extentOf(b)
	x0, y0 := max(q.x0, g.ext.x0), max(q.y0, g.ext.y0)
	x1, y1 := min(q.x1, g.ext.x1), min(q.y1, g.ext.y1)
	if x1 < x0 || y1 < y0 {
		return
	}
	w, h := x1-x0+1, y1-y0+1
	if w > len(g.cells) || h > len(g.cells) || w*h > len(g.cells) {
		for k, bucket := range g.cells {
			if k.cx >= x0 && k.cx <= x1 && k.cy >= y0 && k.cy <= y1 {
				fn(bucket)
			}
		}
		return
	}
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			if bucket := g.cells[cellKey{cx: cx, cy: cy}]; len(bucket) > 0 {
				fn(bucket)
			}
		}
	}
}
