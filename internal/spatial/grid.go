package spatial

import (
	"fmt"
	"math"
	"slices"
)

// Grid is a uniform spatial hash index over locations. The database server
// (Section 3) uses it for region retrieval of event instances, and the
// detection planner for spatial window probes.
//
// Entries are keyed by a caller-owned uint64 — both users already have
// one: the store's log sequence number, the detector window's arrival
// sequence. Each cell keeps its keys in insertion order and removal
// preserves that order, so a caller that retires its oldest entry first
// (retention, a sliding window) always removes a cell's front key, in
// O(1); removing from the middle of a cell costs the cell's length.
//
// Grid is not safe for concurrent use; callers synchronize externally.
type Grid struct {
	cell  float64
	cells map[cellKey][]uint64
	locs  map[uint64]Location
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

// NewGrid returns a grid index with the given cell size. Cell size must be
// positive.
func NewGrid(cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: grid cell size %g must be positive", cellSize)
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[cellKey][]uint64),
		locs:  make(map[uint64]Location),
	}, nil
}

// Len returns the number of indexed entries.
func (g *Grid) Len() int { return len(g.locs) }

// Insert indexes the location under id, replacing any previous entry for
// the same id.
func (g *Grid) Insert(id uint64, loc Location) {
	if _, ok := g.locs[id]; ok {
		g.Remove(id)
	}
	g.locs[id] = loc
	e := g.cellsOf(&loc)
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

// Remove drops the entry for id. Removing an unknown id is a no-op.
func (g *Grid) Remove(id uint64) {
	loc, ok := g.locs[id]
	if !ok {
		return
	}
	delete(g.locs, id)
	e := g.cellsOf(&loc)
	for cx := e.x0; cx <= e.x1; cx++ {
		for cy := e.y0; cy <= e.y1; cy++ {
			k := cellKey{cx: cx, cy: cy}
			bucket := g.cells[k]
			i := slices.Index(bucket, id)
			switch {
			case i < 0:
				continue
			case len(bucket) == 1:
				delete(g.cells, k)
				continue
			case i == 0:
				// Popping the front only moves the slice header; the next
				// append that outgrows the tail reallocates and frees the
				// popped prefix, so a cell holds at most twice its keys.
				bucket = bucket[1:]
			default:
				bucket = slices.Delete(bucket, i, i+1)
			}
			g.cells[k] = bucket
		}
	}
}

// QueryRegion appends to dst the ids of all entries whose location is
// Joint with the query region and returns the extended slice. Results
// are exact (candidates from the grid are verified with the Joint
// operator), ascending and free of duplicates.
func (g *Grid) QueryRegion(dst []uint64, region Location) []uint64 {
	base := len(dst)
	g.eachBucket(bboxOf(&region), func(bucket []uint64) {
		for _, id := range bucket {
			if OpJoint.Apply(g.locs[id], region) {
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

// cellsOf returns the inclusive range of grid cells overlapped by the
// location's bounding box, exactly — the insert/remove path, where the
// cell set must match the entry's own extent (one cell for a point).
func (g *Grid) cellsOf(loc *Location) cellExtent {
	b := bboxOf(loc)
	return cellExtent{
		x0: int(math.Floor(b.minX / g.cell)), y0: int(math.Floor(b.minY / g.cell)),
		x1: int(math.Floor(b.maxX / g.cell)), y1: int(math.Floor(b.maxY / g.cell)),
	}
}

// eachBucket calls fn with every populated cell overlapped by a query
// rect. The rect is clamped to the extent ever populated — in float
// space, so an arbitrarily large rect cannot overflow cell coordinates —
// and when the clamped rect still covers more cells than exist, the
// populated cells are filtered directly instead of enumerated.
func (g *Grid) eachBucket(b rect, fn func(bucket []uint64)) {
	if len(g.cells) == 0 {
		return
	}
	x0, y0, x1, y1 := g.ext.x0, g.ext.y0, g.ext.x1, g.ext.y1
	// Tighten each bound only when the rect's edge falls inside the
	// extent. The comparisons stay in float space: a coordinate past
	// the opposite extent edge means an empty intersection, and is
	// rejected before any int conversion — int(f) for f beyond int64
	// range would wrap instead of saturating.
	if f := math.Floor(b.minX / g.cell); f > float64(x0) {
		if f > float64(x1) {
			return
		}
		x0 = int(f)
	}
	if f := math.Floor(b.minY / g.cell); f > float64(y0) {
		if f > float64(y1) {
			return
		}
		y0 = int(f)
	}
	if f := math.Floor(b.maxX / g.cell); f < float64(x1) {
		if f < float64(x0) {
			return
		}
		x1 = int(f)
	}
	if f := math.Floor(b.maxY / g.cell); f < float64(y1) {
		if f < float64(y0) {
			return
		}
		y1 = int(f)
	}
	if x1 < x0 || y1 < y0 {
		return
	}
	w, h := x1-x0+1, y1-y0+1
	// Compare width and height before multiplying: both are bounded by
	// the populated extent, but their product can still overflow.
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
