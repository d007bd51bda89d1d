package db

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/segment"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// ErrBadCursor is returned when a query carries an unparseable cursor.
var ErrBadCursor = errors.New("db: bad query cursor")

// ErrStaleCursor is returned by a Strict query whose cursor precedes the
// retained history: instances between the cursor and the oldest
// retained sequence number are gone, so resuming would silently skip
// them. With a cold tier attached this means "deleted by segment GC" —
// falling behind the RAM window alone no longer staleness a cursor,
// since the spilled history still resolves through the segments.
// Non-strict queries keep the historical behavior (dropped instances
// simply stop appearing). Callers that need gapless resumption — the
// subscription catch-up path — treat this as "resync from scratch".
var ErrStaleCursor = errors.New("db: cursor precedes retained history (evicted instances would be skipped)")

// TimeWindow is an inclusive occurrence-time window: an instance
// matches when its estimated occurrence intersects [From, To].
type TimeWindow struct {
	From timemodel.Tick `json:"from"`
	To   timemodel.Tick `json:"to"`
}

// Tier selects which storage tiers a query reads.
type Tier uint8

const (
	// TierAll merges the cold segment history with the hot in-memory
	// window under one cursor space — the default.
	TierAll Tier = iota
	// TierHot reads only the in-memory window: history below the hot
	// base does not appear.
	TierHot
	// TierCold reads only history already evicted from the hot window.
	TierCold
)

// String names the tier as the HTTP API spells it.
func (t Tier) String() string {
	switch t {
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	default:
		return "all"
	}
}

// ParseTier parses the HTTP spelling of a tier ("all", "hot", "cold";
// empty selects TierAll).
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "all":
		return TierAll, nil
	case "hot":
		return TierHot, nil
	case "cold":
		return TierCold, nil
	}
	return TierAll, fmt.Errorf("db: unknown tier %q", s)
}

// QuerySpec describes one combined spatio-temporal retrieval: any
// subset of {event id, occurrence region, occurrence window},
// paginated over the unified hot+cold cursor space. The zero QuerySpec
// matches every retained instance.
type QuerySpec struct {
	// Event filters to one event id; empty matches every event.
	Event string
	// Region, when non-nil, keeps instances whose estimated occurrence
	// location is Joint with it.
	Region *spatial.Location
	// Window, when non-nil, keeps instances whose estimated occurrence
	// intersects it.
	Window *TimeWindow
	// Limit caps the page size (0 = unlimited).
	Limit int
	// Cursor resumes after a previous Result's NextCursor. Cursors are
	// global sequence numbers, stable across eviction and spilling: a
	// seq that left the hot window resolves through the cold segments.
	Cursor string
	// Strict makes retention gaps visible: when the Cursor points below
	// the oldest retained history (instances after it are gone), the
	// query fails with ErrStaleCursor instead of silently resuming past
	// the gap. Strict without a Cursor is a no-op.
	Strict bool
	// Tier restricts the query to one storage tier; zero is TierAll.
	Tier Tier
}

// ColdScan reports the cold-tier work behind one Result.
type ColdScan struct {
	// Segments is the number of segments pinned by the scan.
	Segments int
	// BlocksRead / BlocksPruned count block frames read vs. skipped via
	// the footer index.
	BlocksRead   int
	BlocksPruned int
	// Records is the number of cold records examined; only the matches
	// among them are decoded.
	Records int
}

// Result is one page of QueryST output, in arrival order.
type Result struct {
	// Instances is the page of matching instances.
	Instances []event.Instance
	// Seqs holds the global sequence number of each instance, parallel
	// to Instances — the per-instance cursors the subscription catch-up
	// replay stamps on deliveries.
	Seqs []uint64
	// NextCursor is non-empty when more results remain; pass it back in
	// QuerySpec.Cursor for the next page.
	NextCursor string
	// Index names the access path the planner chose for the hot
	// portion: "time" (per-event time index), "region" (spatial grid),
	// or "log" (sequential scan, when no indexed predicate applies or
	// the region is no more selective than the hot window itself).
	Index string
	// Scanned counts the candidate instances examined before predicate
	// verification — the planner's actual work, for observability.
	Scanned int
	// Cold reports the cold-tier portion of the page's work; the zero
	// value means no segments were consulted.
	Cold ColdScan
	// Frontier is the published sequence frontier the query observed:
	// every matching instance with seq < Frontier is reflected in the
	// page stream and nothing at or above it is. For results served
	// concurrently with ingest this is the bounded-staleness witness —
	// the page equals a quiesced query over the first Frontier
	// sequence numbers.
	Frontier uint64
}

// page accumulates one result page across tiers in ascending sequence
// order. need is Limit+1 (one extra match proves more remain), or 0
// for unlimited.
type page struct {
	seqs []uint64
	ins  []event.Instance
	need int
}

func (p *page) full() bool { return p.need > 0 && len(p.seqs) >= p.need }

func (p *page) add(seq uint64, in *event.Instance) {
	p.seqs = append(p.seqs, seq)
	p.ins = append(p.ins, *in)
}

// QueryST retrieves instances matching every predicate of spec, in
// arrival order. With both a region and a time window it picks the
// cheaper index for the hot portion from cardinality estimates
// (per-event time index vs. spatial grid) and verifies candidates with
// the other predicate, so cost tracks the more selective dimension
// rather than the store size.
//
// With a cold tier attached (and Tier != TierHot), the page merges
// three ascending sequence ranges under one cursor space: segment
// history below the spill boundary (read via the per-block footer
// indexes, skipping blocks that cannot match), the evicted-but-
// unspilled chunk range, and the live hot window. The cold and
// sequential portions run entirely without the store lock; a hot index
// probe (when an indexed predicate applies) is a short critical
// section that copies candidate sequence numbers out.
func (s *Store) QueryST(q QuerySpec) (Result, error) {
	var after uint64
	hasAfter := false
	if q.Cursor != "" {
		v, err := strconv.ParseUint(q.Cursor, 10, 64)
		if err != nil {
			return Result{}, fmt.Errorf("%q: %w", q.Cursor, ErrBadCursor)
		}
		after, hasAfter = v, true
	}

	// The page works from an immutable published view and is bounded by
	// that view's frontier.
	s.reads.Add(1)
	v := s.loadView()
	res := Result{Frontier: v.frontier}
	p := &page{}
	if q.Limit > 0 {
		p.need = q.Limit + 1
	}

	// minSeq excludes everything at or before the cursor, so later
	// pages never accumulate (or sort) instances already returned.
	var minSeq uint64
	if hasAfter {
		minSeq = after + 1
	}

	// The resident chunks serve [floor, upper): from the spill boundary
	// when the page merges the cold tier (the segments end where the
	// chunks begin), from the eviction base otherwise; up to the
	// frontier, or only the evicted part for TierCold.
	merged := v.cold != nil && q.Tier != TierHot
	floor, upper := v.base, v.frontier
	if merged {
		floor = v.spilled
	}
	if q.Tier == TierCold {
		upper = v.base
	}

	switch {
	case q.Window != nil && q.Window.To < q.Window.From,
		hasAfter && minSeq == 0,
		q.Tier == TierCold && !merged:
		// An inverted window, a cursor at the end of the sequence space
		// and the cold tier of a RAM-only store match nothing: no tier
		// is consulted and the resident range is empty.
		upper = floor
	default:
		// oldest is the oldest seq any consulted tier retains. The cold
		// scan pins its segments up front, so its coverage base is a
		// race-free witness — concurrent GC cannot open a gap under a
		// scan already running.
		oldest := floor
		if merged && minSeq < v.spilled {
			f := segment.Filter{MinSeq: minSeq, MaxSeq: v.spilled, Event: q.Event, Region: q.Region}
			if q.Window != nil {
				f.HasTime, f.From, f.To = true, q.Window.From, q.Window.To
			}
			info, err := v.cold.Scan(f, event.NewInterner(), func(seq uint64, in *event.Instance) bool {
				p.add(seq, in)
				return !p.full()
			})
			if err != nil {
				return Result{}, fmt.Errorf("db: cold query: %w", err)
			}
			res.Cold = ColdScan{
				Segments:     info.Segments,
				BlocksRead:   info.BlocksRead,
				BlocksPruned: info.BlocksPruned,
				Records:      info.Records,
			}
			s.coldReads.Add(1)
			if info.End > info.Base {
				oldest = info.Base
			}
		}
		if q.Strict && hasAfter && minSeq < oldest {
			return Result{}, fmt.Errorf("cursor %d, oldest retained seq %d: %w", after, oldest, ErrStaleCursor)
		}
	}

	s.queryResident(q, v, max(minSeq, floor), upper, p, &res)

	if p.need > 0 && len(p.seqs) > q.Limit {
		p.seqs = p.seqs[:q.Limit]
		p.ins = p.ins[:q.Limit]
		res.NextCursor = strconv.FormatUint(p.seqs[len(p.seqs)-1], 10)
	}
	if p.ins == nil {
		p.ins = []event.Instance{}
	}
	res.Instances = p.ins
	res.Seqs = p.seqs
	s.materialized.Add(uint64(len(p.seqs)))
	return res, nil
}

// queryResident is the resident-range planner: it appends to p, in
// sequence order, every match in [lo, upper) — the part of the page the
// view's chunks hold — and names the access path in res.Index. b is the
// eviction base observed at probe time, clamped to upper, so the tier
// ranges of one page concatenate with no gap and no overlap:
//
//	segments [.., lo) | chunks [lo, b) | live [b, upper)
//
// Instances below b have left the indexes (or sit in them as stale
// entries) but stay resident in the view's immutable chunks, so that
// range is walked directly; [b, upper) is served by whichever of the
// spatial grid, the per-event time index and the same sequential walk
// the cardinality estimates make cheapest. Only an index probe needs
// the store lock — a short critical section that copies the candidate
// sequence numbers out; verification and materialization need only the
// view.
func (s *Store) queryResident(q QuerySpec, v *view, lo, upper uint64, p *page, res *Result) {
	res.Index = "log"
	if q.Event != "" {
		res.Index = "time"
	}
	// Without an indexed predicate, or with no live range left to
	// serve, the walk below covers everything and no lock is taken.
	b := upper
	var cands []uint64
	verify := q // the predicates the chosen index leaves unchecked
	if (q.Event != "" || q.Region != nil) && upper > v.base && lo < upper && !p.full() {
		s.mu.RLock()
		s.readLocks.Add(1)
		switch {
		case q.Region != nil && s.regionEstimateLocked(q) < s.timeEstimateLocked(q):
			res.Index = "region"
			b = min(s.base, upper)
			cands = s.collectRegionLocked(q, lo, &res.Scanned)
			verify.Region = nil // the grid checked the Joint relation
		case q.Event != "":
			b = min(s.base, upper)
			cands = s.collectTimeLocked(q, lo, b, &res.Scanned)
		}
		// Otherwise: a region no more selective than the live window
		// itself, which the sequential walk serves without sorting.
		s.mu.RUnlock()
	}

	for seq := lo; seq < b && !p.full(); seq++ {
		res.Scanned++
		if in := v.at(seq); q.matches(in) {
			p.add(seq, in)
		}
	}

	// Live candidates come back in arrival order off a min-heap built in
	// place, and are verified off-lock as they are popped, so the page
	// touches only the candidates it might take. They are bounded by
	// upper: the probe ran after the view load and may have seen newer
	// instances.
	for i := len(cands)/2 - 1; i >= 0; i-- {
		siftDown(cands, i)
	}
	for n := len(cands) - 1; n >= 0 && !p.full(); n-- {
		seq := cands[0]
		cands[0] = cands[n]
		siftDown(cands[:n], 0)
		if seq >= upper {
			break
		}
		if in := v.at(seq); seq >= b && verify.matches(in) {
			p.add(seq, in)
		}
	}
}

// siftDown moves h[i] down the binary min-heap h until neither child
// is smaller.
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// matches verifies every non-sequence predicate of the spec.
func (q *QuerySpec) matches(in *event.Instance) bool {
	if q.Event != "" && in.Event != q.Event {
		return false
	}
	if w := q.Window; w != nil && (in.Occ.Start() > w.To || in.Occ.End() < w.From) {
		return false
	}
	if q.Region != nil && !spatial.OpJoint.Apply(in.Loc, *q.Region) {
		return false
	}
	return true
}

// timeEstimateLocked is the candidate count of the time-index path: how
// many instances the per-event index would touch for q.
//
//stcps:holds mu
func (s *Store) timeEstimateLocked(q QuerySpec) int {
	if q.Event == "" {
		return int(s.frontier - s.base)
	}
	if q.Window == nil {
		return len(s.byEvent[q.Event])
	}
	_, lo, hi := s.timeWindowLocked(q.Event, q.Window.From, q.Window.To)
	return hi - lo
}

// regionEstimateLocked is the candidate count of the grid path.
//
//stcps:holds mu
func (s *Store) regionEstimateLocked(q QuerySpec) int {
	return s.grid.EstimateRegion(*q.Region)
}

// collectTimeLocked probes the per-event time index and copies the
// candidate sequence numbers out (the backing arrays mutate in place
// under the writer lock, so candidates must not alias them). Sequence
// numbers below minSeq (already returned on earlier pages) and below
// base (stale entries awaiting compaction) are excluded; predicate
// verification happens off-lock.
//
//stcps:holds mu
func (s *Store) collectTimeLocked(q QuerySpec, minSeq, base uint64, scanned *int) []uint64 {
	lst := s.byEvent[q.Event]
	lo, hi := 0, len(lst)
	if q.Window != nil {
		_, lo, hi = s.timeWindowLocked(q.Event, q.Window.From, q.Window.To)
	}
	if minSeq < base {
		minSeq = base
	}
	out := make([]uint64, 0, hi-lo)
	for _, seq := range lst[lo:hi] {
		*scanned++
		if seq >= minSeq {
			out = append(out, seq)
		}
	}
	return out
}

// collectRegionLocked probes the spatial grid, which is keyed by
// sequence number and returns a fresh ascending list. The grid verified
// the Joint relation and holds live instances only, so no base filter
// is needed; sequence numbers below minSeq (already returned on earlier
// pages) are cut off the front.
//
//stcps:holds mu
func (s *Store) collectRegionLocked(q QuerySpec, minSeq uint64, scanned *int) []uint64 {
	seqs := s.grid.QueryRegion(nil, *q.Region, s.locOf)
	*scanned += len(seqs)
	first, _ := slices.BinarySearch(seqs, minSeq)
	return seqs[first:]
}
