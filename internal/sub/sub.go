// Package sub implements standing subscriptions over the stream of
// emitted event instances — the push half of the paper's architecture.
// The CPS hierarchy is push-driven (motes and sinks forward composite
// event instances upward the moment they are detected); this package
// extends the push to external consumers: a subscription names an event
// type, a spatial region, a time window and an optional compiled
// condition, and every emitted instance matching it is delivered to the
// subscriber's bounded buffer the moment it is emitted.
//
// Matching is indexed so its cost tracks the number of *matching*
// subscriptions, not the number of *registered* ones: subscriptions are
// bucketed by event type and, within a bucket, by the coarse grid cells
// their region overlaps (the same uniform-cell scheme as spatial.Grid,
// reimplemented here so the probe path stays allocation-free). An
// emitted instance probes exactly one event bucket (plus the any-event
// bucket) and the cells its occurrence location overlaps; compiled
// predicates are evaluated only on those index hits.
//
// Each subscriber owns a bounded ring buffer with drop-oldest
// backpressure and per-subscriber delivery/drop counters. Every
// delivery carries the store cursor (global db sequence number) of the
// instance, so a reconnecting subscriber can resume gaplessly: a new
// subscription created with SubscribeFrom replays the missed instances
// from the store by cursor, then atomically splices onto the live feed,
// deduplicating the seam by instance content key — the same identity
// key the WAL recovery path uses (event.Instance.ContentKey).
package sub

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Subscription errors.
var (
	// ErrClosed is returned when receiving from (or subscribing on) a
	// closed subscription or matcher.
	ErrClosed = errors.New("sub: subscription closed")
	// ErrNoStore is returned when a catch-up subscription is requested
	// without a store to replay from.
	ErrNoStore = errors.New("sub: catch-up replay needs a store")
)

// Defaults for the zero Config.
const (
	// DefaultCell is the coarse index cell size. It is deliberately
	// larger than the store's spatial-index cell (subscription regions
	// are typically much larger than instance footprints).
	DefaultCell = 64.0
	// DefaultBuffer is the per-subscriber ring capacity.
	DefaultBuffer = 256
	// DefaultReplayPage is the catch-up replay page size.
	DefaultReplayPage = 512
	// CondRole is the role name a subscription condition binds the
	// matched instance to: "e.temp > 30 and e.time after @100".
	CondRole = "e"
)

// Config parameterizes a Matcher. Zero fields select the defaults.
type Config struct {
	// Cell is the coarse grid cell size of the subscription index.
	Cell float64
	// Buffer is the default per-subscriber ring capacity.
	Buffer int
	// ReplayPage is the catch-up replay page size.
	ReplayPage int
}

const (
	// regionCellLimit caps the cells a single subscription region may
	// occupy in the index; larger regions fall back to the bucket's
	// unregioned list (still verified exactly at match time).
	regionCellLimit = 4096
	// seamKeyLimit bounds the content keys retained for seam
	// deduplication after a catch-up replay.
	seamKeyLimit = 1 << 20
)

func (c *Config) normalize() {
	if c.Cell <= 0 {
		c.Cell = DefaultCell
	}
	if c.Buffer <= 0 {
		c.Buffer = DefaultBuffer
	}
	if c.ReplayPage <= 0 {
		c.ReplayPage = DefaultReplayPage
	}
}

// Spec declares what a subscription matches. Semantics mirror db.QuerySpec
// exactly — event id equality (empty matches every event), occurrence
// location Joint with Region (nil matches everywhere), occurrence time
// intersecting [From, To] — so a subscriber's stream agrees with a
// QueryST over the same predicates. Where adds a compiled condition
// over the matched instance, which QueryST has no equivalent for.
type Spec struct {
	// Event filters to one event id; empty matches every event.
	Event string
	// Region, when non-nil, keeps instances whose estimated occurrence
	// location is Joint with it.
	Region *spatial.Location
	// HasTime gates the temporal predicate: the estimated occurrence
	// must intersect [From, To].
	HasTime bool
	// From and To bound the occurrence window (inclusive) when HasTime.
	From, To timemodel.Tick
	// Where is an optional condition over the matched instance, bound
	// under the role CondRole ("e"), e.g. "e.temp > 30". Instances for
	// which it errors (missing attribute) are treated as non-matching
	// and counted in CondErrors.
	Where string
	// Buffer overrides the matcher's default ring capacity when > 0.
	Buffer int
}

// Delivery is one instance handed to a subscriber.
type Delivery struct {
	// Inst is the delivered instance.
	Inst event.Instance
	// Cursor is the store sequence number of the instance — pass it to
	// SubscribeFrom after a disconnect to resume without gaps. Only
	// meaningful when HasCursor.
	Cursor uint64
	// HasCursor reports whether the instance is addressable in a store
	// (false on store-less engines, where catch-up is unavailable).
	HasCursor bool
	// Replayed marks deliveries produced by the catch-up replay rather
	// than the live push.
	Replayed bool
}

// Stats aggregates the matcher's counters.
type Stats struct {
	// Subscriptions is the live subscription count.
	Subscriptions int `json:"subscriptions"`
	// Published counts instances offered to the matcher.
	Published uint64 `json:"published"`
	// Matched counts (instance, subscription) matches.
	Matched uint64 `json:"matched"`
	// Delivered sums the per-subscriber delivery counters (live pushes
	// into rings plus catch-up replays), including closed subscribers.
	Delivered uint64 `json:"delivered"`
	// Dropped sums the per-subscriber drop-oldest evictions.
	Dropped uint64 `json:"dropped"`
	// Replayed sums the catch-up replay deliveries.
	Replayed uint64 `json:"replayed"`
	// CondErrors counts condition evaluations that errored.
	CondErrors uint64 `json:"condErrors"`
	// SeamDropped counts live deliveries discarded as duplicates of
	// catch-up replays at the splice seam.
	SeamDropped uint64 `json:"seamDropped"`
}

// SubStats reports one subscription's state and counters.
type SubStats struct {
	// ID is the subscription identifier.
	ID uint64 `json:"id"`
	// Event is the subscribed event id ("" = all).
	Event string `json:"event,omitempty"`
	// HasRegion reports whether the subscription is region-scoped.
	HasRegion bool `json:"hasRegion"`
	// Where is the condition text, if any.
	Where string `json:"where,omitempty"`
	// Buffered is the current ring occupancy.
	Buffered int `json:"buffered"`
	// Capacity is the ring capacity.
	Capacity int `json:"capacity"`
	// CatchingUp reports whether the catch-up replay is still running.
	CatchingUp bool `json:"catchingUp"`
	// Delivered counts deliveries handed to this subscriber.
	Delivered uint64 `json:"delivered"`
	// Dropped counts ring evictions (drop-oldest backpressure).
	Dropped uint64 `json:"dropped"`
	// Replayed counts catch-up replay deliveries.
	Replayed uint64 `json:"replayed"`
	// CondErrors counts condition evaluations that errored.
	CondErrors uint64 `json:"condErrors"`
	// SeamDropped counts seam-dedup discards.
	SeamDropped uint64 `json:"seamDropped"`
}

// cellKey addresses one coarse index cell.
type cellKey struct{ cx, cy int }

// bucket indexes one event id's subscriptions: by the cells their
// regions overlap, plus the unregioned (or too-large-region) list.
type bucket struct {
	cells      map[cellKey][]*Subscription
	unregioned []*Subscription
}

// Matcher is the subscription index. Publish may be called concurrently
// (the emission hooks of a sharded engine run on worker goroutines);
// Subscribe/Unsubscribe may be called at any time.
type Matcher struct {
	cfg Config

	mu      sync.RWMutex
	nextID  uint64                   //stcps:guardedby mu
	subs    map[uint64]*Subscription //stcps:guardedby mu
	byEvent map[string]*bucket       //stcps:guardedby mu

	// count mirrors len(subs) so Publish can skip the read lock when no
	// one is subscribed — emission hot paths pay one atomic load.
	count atomic.Int64

	published atomic.Uint64
	matched   atomic.Uint64
	condErrs  atomic.Uint64

	// retired accumulates the delivery counters of closed subscriptions
	// so Stats stays monotonic across unsubscribes.
	retired Stats //stcps:guardedby mu
}

// NewMatcher creates an empty subscription matcher.
func NewMatcher(cfg Config) *Matcher {
	cfg.normalize()
	return &Matcher{
		cfg:     cfg,
		subs:    make(map[uint64]*Subscription),
		byEvent: make(map[string]*bucket),
	}
}

// compileWhere compiles a Spec's condition against the single CondRole
// slot. Empty text compiles to nil.
func compileWhere(text string) (*condition.Compiled, error) {
	if text == "" {
		return nil, nil
	}
	expr, err := condition.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("sub: condition: %w", err)
	}
	c, err := condition.Compile(expr, condition.NewSlotMap([]string{CondRole}))
	if err != nil {
		return nil, fmt.Errorf("sub: condition (the instance is bound as %q): %w", CondRole, err)
	}
	return c, nil
}

// Subscribe registers a live-push subscription: deliveries start with
// the next matching emission. Use SubscribeFrom to also replay history.
func (m *Matcher) Subscribe(spec Spec) (*Subscription, error) {
	cond, err := compileWhere(spec.Where)
	if err != nil {
		return nil, err
	}
	s := m.newSub(spec, cond, false)
	m.register(s)
	return s, nil
}

// newSub builds an unregistered subscription.
func (m *Matcher) newSub(spec Spec, cond *condition.Compiled, catchup bool) *Subscription {
	capacity := spec.Buffer
	if capacity <= 0 {
		capacity = m.cfg.Buffer
	}
	return &Subscription{
		m:       m,
		spec:    spec,
		cond:    cond,
		binding: make([]event.Entity, 1),
		cap:     capacity,
		catchup: catchup,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// register inserts a subscription into the index.
func (m *Matcher) register(s *Subscription) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	s.id = m.nextID
	m.subs[s.id] = s
	b := m.byEvent[s.spec.Event]
	if b == nil {
		b = &bucket{cells: make(map[cellKey][]*Subscription)}
		m.byEvent[s.spec.Event] = b
	}
	s.cellRefs = m.regionCells(s.spec.Region)
	if s.cellRefs == nil {
		b.unregioned = append(b.unregioned, s)
	} else {
		for _, k := range s.cellRefs {
			b.cells[k] = append(b.cells[k], s)
		}
	}
	m.count.Add(1)
}

// regionCells returns the index cells a subscription region occupies,
// or nil when the subscription belongs on the unregioned list (no
// region, or a region spanning more than regionCellLimit cells).
func (m *Matcher) regionCells(region *spatial.Location) []cellKey {
	if region == nil {
		return nil
	}
	x0, y0, x1, y1 := m.cellRange(*region)
	w, h := x1-x0+1, y1-y0+1
	if w > regionCellLimit || h > regionCellLimit || w*h > regionCellLimit {
		return nil
	}
	keys := make([]cellKey, 0, w*h)
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			keys = append(keys, cellKey{cx: cx, cy: cy})
		}
	}
	return keys
}

// cellRange converts a location's bounding box to inclusive cell
// coordinates. spatial.ClampCell clamps them, so a region or instance at
// ±1e21 indexes at an edge cell instead of a wrapped one; clamping only
// widens the candidate rectangle, and offer verifies every candidate
// with OpJoint.
func (m *Matcher) cellRange(loc spatial.Location) (x0, y0, x1, y1 int) {
	minX, minY, maxX, maxY := loc.Bounds()
	return spatial.ClampCell(minX / m.cfg.Cell), spatial.ClampCell(minY / m.cfg.Cell),
		spatial.ClampCell(maxX / m.cfg.Cell), spatial.ClampCell(maxY / m.cfg.Cell)
}

// Unsubscribe closes and removes a subscription by id, reporting
// whether it existed. Closing wakes a blocked receiver with ErrClosed
// once the ring drains.
func (m *Matcher) Unsubscribe(id uint64) bool {
	m.mu.Lock()
	s, ok := m.subs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	m.removeLocked(s)
	m.mu.Unlock()
	s.markClosed()
	return true
}

// removeLocked detaches a subscription from the index and folds its
// counters into the retired totals. Callers hold m.mu.
//
//stcps:holds mu
func (m *Matcher) removeLocked(s *Subscription) {
	delete(m.subs, s.id)
	m.count.Add(-1)
	b := m.byEvent[s.spec.Event]
	if b != nil {
		if s.cellRefs == nil {
			b.unregioned = removeSub(b.unregioned, s)
		} else {
			for _, k := range s.cellRefs {
				lst := removeSub(b.cells[k], s)
				if len(lst) == 0 {
					delete(b.cells, k)
				} else {
					b.cells[k] = lst
				}
			}
		}
		if len(b.unregioned) == 0 && len(b.cells) == 0 {
			delete(m.byEvent, s.spec.Event)
		}
	}
	st := s.statsSnapshot()
	m.retired.Delivered += st.Delivered
	m.retired.Dropped += st.Dropped
	m.retired.Replayed += st.Replayed
	m.retired.SeamDropped += st.SeamDropped
}

func removeSub(lst []*Subscription, s *Subscription) []*Subscription {
	for i, v := range lst {
		if v == s {
			lst[i] = lst[len(lst)-1]
			lst[len(lst)-1] = nil
			return lst[:len(lst)-1]
		}
	}
	return lst
}

// Publish offers one emitted instance to every matching subscription.
// cursor is the instance's store sequence number (hasCursor false on
// store-less engines). Publish is the emission-path hot spot: with no
// subscriptions it is one atomic load, and the index probe allocates
// nothing for single-cell (point-located) instances.
//
//stcps:hotpath
func (m *Matcher) Publish(in *event.Instance, cursor uint64, hasCursor bool) {
	if m.count.Load() == 0 {
		return
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.published.Add(1)
	d := Delivery{Inst: *in, Cursor: cursor, HasCursor: hasCursor}
	m.matchBucket(m.byEvent[in.Event], in, &d)
	if in.Event != "" {
		m.matchBucket(m.byEvent[""], in, &d)
	}
}

// matchBucket probes one event bucket: the unregioned list, then the
// cells overlapped by the instance's occurrence location. A sub indexed
// under several of those cells must be offered once — the multi-cell
// path deduplicates; the single-cell fast path (point instances) needs
// no dedup and no allocation.
func (m *Matcher) matchBucket(b *bucket, in *event.Instance, d *Delivery) {
	if b == nil {
		return
	}
	for _, s := range b.unregioned {
		s.offer(in, d)
	}
	if len(b.cells) == 0 {
		return
	}
	x0, y0, x1, y1 := m.cellRange(in.Loc)
	if x0 == x1 && y0 == y1 {
		for _, s := range b.cells[cellKey{cx: x0, cy: y0}] {
			s.offer(in, d)
		}
		return
	}
	seen := make(map[*Subscription]struct{}, 8) //stcps:ignore hotpath multi-cell dedup; point instances take the alloc-free fast path
	// A field instance can span more cells than the bucket populates
	// (pathologically: a near-infinite bbox, clamped above). Walk the
	// populated cells instead of enumerating the rectangle whenever
	// that is cheaper — probe cost is then bounded by the index size,
	// never by the instance's extent. Width and height are compared
	// before multiplying, like spatial.Grid, so the product cannot
	// mislead after an extreme clamp.
	w, h := x1-x0+1, y1-y0+1
	if w > len(b.cells) || h > len(b.cells) || w*h > len(b.cells) {
		for k, lst := range b.cells {
			if k.cx < x0 || k.cx > x1 || k.cy < y0 || k.cy > y1 {
				continue
			}
			for _, s := range lst {
				if _, dup := seen[s]; dup {
					continue
				}
				seen[s] = struct{}{}
				s.offer(in, d)
			}
		}
		return
	}
	for cx := x0; cx <= x1; cx++ {
		for cy := y0; cy <= y1; cy++ {
			for _, s := range b.cells[cellKey{cx: cx, cy: cy}] {
				if _, dup := seen[s]; dup {
					continue
				}
				seen[s] = struct{}{}
				s.offer(in, d)
			}
		}
	}
}

// Get resolves a live subscription by id.
func (m *Matcher) Get(id uint64) (*Subscription, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.subs[id]
	return s, ok
}

// Stats aggregates the matcher's counters, including those of already
// closed subscriptions.
func (m *Matcher) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := m.retired
	out.Subscriptions = len(m.subs)
	out.Published = m.published.Load()
	out.Matched = m.matched.Load()
	out.CondErrors = m.condErrs.Load()
	for _, s := range m.subs {
		st := s.statsSnapshot()
		out.Delivered += st.Delivered
		out.Dropped += st.Dropped
		out.Replayed += st.Replayed
		out.SeamDropped += st.SeamDropped
	}
	return out
}

// SubscriptionStats lists the live subscriptions' states, ordered by id.
func (m *Matcher) SubscriptionStats() []SubStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]SubStats, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, s.statsSnapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the live subscription count.
func (m *Matcher) Len() int { return int(m.count.Load()) }
