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
// bucketed by event type and, within a bucket, region-scoped ones are
// held in a spatial.Grid keyed by subscription id. An emitted instance
// probes exactly one event bucket (plus the any-event bucket) with its
// occurrence location; the grid returns the subscriptions whose region
// is Joint with it, and compiled predicates are evaluated only on those
// hits.
//
// Each subscriber owns a bounded ring buffer with drop-oldest
// backpressure and per-subscriber delivery/drop counters. Every
// delivery carries the store cursor (global db sequence number) of the
// instance, so a reconnecting subscriber can resume gaplessly: a
// catch-up subscription (SubscribeFrom) replays the missed instances
// from the store by cursor, then atomically splices onto the live feed.
// The cursor is also the seam's identity: a live delivery below the
// highest cursor the catch-up covered is a duplicate and is dropped.
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

func (c *Config) normalize() {
	if !(c.Cell > 0) { // NaN too: spatial.NewGrid needs a positive cell
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
	// Replay requests gapless catch-up: the subscription first replays
	// every matching instance already in the store — from the oldest
	// retained one, or after Cursor when set — then splices onto the
	// live feed, dropping at the seam every live delivery whose cursor
	// the replay already covered. Needs a store (SubscribeFrom).
	Replay bool
	// Cursor resumes a replay after a previous delivery's cursor (the
	// value Delivery.Cursor, in its decimal string form: CursorString).
	// Implies Replay. A cursor below the retained history fails with
	// db.ErrStaleCursor: the gap is not silently skipped — resubscribe
	// without a cursor to resync.
	Cursor string
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

// bucket indexes one event id's subscriptions: region-scoped ones in a
// grid keyed by subscription id, the rest on a plain list.
type bucket struct {
	grid       *spatial.Grid
	unregioned []*Subscription
}

// Matcher is the subscription index. Publish may be called concurrently
// (a sharded engine publishes from its worker goroutines);
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

	// regionOf is the bucket grids' resolver, m.regionAt, bound once so
	// a probe allocates nothing.
	regionOf func(id uint64) spatial.Location
}

// NewMatcher creates an empty subscription matcher.
func NewMatcher(cfg Config) *Matcher {
	cfg.normalize()
	m := &Matcher{
		cfg:     cfg,
		subs:    make(map[uint64]*Subscription),
		byEvent: make(map[string]*bucket),
	}
	m.regionOf = m.regionAt
	return m
}

// regionAt resolves a grid key, a subscription id, to the subscription's
// region.
//
//stcps:holds mu
func (m *Matcher) regionAt(id uint64) spatial.Location { return *m.subs[id].spec.Region }

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
// the next matching emission. A spec asking for catch-up (Replay or
// Cursor) fails with ErrNoStore; use SubscribeFrom to replay history.
func (m *Matcher) Subscribe(spec Spec) (*Subscription, error) {
	if spec.Replay || spec.Cursor != "" {
		return nil, ErrNoStore
	}
	cond, err := compileWhere(spec.Where)
	if err != nil {
		return nil, err
	}
	s := m.newSub(spec, cond, false, 0)
	m.register(s)
	return s, nil
}

// newSub builds an unregistered subscription; seam is the catch-up
// watermark it starts from.
func (m *Matcher) newSub(spec Spec, cond *condition.Compiled, catchup bool, seam uint64) *Subscription {
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
		seam:    seam,
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
		grid, err := spatial.NewGrid(m.cfg.Cell)
		if err != nil {
			panic(err) // normalize keeps Cell positive
		}
		b = &bucket{grid: grid}
		m.byEvent[s.spec.Event] = b
	}
	if s.spec.Region == nil {
		b.unregioned = append(b.unregioned, s)
	} else {
		b.grid.Insert(s.id, *s.spec.Region)
	}
	m.count.Add(1)
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
		if s.spec.Region == nil {
			b.unregioned = removeSub(b.unregioned, s)
		} else {
			b.grid.Remove(s.id, *s.spec.Region)
		}
		if len(b.unregioned) == 0 && b.grid.Len() == 0 {
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
// nothing unless it hits more than 16 region-scoped subscriptions.
//
//stcps:hotpath
func (m *Matcher) Publish(in *event.Instance, cursor uint64, hasCursor bool) {
	if m.count.Load() == 0 {
		return
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.published.Add(1)
	m.matchBucket(m.byEvent[in.Event], in, cursor, hasCursor)
	if in.Event != "" {
		m.matchBucket(m.byEvent[""], in, cursor, hasCursor)
	}
}

// matchBucket probes one event bucket: the unregioned list, then the
// grid, which returns each subscription whose region is Joint with the
// instance's occurrence location exactly once. A probe that hits more
// subscriptions than the stack buffer holds is the only one that
// allocates.
//
//stcps:holds mu
func (m *Matcher) matchBucket(b *bucket, in *event.Instance, cursor uint64, hasCursor bool) {
	if b == nil {
		return
	}
	for _, s := range b.unregioned {
		s.offer(in, cursor, hasCursor)
	}
	if b.grid.Len() == 0 {
		return
	}
	var buf [16]uint64
	for _, id := range b.grid.QueryRegion(buf[:0], in.Loc, m.regionOf) {
		m.subs[id].offer(in, cursor, hasCursor)
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
