package stcps

import (
	"fmt"

	"github.com/stcps/stcps/internal/sub"
)

// ErrNoCatchUp is returned when a catch-up subscription is requested on
// an engine without a store.
var ErrNoCatchUp = fmt.Errorf("stcps: catch-up replay needs a store (set WithStore): %w", ErrNoStore)

// Subscription is a standing subscription's receive handle: Next/Poll
// deliveries, Close to unsubscribe. The consumer side is single-
// goroutine; see internal/sub for the full contract.
type Subscription = sub.Subscription

// SubDelivery is one pushed instance plus the store cursor to resume
// from after a disconnect.
type SubDelivery = sub.Delivery

// SubscriptionStats aggregates the subscription subsystem's counters.
type SubscriptionStats = sub.Stats

// SubscriberStats reports one subscription's state and counters.
type SubscriberStats = sub.SubStats

// SubscriptionsConfig tunes the subscription subsystem. The zero value
// selects the defaults.
type SubscriptionsConfig struct {
	// Buffer is the default per-subscriber ring capacity (default 256).
	// Individual subscriptions can override it via
	// SubscriptionSpec.Buffer.
	Buffer int
	// GridCell is the coarse cell size of the subscription index
	// (default 64).
	GridCell float64
	// ReplayPage is the catch-up replay page size (default 512).
	ReplayPage int
}

// SubscriptionSpec declares a standing subscription. The Event, Region
// and HasTime/From/To predicates carry exactly the semantics of
// QuerySpec's Event, Region and Window, so a subscriber's stream agrees
// with a QueryST over the same predicates; Where adds a compiled
// condition over each matched instance, bound under the role "e" (e.g.
// "e.temp > 30").
type SubscriptionSpec struct {
	// Event filters to one event id; empty matches every event.
	Event string
	// Region, when non-nil, keeps instances whose estimated occurrence
	// location is Joint with it.
	Region *Location
	// HasTime gates the temporal predicate: the estimated occurrence
	// must intersect [From, To].
	HasTime bool
	// From and To bound the occurrence window (inclusive) when HasTime.
	From, To Tick
	// Where is an optional condition over the matched instance ("" =
	// none), e.g. `e.temp > 30 and e.time after @100`.
	Where string
	// Buffer overrides the engine's default ring capacity when > 0.
	Buffer int
	// Replay requests gapless catch-up: the subscription first replays
	// every matching instance already in the store — from the beginning,
	// or after Cursor when set — then splices onto the live feed with
	// content-keyed dedup at the seam. Requires WithStore.
	Replay bool
	// Cursor resumes a replay after a previous delivery's cursor (the
	// value SubDelivery.Cursor, in its decimal string form). Implies
	// Replay. A cursor below the retained history fails with
	// db.ErrStaleCursor: the gap is not silently skipped — resubscribe
	// without a cursor to resync.
	Cursor string
}

// Subscribe registers a standing subscription and returns its receive
// handle. Matching runs on the emission path (under Workers > 1, on the
// worker goroutines), with cost indexed by event type and region so it
// tracks matching — not registered — subscriptions. Safe to call while
// the engine ingests.
func (e *Engine) Subscribe(spec SubscriptionSpec) (*Subscription, error) {
	s := sub.Spec{
		Event:   spec.Event,
		Region:  spec.Region,
		HasTime: spec.HasTime,
		From:    spec.From,
		To:      spec.To,
		Where:   spec.Where,
		Buffer:  spec.Buffer,
	}
	if spec.Replay || spec.Cursor != "" {
		if e.store == nil {
			return nil, ErrNoCatchUp
		}
		return e.subs.SubscribeFrom(s, spec.Cursor, e.store)
	}
	return e.subs.Subscribe(s)
}

// Unsubscribe closes and removes a subscription by id, reporting
// whether it existed. Equivalent to the handle's Close.
func (e *Engine) Unsubscribe(id uint64) bool { return e.subs.Unsubscribe(id) }

// SubscriptionStats aggregates the subscription subsystem's counters
// (published, matched, delivered, dropped, replayed). Safe to call
// while the engine ingests.
func (e *Engine) SubscriptionStats() SubscriptionStats { return e.subs.Stats() }

// SubscriberStats lists each live subscription's state and counters,
// ordered by id.
func (e *Engine) SubscriberStats() []SubscriberStats { return e.subs.SubscriptionStats() }
