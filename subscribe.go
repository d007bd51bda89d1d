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
}

// SubscriptionSpec declares a standing subscription. The Event, Region
// and HasTime/From/To predicates carry exactly the semantics of
// QuerySpec's Event, Region and Window, so a subscriber's stream agrees
// with a QueryST over the same predicates; Where adds a compiled
// condition over each matched instance, bound under the role "e" (e.g.
// "e.temp > 30"). Replay and Cursor request gapless catch-up from the
// store, which needs WithStore.
type SubscriptionSpec = sub.Spec

// Subscribe registers a standing subscription and returns its receive
// handle. Matching runs on the emission path (under Workers > 1, on the
// worker goroutines), with cost indexed by event type and region so it
// tracks matching — not registered — subscriptions. A catch-up request
// (Replay or Cursor) on an engine without a store fails with
// ErrNoCatchUp. Safe to call while the engine ingests.
func (e *Engine) Subscribe(spec SubscriptionSpec) (*Subscription, error) {
	if !spec.Replay && spec.Cursor == "" {
		return e.subs.Subscribe(spec)
	}
	if e.store == nil {
		return nil, ErrNoCatchUp
	}
	return e.subs.SubscribeFrom(spec, e.store)
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
