package sub

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
)

// Subscription is one subscriber's standing query plus its bounded
// delivery buffer. The matcher side (offer) is safe for concurrent use;
// the consumer side (Poll, Next, Close) is owned by a single consumer
// goroutine.
//
// Lifecycle: live deliveries accumulate in a drop-oldest ring of the
// configured capacity. A catch-up subscription (SubscribeFrom) first
// serves the store replay — consumer-paced, so arbitrarily long history
// never overflows the ring — while concurrent live matches park in a
// bounded pending buffer; when the replay drains, the pending buffer is
// atomically spliced into the ring, minus the deliveries whose cursor
// the replay already covered, and subsequent matches push straight to
// the ring.
type Subscription struct {
	id   uint64
	m    *Matcher
	spec Spec
	cap  int

	// cond and binding form the compiled predicate's evaluation context
	// (compiled conditions own scratch buffers).
	cond    *condition.Compiled //stcps:guardedby mu
	binding []event.Entity      //stcps:guardedby mu

	mu   sync.Mutex
	ring []Delivery //stcps:guardedby mu
	head int        //stcps:guardedby mu
	n    int        //stcps:guardedby mu
	// pending parks live matches while the catch-up replay runs, bounded
	// by cap with the same drop-oldest policy.
	pending []Delivery //stcps:guardedby mu
	catchup bool       //stcps:guardedby mu
	closed  bool       //stcps:guardedby mu
	// seam is one past the highest store cursor the catch-up covered:
	// the resume cursor, then each replayed delivery. A live match below
	// it is a duplicate (its emission hook ran after the client already
	// had the instance) and is discarded. It is kept until the
	// subscription closes, since an emission hook may be arbitrarily
	// delayed between logging and publishing; live-only subscriptions
	// leave it at 0 and drop nothing.
	seam uint64 //stcps:guardedby mu

	delivered   uint64 //stcps:guardedby mu
	dropped     uint64 //stcps:guardedby mu
	replayed    uint64 //stcps:guardedby mu
	condErrs    uint64 //stcps:guardedby mu
	seamDropped uint64 //stcps:guardedby mu

	// notify wakes a blocked Next; done closes on Close/Unsubscribe.
	notify chan struct{}
	done   chan struct{}

	// rp is the catch-up replay state, owned by the consumer goroutine.
	rp    *replayState
	rpErr error
}

// replayState pages the store during catch-up, consumer-paced.
type replayState struct {
	store  *db.Store
	base   db.QuerySpec // predicates; Cursor/Limit set per page
	cursor string
	page   int
	buf    []Delivery
	i      int
	done   bool
}

// SubscribeFrom registers a catch-up subscription: it first replays
// every instance matching spec from the store, starting after
// spec.Cursor ("" replays from the oldest retained instance), then
// splices onto the live feed with no gaps and no duplicates. Replay is
// implied. An unparseable cursor (db.ErrBadCursor) fails the subscribe,
// and so does one pointing below the retained history (db.ErrStaleCursor
// — the subscriber must resync from scratch), because the first page is
// fetched synchronously; a mid-replay eviction surfaces the same
// ErrStaleCursor from Poll/Next.
func (m *Matcher) SubscribeFrom(spec Spec, store *db.Store) (*Subscription, error) {
	if store == nil {
		return nil, ErrNoStore
	}
	cond, err := compileWhere(spec.Where)
	if err != nil {
		return nil, err
	}
	var seam uint64
	if spec.Cursor != "" {
		after, err := strconv.ParseUint(spec.Cursor, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sub: cursor %q: %w", spec.Cursor, db.ErrBadCursor)
		}
		// The client already holds the instance at its resume cursor.
		seam = after + 1
	}
	s := m.newSub(spec, cond, true, seam)
	// Tier is left at TierAll: with a cold tier attached, catch-up
	// replays straight through the spilled history before splicing onto
	// the live feed — a subscriber that fell behind the RAM window
	// resumes gaplessly from the segments instead of failing stale.
	s.rp = &replayState{
		store: store,
		base: db.QuerySpec{
			Event:  spec.Event,
			Region: spec.Region,
			Strict: true,
		},
		cursor: spec.Cursor,
		page:   m.cfg.ReplayPage,
	}
	if spec.HasTime {
		s.rp.base.Window = &db.TimeWindow{From: spec.From, To: spec.To}
	}
	// Register before the first fetch: everything emitted from here on
	// is captured live (in pending), so the replay pages and the live
	// feed overlap rather than gap.
	m.register(s)
	if err := s.rp.fetch(); err != nil {
		m.mu.Lock()
		m.removeLocked(s)
		m.mu.Unlock()
		s.markClosed()
		return nil, err
	}
	return s, nil
}

// fetch reads the next replay page. done is set when the store had no
// further matches at read time — later emissions are in pending.
func (rp *replayState) fetch() error {
	q := rp.base
	q.Cursor = rp.cursor
	q.Limit = rp.page
	res, err := rp.store.QueryST(q)
	if err != nil {
		return err
	}
	rp.buf = rp.buf[:0]
	for i := range res.Instances {
		rp.buf = append(rp.buf, Delivery{
			Inst:      res.Instances[i],
			Cursor:    res.Seqs[i],
			HasCursor: true,
			Replayed:  true,
		})
	}
	rp.i = 0
	if res.NextCursor != "" {
		rp.cursor = res.NextCursor
	} else {
		rp.done = true
	}
	return nil
}

// offer is the matcher-side delivery path: verify the time predicate
// (the index probe has verified the region), evaluate the compiled
// condition, then hand the delivery to the ring (live) or the pending
// buffer (catch-up). The delivery copies the instance only once it
// matched.
func (s *Subscription) offer(in *event.Instance, cursor uint64, hasCursor bool) {
	if s.spec.HasTime && (in.Occ.Start() > s.spec.To || in.Occ.End() < s.spec.From) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if !s.matchLocked(in) {
		return
	}
	s.m.matched.Add(1)
	d := Delivery{Inst: *in, Cursor: cursor, HasCursor: hasCursor}
	if s.catchup {
		if len(s.pending) >= s.cap {
			copy(s.pending, s.pending[1:])
			s.pending = s.pending[:len(s.pending)-1]
			s.dropped++
		}
		s.pending = append(s.pending, d)
		return
	}
	if cursor < s.seam {
		s.seamDropped++
		return
	}
	s.pushLocked(d)
}

// pushLocked appends to the ring, evicting the oldest entry when full.
// Callers hold mu.
//
//stcps:holds mu
func (s *Subscription) pushLocked(d Delivery) {
	if s.n == len(s.ring) && len(s.ring) < s.cap {
		grown := cap(s.ring) * 2
		if grown < 8 {
			grown = 8
		}
		if grown > s.cap {
			grown = s.cap
		}
		next := make([]Delivery, s.n, grown) //stcps:ignore hotpath amortized ring growth, capped at cap
		for i := 0; i < s.n; i++ {
			next[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring = next[:grown]
		s.head = 0
	}
	if s.n == len(s.ring) {
		s.ring[s.head] = Delivery{}
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
	}
	s.ring[(s.head+s.n)%len(s.ring)] = d
	s.n++
	s.delivered++
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// matchLocked evaluates the where condition (none matches all) on in.
//
//stcps:holds mu
func (s *Subscription) matchLocked(in *event.Instance) bool {
	if s.cond == nil {
		return true
	}
	s.binding[0] = in
	ok, err := s.cond.Eval(s.binding)
	s.binding[0] = nil
	if err != nil {
		s.condErrs++
		s.m.condErrs.Add(1)
		return false
	}
	return ok
}

// noteReplayed admits one replay row through the where condition and
// records it. A rejected row still advances the seam watermark the
// live path dedups against: the catch-up covered it.
func (s *Subscription) noteReplayed(d *Delivery) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seam = max(s.seam, d.Cursor+1)
	if !s.matchLocked(&d.Inst) {
		return false
	}
	s.replayed++
	s.delivered++
	return true
}

// splice ends the catch-up phase: drain pending into the ring (skipping
// seam duplicates) and route subsequent matches straight to the ring.
func (s *Subscription) splice() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.catchup = false
	for i := range s.pending {
		d := &s.pending[i]
		if d.Cursor < s.seam {
			s.seamDropped++
			continue
		}
		s.pushLocked(*d)
	}
	s.pending = nil
}

// Poll returns the next delivery without blocking: first the catch-up
// replay in store order, then the live ring. ok is false when nothing
// is buffered. A replay failure (notably db.ErrStaleCursor after a
// mid-replay eviction) is sticky: the subscriber must resubscribe.
// Poll is single-consumer.
func (s *Subscription) Poll() (Delivery, bool, error) {
	if s.rpErr != nil {
		return Delivery{}, false, s.rpErr
	}
	for s.rp != nil {
		if s.isClosed() {
			s.rp = nil
			break
		}
		rp := s.rp
		if rp.i < len(rp.buf) {
			d := rp.buf[rp.i]
			rp.buf[rp.i] = Delivery{}
			rp.i++
			if s.noteReplayed(&d) {
				return d, true, nil
			}
			continue
		}
		if rp.done {
			s.splice()
			s.rp = nil
			break
		}
		if err := rp.fetch(); err != nil {
			s.rpErr = err
			return Delivery{}, false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		if s.closed {
			return Delivery{}, false, ErrClosed
		}
		return Delivery{}, false, nil
	}
	d := s.ring[s.head]
	s.ring[s.head] = Delivery{}
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	return d, true, nil
}

// Next blocks until a delivery is available, the context is done, or
// the subscription closes (after the remaining buffer drains). Next is
// single-consumer.
func (s *Subscription) Next(ctx context.Context) (Delivery, error) {
	for {
		d, ok, err := s.Poll()
		if err != nil {
			return Delivery{}, err
		}
		if ok {
			return d, nil
		}
		select {
		case <-ctx.Done():
			return Delivery{}, ctx.Err()
		case <-s.done:
			// Drain whatever landed before the close, then report it.
			if d, ok, err := s.Poll(); err != nil || ok {
				return d, err
			}
			return Delivery{}, ErrClosed
		case <-s.notify:
		}
	}
}

// Close unsubscribes: no further deliveries, a blocked Next wakes, the
// buffered remainder stays pollable. Idempotent.
func (s *Subscription) Close() { s.m.Unsubscribe(s.id) }

// markClosed flips the closed state (once) outside the matcher lock.
func (s *Subscription) markClosed() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !wasClosed {
		close(s.done)
	}
}

// isClosed reports the closed state.
func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ID returns the subscription identifier (for Unsubscribe and the
// stats endpoints).
func (s *Subscription) ID() uint64 { return s.id }

// Spec returns the subscription's standing query.
func (s *Subscription) Spec() Spec { return s.spec }

// Done closes when the subscription is closed.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Notify signals (with at-most-one buffered token) after live
// deliveries; consumers that bypass Next can select on it and then
// drain Poll.
func (s *Subscription) Notify() <-chan struct{} { return s.notify }

// CursorString renders a delivery cursor in the store's query-cursor
// format (what SubscribeFrom and db.QuerySpec.Cursor accept).
func CursorString(c uint64) string { return strconv.FormatUint(c, 10) }

// Stats reads this subscription's state and counters — the SSE handler
// uses the Dropped delta to tell the client about backpressure gaps.
func (s *Subscription) Stats() SubStats { return s.statsSnapshot() }

// statsSnapshot reads the subscription's counters.
func (s *Subscription) statsSnapshot() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{
		ID:          s.id,
		Event:       s.spec.Event,
		HasRegion:   s.spec.Region != nil,
		Where:       s.spec.Where,
		Buffered:    s.n + len(s.pending),
		Capacity:    s.cap,
		CatchingUp:  s.catchup,
		Delivered:   s.delivered,
		Dropped:     s.dropped,
		Replayed:    s.replayed,
		CondErrors:  s.condErrs,
		SeamDropped: s.seamDropped,
	}
}
