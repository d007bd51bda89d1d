package cluster

import (
	"sync"

	"github.com/stcps/stcps/internal/cluster/hlc"
)

// StampIndex is the sidecar mapping a node's store sequence numbers to
// the HLC stamp and partition of the record whose application logged
// them. The canonical instance codec is pinned by WAL golden fixtures
// and cannot grow an HLC field, so the cluster tier records stamps
// out-of-band at apply time and the gather path joins them back by
// seq. Entries are append-only and first-write-wins: a deduplicated
// re-apply can never restamp an instance.
type StampIndex struct {
	mu     sync.RWMutex
	stamps []uint64 //stcps:guardedby mu
	parts  []int32  //stcps:guardedby mu
}

// Record associates store seq with (stamp, partition). Gaps — seqs
// logged outside the cluster apply path, e.g. WAL recovery before the
// node joined — are filled with sentinel entries that Lookup reports
// as misses.
func (x *StampIndex) Record(seq uint64, stamp hlc.Stamp, partition int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if seq < uint64(len(x.stamps)) {
		return // first write wins
	}
	for uint64(len(x.stamps)) < seq {
		x.stamps = append(x.stamps, 0)
		x.parts = append(x.parts, -1)
	}
	x.stamps = append(x.stamps, uint64(stamp))
	x.parts = append(x.parts, int32(partition))
}

// Lookup returns the stamp and partition recorded for seq. ok is false
// for seqs the cluster tier never stamped.
func (x *StampIndex) Lookup(seq uint64) (stamp hlc.Stamp, partition int, ok bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if seq >= uint64(len(x.stamps)) || x.parts[seq] < 0 {
		return 0, 0, false
	}
	return hlc.Stamp(x.stamps[seq]), int(x.parts[seq]), true
}

// dedupKey identifies one (partition, origin) record stream.
type dedupKey struct {
	partition int32
	origin    int32
}

// dedupWindow is a receiver window over one origin's dense record
// sequence for one partition: everything below base has been applied,
// plus a sparse set of applied seqs at or above it. The set stays
// small — it only holds reordering between delivery paths, bounded by
// the wire credit window — and collapses into base as gaps fill.
type dedupWindow struct {
	base uint64
	seen map[uint64]struct{}
}

// Dedup tracks applied (partition, origin, seq) triples so that
// at-least-once delivery — wire resends after reconnect, re-routes
// after failover, forward+replica double arrival — applies each record
// exactly once per node.
type Dedup struct {
	mu sync.Mutex
	m  map[dedupKey]*dedupWindow //stcps:guardedby mu
}

// NewDedup returns an empty dedup table.
func NewDedup() *Dedup { return &Dedup{m: make(map[dedupKey]*dedupWindow)} }

// Seen reports whether (partition, origin, seq) was already admitted.
func (d *Dedup) Seen(partition, origin int, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.m[dedupKey{partition: int32(partition), origin: int32(origin)}]
	if w == nil {
		return false
	}
	_, dup := w.seen[seq]
	return dup || seq < w.base
}

// Admit reports whether (partition, origin, seq) is new, marking it
// applied when it is. The coordinator admits a record only after its
// apply succeeded (checking Seen before the apply, both under the
// ingest guard), so a failed apply leaves the record retryable.
func (d *Dedup) Admit(partition, origin int, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := dedupKey{partition: int32(partition), origin: int32(origin)}
	w := d.m[k]
	if w == nil {
		w = &dedupWindow{seen: make(map[uint64]struct{})}
		d.m[k] = w
	}
	if seq < w.base {
		return false
	}
	if _, dup := w.seen[seq]; dup {
		return false
	}
	w.seen[seq] = struct{}{}
	for {
		if _, ok := w.seen[w.base]; !ok {
			break
		}
		delete(w.seen, w.base)
		w.base++
	}
	return true
}

// Pending returns the number of out-of-order seqs held across all
// windows — a health signal for stats (persistently large means a
// delivery path is stalled).
func (d *Dedup) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.m {
		n += len(w.seen)
	}
	return n
}
