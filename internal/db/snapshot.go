package db

import (
	"sort"

	"github.com/stcps/stcps/internal/event"
)

// Snapshot calls fn with every live instance in the canonical snapshot
// order and stops at fn's first error. It is the store's half of the
// durable snapshot: the WAL frames and writes what fn is handed (see
// wal.Log.Snapshot), and recovery replays those records back through
// LogBatch.
//
// The walk is reproducible run to run: instances are visited in
// (generation time, occurrence, event, observer, sequence) order rather
// than arrival order, because arrival order through the sharded
// engine's worker goroutines is nondeterministic.
//
// The reader lock is held only long enough to take the published view;
// sorting and fn — the bulk of the work — run against the immutable
// chunks without blocking ingest. The instance handed to fn must not be
// modified or retained.
func (s *Store) Snapshot(fn func(*event.Instance) error) error {
	s.mu.RLock()
	v := s.loadView()
	s.mu.RUnlock()

	order := make([]uint64, 0, v.live())
	for seq := v.base; seq < v.frontier; seq++ {
		order = append(order, seq)
	}
	sort.Slice(order, func(i, j int) bool {
		return instanceLess(v.at(order[i]), v.at(order[j]))
	})
	for _, seq := range order {
		if err := fn(v.at(seq)); err != nil {
			return err
		}
	}
	return nil
}

// instanceLess is the canonical snapshot order: generation time, then
// occurrence, then the (event, observer, sequence) identity — a total
// order over any live instance set, since entity ids are unique.
func instanceLess(a, b *event.Instance) bool {
	if a.Gen != b.Gen {
		return a.Gen < b.Gen
	}
	if as, bs := a.Occ.Start(), b.Occ.Start(); as != bs {
		return as < bs
	}
	if ae, be := a.Occ.End(), b.Occ.End(); ae != be {
		return ae < be
	}
	if a.Event != b.Event {
		return a.Event < b.Event
	}
	if a.Observer != b.Observer {
		return a.Observer < b.Observer
	}
	return a.Seq < b.Seq
}
