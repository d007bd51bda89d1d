package engine

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// DefaultBatch is the per-shard offer batch size.
const DefaultBatch = 32

// shardChanCap is the per-shard queue capacity, in batches.
const shardChanCap = 64

// offerMsg is one buffered Ingest call.
type offerMsg struct {
	source string
	ent    event.Entity
	conf   float64
	now    timemodel.Tick
	loc    spatial.Location
}

// Lifecycle states of a Sharded engine.
const (
	stateNew int32 = iota
	stateStarted
	stateClosed
)

// Sharded is the concurrent detection engine: N worker shards, each
// owning a Bank, hash-partitioned by detected event ID so every
// detector sees a sequential stream while distinct events evaluate in
// parallel. Offers are batched per shard and batch buffers are pooled.
//
// Usage: AddDetector everything, Start, then Ingest from ONE producer
// goroutine (the shards parallelize detection, not the feed); Drain to
// wait for quiescence; Close to stop the workers and flush open
// intervals. Close may be called from any goroutine — including
// concurrently with Ingest, which then returns ErrClosed — and is
// idempotent. The Config LogBatch and Emit hooks run on worker
// goroutines and must be safe for concurrent use.
type Sharded struct {
	cfg   Config
	banks []*Bank
	// routes maps each input source to the shards hosting a detector
	// that consumes it. Immutable after Start.
	routes map[string][]int
	in     []chan *[]offerMsg
	// pending is the producer-side partial batch per shard, guarded by
	// pmu.
	pending []*[]offerMsg //stcps:guardedby pmu

	// batch is the offer batch size, DefaultBatch unless a test sets it
	// before Start.
	batch int

	pool     sync.Pool
	wg       sync.WaitGroup
	ingested atomic.Uint64
	// state is the atomic lifecycle: New -> Started -> Closed. Ingest
	// checks it under pmu so a concurrent Close can never race it into
	// a send on a closed channel.
	state atomic.Int32
	// pmu serializes the producer side (pending buffers and channel
	// sends) against Close. Uncontended in the single-producer case.
	pmu sync.Mutex

	// inflight counts dispatched-but-unprocessed offers; idle is
	// signalled when it reaches zero so Drain can block without
	// spinning.
	mu       sync.Mutex
	idle     *sync.Cond
	inflight int64 //stcps:guardedby mu
}

// NewSharded creates a sharded engine with the given shard count
// (clamped to at least 1). Each shard bank shares cfg.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	if cfg.Observer == "" {
		return nil, ErrNoObserver
	}
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{
		cfg:    cfg,
		routes: make(map[string][]int),
	}
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < shards; i++ {
		s.banks = append(s.banks, newBank(cfg))
	}
	return s, nil
}

// FNV-1a constants (hash/fnv), inlined so routing never allocates.
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// shardOf hash-partitions a detected event ID onto a shard with an
// inline zero-allocation FNV-1a — hash/fnv.New32a allocates a hasher
// per call, which showed up on the routing path.
//
//stcps:hotpath
func (s *Sharded) shardOf(eventID string) int {
	h := fnvOffset32
	for i := 0; i < len(eventID); i++ {
		h ^= uint32(eventID[i])
		h *= fnvPrime32
	}
	return int(h % uint32(len(s.banks)))
}

// AddDetector registers a detector on the shard owning its event ID.
// All registration must happen before Start.
func (s *Sharded) AddDetector(spec detect.Spec) error {
	if s.state.Load() != stateNew {
		return ErrStarted
	}
	shard := s.shardOf(spec.EventID)
	d, err := s.banks[shard].AddDetector(spec)
	if err != nil {
		return err
	}
	for _, src := range d.Sources() {
		if !containsInt(s.routes[src], shard) {
			s.routes[src] = append(s.routes[src], shard)
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// SeedEventSeq raises the emission sequence counter of the event's
// detector to at least min (see Bank.SeedEventSeq). It is safe between
// a Drain and the next Ingest, or before Start.
func (s *Sharded) SeedEventSeq(eventID string, min uint64) {
	s.banks[s.shardOf(eventID)].SeedEventSeq(eventID, min)
}

// Start spawns the worker shards. No detectors may be added afterwards.
func (s *Sharded) Start() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.state.Load() != stateNew {
		return ErrStarted
	}
	if s.batch <= 0 {
		s.batch = DefaultBatch
	}
	batch := s.batch
	s.pool.New = func() any {
		buf := make([]offerMsg, 0, batch)
		return &buf
	}
	s.in = make([]chan *[]offerMsg, len(s.banks))
	s.pending = make([]*[]offerMsg, len(s.banks))
	for i := range s.banks {
		s.in[i] = make(chan *[]offerMsg, shardChanCap)
		s.wg.Add(1)
		go s.worker(i)
	}
	s.state.Store(stateStarted)
	return nil
}

// worker drains one shard's batch queue into its bank. Each queued
// offer batch is one emission round: every instance the batch's offers
// emit is logged in a single LogBatch call, amortizing the store's lock
// acquisition over the whole batch.
func (s *Sharded) worker(i int) {
	defer s.wg.Done()
	bank := s.banks[i]
	for bp := range s.in[i] {
		buf := *bp
		bank.beginRound()
		for _, m := range buf {
			bank.Ingest(m.source, m.ent, m.conf, m.now, m.loc)
		}
		bank.endRound()
		s.mu.Lock()
		s.inflight -= int64(len(buf))
		if s.inflight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
		*bp = buf[:0]
		s.pool.Put(bp)
	}
}

// Ingest buffers one entity toward every shard hosting a detector for
// its source. Detection happens asynchronously on the workers; emitted
// instances flow through the Config hooks. Ingest is intended for a
// single producer goroutine; after a (possibly concurrent) Close it
// returns ErrClosed.
//
//stcps:hotpath
func (s *Sharded) Ingest(source string, ent event.Entity, conf float64, now timemodel.Tick, loc spatial.Location) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	switch s.state.Load() {
	case stateNew:
		return ErrNotStarted
	case stateClosed:
		return ErrClosed
	}
	s.ingested.Add(1)
	m := offerMsg{source: source, ent: ent, conf: conf, now: now, loc: loc}
	for _, shard := range s.routes[source] {
		bp := s.pending[shard]
		if bp == nil {
			bp = s.pool.Get().(*[]offerMsg)
			s.pending[shard] = bp
		}
		*bp = append(*bp, m)
		if len(*bp) >= s.batch {
			s.dispatch(shard)
		}
	}
	return nil
}

// dispatch sends a shard's pending batch to its worker. Callers hold
// pmu in a state where the channels are open.
//
//stcps:holds pmu
func (s *Sharded) dispatch(shard int) {
	bp := s.pending[shard]
	if bp == nil || len(*bp) == 0 {
		return
	}
	s.pending[shard] = nil
	s.mu.Lock()
	s.inflight += int64(len(*bp))
	s.mu.Unlock()
	s.in[shard] <- bp
}

// Drain flushes all partial batches and blocks until every queued offer
// has been processed — the barrier before reading Stats or measuring
// throughput.
func (s *Sharded) Drain() {
	s.pmu.Lock()
	if s.state.Load() != stateStarted {
		s.pmu.Unlock()
		return
	}
	for shard := range s.pending {
		s.dispatch(shard)
	}
	s.pmu.Unlock()
	s.waitIdle()
}

// waitIdle blocks until the workers have consumed every dispatched
// batch.
func (s *Sharded) waitIdle() {
	s.mu.Lock()
	for s.inflight != 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close drains the queues, stops the workers, then flushes open
// interval detections at virtual time now, returning the flushed
// instances (which also flow through the Config hooks). Close is safe
// to call from any goroutine, including concurrently with Ingest
// (which then returns ErrClosed); repeated Close calls return nil.
func (s *Sharded) Close(now timemodel.Tick, loc spatial.Location) []event.Instance {
	s.pmu.Lock()
	if !s.state.CompareAndSwap(stateStarted, stateClosed) {
		s.pmu.Unlock()
		return nil
	}
	// Flush partial batches under pmu: a concurrent Ingest is either
	// already blocked on pmu (and will observe the closed state) or
	// finished, so no send can follow once pmu is released.
	for shard := range s.pending {
		s.dispatch(shard)
	}
	s.pmu.Unlock()
	s.waitIdle()
	for _, ch := range s.in {
		close(ch)
	}
	s.wg.Wait()
	var out []event.Instance
	for _, b := range s.banks {
		out = append(out, b.Flush(now, loc)...)
	}
	return out
}

// Stats aggregates the shard banks' counters. Ingested counts producer
// offers (not per-shard fan-out copies); Emitted counts generated
// instances, and the evaluation counters sum over every detector. All
// counters are atomically maintained, so Stats is safe to call while the
// workers run; call after Drain or Close for exact numbers.
func (s *Sharded) Stats() Stats {
	out := Stats{Ingested: s.ingested.Load()}
	for _, b := range s.banks {
		bs := b.Stats()
		out.Emitted += bs.Emitted
		out.BindingsProbed += bs.BindingsProbed
		out.BindingsPruned += bs.BindingsPruned
		out.Truncations += bs.Truncations
		out.EvalErrors += bs.EvalErrors
	}
	return out
}

// PlanDescriptions lists every detector's compiled evaluation plan
// across the shards, sorted.
func (s *Sharded) PlanDescriptions() []string {
	var out []string
	for _, b := range s.banks {
		out = append(out, b.PlanDescriptions()...)
	}
	sort.Strings(out)
	return out
}

// Sources returns the distinct input stream keys consumed across all
// shards, sorted.
func (s *Sharded) Sources() []string {
	seen := make(map[string]bool)
	var union []string
	for _, b := range s.banks {
		for _, src := range b.Sources() {
			if !seen[src] {
				seen[src] = true
				union = append(union, src)
			}
		}
	}
	sort.Strings(union)
	return union
}
