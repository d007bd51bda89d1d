// Package engine is the standalone streaming detection runtime of the
// architecture: the observer logic of the paper (evaluate event
// conditions over input entity streams, emit event instances — Eqs.
// 5.3–5.5) extracted from the discrete-event simulator so the same code
// path serves both simulated nodes and live feeds.
//
// A Bank is one observer's detector bank: detector registration,
// topic-routed fan-out from input sources to the detectors consuming
// them, and instance emission. Every Ingest or Flush is one emission
// round: the round's instances go to the LogBatch hook (the transfer to
// the database server) and then, one by one, to the Emit hook (the
// transport downstream). A Bank is clock-agnostic — callers pass the
// current tick into Ingest — and single-threaded, matching the paper's
// one-observer-one-evaluation-context model.
//
// Sharded runs many detectors across N worker shards, hash-partitioned
// by detected event ID, with batched offers and pooled batch buffers —
// the concurrent form a production deployment uses to spread detection
// load over cores while each individual detector still sees a
// sequential stream.
package engine

import (
	"errors"
	"sort"
	"sync/atomic"

	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Engine errors.
var (
	// ErrNoObserver is returned when a Config lacks the observer id.
	ErrNoObserver = errors.New("engine: config needs an observer id")
	// ErrStarted is returned when mutating a sharded engine after Start.
	ErrStarted = errors.New("engine: already started")
	// ErrNotStarted is returned when ingesting into a sharded engine
	// before Start.
	ErrNotStarted = errors.New("engine: not started")
	// ErrClosed is returned when ingesting into a closed sharded engine.
	ErrClosed = errors.New("engine: closed")
)

// EmitFunc receives an emitted event instance.
type EmitFunc func(event.Instance)

// BatchFunc receives a run of emitted event instances in emission
// order. The slice is only valid for the duration of the call — the
// bank reuses its backing buffer for the next round.
type BatchFunc func([]event.Instance)

// Config parameterizes a Bank (and, via NewSharded, each shard bank).
type Config struct {
	// Observer is the observer identifier OB_id stamped on emitted
	// instances. Required.
	Observer string
	// Loc is the observer's generation location l^g, used by callers
	// that do not track a per-ingest location.
	Loc spatial.Location
	// LogBatch, when set, receives each emission round — the
	// database-transfer hook ("automatically transferred to the database
	// server after a certain time", Section 3). A round is one Ingest or
	// Flush call on a Bank, or a whole offer batch on a Sharded worker;
	// its instances arrive in one call, in emission order, before Emit
	// sees any of them. That is the write-ahead contract: a durable
	// engine WAL-appends and logs a round before anything downstream
	// observes it, and the store takes one lock and one retention pass
	// per round. Simulated nodes schedule a TTL-delayed store append per
	// instance; live engines log at once. Under Sharded it runs on
	// worker goroutines and must be safe for concurrent use.
	LogBatch BatchFunc
	// Emit, when set, receives every instance of a round after LogBatch
	// ran — the transport hook (WSN uplink, CPS-network publish). Under
	// Sharded it is invoked from worker goroutines and must be safe for
	// concurrent use.
	Emit EmitFunc
}

// Stats counts a bank's traffic and its detectors' evaluation work.
type Stats struct {
	// Ingested counts entities offered into the bank.
	Ingested uint64
	// Emitted counts instances generated by the bank's detectors.
	Emitted uint64
	// BindingsProbed counts candidate bindings the detectors examined.
	BindingsProbed uint64
	// BindingsPruned counts window entries the planner skipped without
	// evaluation (insertion-time filters and index probes).
	BindingsPruned uint64
	// Truncations counts evaluation rounds cut short by MaxBindings.
	Truncations uint64
	// EvalErrors counts failed binding evaluations.
	EvalErrors uint64
}

// TraceOp records one Bank input, so a run can be replayed through
// another bank (the sim/engine differential tests) or shipped to a
// debugger. Flush marks interval-flush calls; the entity fields are
// meaningful only when Flush is false.
type TraceOp struct {
	Flush  bool
	Source string
	Ent    event.Entity
	Conf   float64
	Now    timemodel.Tick
	Loc    spatial.Location
}

// Bank is one observer's detector bank. It is not safe for concurrent
// use: one goroutine owns it (the simulation loop, a feed consumer, or
// a Sharded worker).
type Bank struct {
	cfg       Config
	detectors []*detect.Detector
	bySource  map[string][]*detect.Detector

	// Trace, when set, observes every Ingest and Flush in call order —
	// the replay hook. Set it before feeding the bank.
	Trace func(TraceOp)

	// Traffic counters are atomic so Stats can serve a live endpoint
	// while a worker goroutine owns the bank.
	ingested atomic.Uint64
	emitted  atomic.Uint64

	// round accumulates emissions while a round is open; depth tracks
	// round nesting (a Sharded worker opens one round across a whole
	// offer batch, and each Ingest inside it nests). Owned by the bank's
	// single goroutine, like the rest of the bank.
	round []event.Instance
	depth int
}

// NewBank creates an empty detector bank for one observer.
func NewBank(cfg Config) (*Bank, error) {
	if cfg.Observer == "" {
		return nil, ErrNoObserver
	}
	return newBank(cfg), nil
}

func newBank(cfg Config) *Bank {
	return &Bank{cfg: cfg, bySource: make(map[string][]*detect.Detector)}
}

// AddDetector compiles and registers a detector, indexing it under every
// input source it consumes. The returned detector lets callers inspect
// sources (e.g. to subscribe on a pub/sub network).
func (b *Bank) AddDetector(spec detect.Spec) (*detect.Detector, error) {
	d, err := detect.New(b.cfg.Observer, spec)
	if err != nil {
		return nil, err
	}
	b.detectors = append(b.detectors, d)
	for _, src := range d.Sources() {
		b.bySource[src] = append(b.bySource[src], d)
	}
	return d, nil
}

// SeedEventSeq raises the emission sequence counter of the event's
// detector to at least min — the crash-recovery hook that keeps restarted
// detectors from reissuing entity ids already on durable storage. It must
// not run concurrently with Ingest or Flush.
func (b *Bank) SeedEventSeq(eventID string, min uint64) {
	for _, d := range b.detectors {
		if d.EventID() == eventID {
			d.SeedSeq(min)
		}
	}
}

// Sources returns the distinct input stream keys the bank consumes,
// sorted.
func (b *Bank) Sources() []string {
	out := make([]string, 0, len(b.bySource))
	for s := range b.bySource {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Ingest feeds one entity from an input stream into every detector
// consuming that stream, at virtual time now with generation location
// loc, and returns the instances generated. The call is one emission
// round: its instances reach LogBatch, then Emit, before it returns
// (or, nested in a Sharded worker's batch, when the batch ends).
//
//stcps:hotpath
func (b *Bank) Ingest(source string, ent event.Entity, conf float64, now timemodel.Tick, loc spatial.Location) []event.Instance {
	if b.Trace != nil {
		b.Trace(TraceOp{Source: source, Ent: ent, Conf: conf, Now: now, Loc: loc})
	}
	b.ingested.Add(1)
	b.beginRound()
	var out []event.Instance
	for _, d := range b.bySource[source] {
		out = b.deliver(out, d.Offer(source, ent, conf, now, loc))
	}
	b.endRound()
	return out
}

// Flush closes every open interval detection at virtual time now,
// emitting the resulting instances as one round.
func (b *Bank) Flush(now timemodel.Tick, loc spatial.Location) []event.Instance {
	if b.Trace != nil {
		b.Trace(TraceOp{Flush: true, Now: now, Loc: loc})
	}
	b.beginRound()
	var out []event.Instance
	for _, d := range b.detectors {
		out = b.deliver(out, d.Flush(now, loc))
	}
	b.endRound()
	return out
}

// Replay feeds a recorded trace back through the bank, returning every
// instance generated — the differential-test path proving engine output
// matches the simulated nodes.
//
//stcps:replay
func (b *Bank) Replay(ops []TraceOp) []event.Instance {
	var out []event.Instance
	for _, op := range ops {
		if op.Flush {
			out = append(out, b.Flush(op.Now, op.Loc)...)
			continue
		}
		out = append(out, b.Ingest(op.Source, op.Ent, op.Conf, op.Now, op.Loc)...)
	}
	return out
}

// deliver takes the instances one detector just emitted — the
// detector's own buffer, read in place and copied out before its next
// offer — appends them to out for the caller and to the open round.
func (b *Bank) deliver(out, insts []event.Instance) []event.Instance {
	if len(insts) == 0 {
		return out
	}
	b.emitted.Add(uint64(len(insts)))
	b.round = append(b.round, insts...)
	return append(out, insts...)
}

// beginRound opens (or nests into) an emission round. Ingest and Flush
// each open one; a Sharded worker opens one around a whole offer batch,
// and the Ingest calls inside it nest.
func (b *Bank) beginRound() { b.depth++ }

// endRound closes one nesting level of a round and,
// on the outermost close, delivers the buffered instances: LogBatch
// first (the database transfer, write-ahead of everything downstream),
// then Emit for each instance in emission order. The buffer is detached
// while the hooks run, so a hook that re-enters the bank opens and
// delivers a round of its own instead of re-delivering this one.
func (b *Bank) endRound() {
	b.depth--
	if b.depth > 0 || len(b.round) == 0 {
		return
	}
	insts := b.round
	b.round = nil
	if b.cfg.LogBatch != nil {
		b.cfg.LogBatch(insts)
	}
	if b.cfg.Emit != nil {
		for i := range insts {
			b.cfg.Emit(insts[i])
		}
	}
	if b.round == nil {
		b.round = insts[:0]
	}
}

// Stats returns the traffic counters plus the detectors' aggregated
// evaluation counters. The detector counters are atomically maintained,
// so Stats is safe to call while another goroutine feeds the bank (the
// traffic counters may then lag by in-flight offers).
func (b *Bank) Stats() Stats {
	out := Stats{Ingested: b.ingested.Load(), Emitted: b.emitted.Load()}
	for _, d := range b.detectors {
		ds := d.Stats()
		out.BindingsProbed += ds.Probed
		out.BindingsPruned += ds.Pruned
		out.Truncations += ds.Truncations
		out.EvalErrors += ds.EvalErrors
	}
	return out
}

// PlanDescriptions lists each detector's compiled evaluation plan as
// "eventID: plan", in registration order.
func (b *Bank) PlanDescriptions() []string {
	out := make([]string, 0, len(b.detectors))
	for _, d := range b.detectors {
		out = append(out, d.EventID()+": "+d.PlanDesc())
	}
	return out
}
