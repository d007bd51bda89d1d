package stcps

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/segment"
	"github.com/stcps/stcps/internal/sub"
	"github.com/stcps/stcps/internal/wal"
)

// Engine errors.
var (
	// ErrEngineConfig is returned for invalid engine configurations.
	ErrEngineConfig = errors.New("stcps: invalid engine config")
	// ErrNoStore is returned when querying an engine built without
	// WithStore.
	ErrNoStore = errors.New("stcps: engine has no store (set WithStore)")
)

// EngineStats counts engine traffic (entities ingested, instances
// emitted).
type EngineStats = engine.Stats

// QuerySpec describes one combined spatio-temporal retrieval against
// the database server: any subset of {event id, occurrence region,
// occurrence window}, paginated via Limit/Cursor, tier-selected via
// Tier.
type QuerySpec = db.QuerySpec

// TimeWindow is a QuerySpec occurrence-time bound [From, To].
type TimeWindow = db.TimeWindow

// Tier selects which storage tiers a QuerySpec reads.
type Tier = db.Tier

// Tier values for QuerySpec.Tier.
const (
	// TierAll reads the cold segment tier and the hot in-memory tier
	// under one cursor space (the default).
	TierAll = db.TierAll
	// TierHot reads only the live in-memory window.
	TierHot = db.TierHot
	// TierCold reads only history at or below the spill boundary.
	TierCold = db.TierCold
)

// QueryResult is one page of QueryST output.
type QueryResult = db.Result

// Retention bounds the database server's memory (max live instances
// and/or max generation-time age). The zero value retains everything.
type Retention = db.Retention

// StoreStats summarizes the database server's contents.
type StoreStats = db.Stats

// SpillConfig gives the engine's database server a cold storage tier:
// instances evicted from the in-memory window by DBRetention are
// spilled to immutable, sorted segment files under Dir instead of being
// discarded, and QueryST / subscription catch-up read through them
// transparently. The zero value (empty Dir) disables spilling.
type SpillConfig struct {
	// Dir is the segment directory; empty disables the cold tier.
	Dir string
	// MaxAge deletes cold segments whose newest generation time has
	// fallen more than MaxAge ticks behind the newest spilled
	// generation time; 0 keeps segments regardless of age.
	MaxAge Tick
	// MaxBytes caps the total size of the segment files; oldest
	// segments are deleted first. 0 = unbounded.
	MaxBytes int64
	// MaxSegments caps the number of segment files. 0 = unbounded.
	MaxSegments int
	// NoSync skips the per-segment fsync (benchmarks only; a crash may
	// tear the newest segment, which recovery then discards).
	NoSync bool
}

// EngineConfig parameterizes a standalone detection Engine.
type EngineConfig struct {
	// Observer is the observer identifier OB_id stamped on emitted
	// instances. Required.
	Observer string
	// Loc is the observer's generation location l^g (where this engine
	// runs), used for every emitted instance.
	Loc Location
	// Workers selects the concurrent sharded runtime when > 1: that
	// many worker shards evaluate detectors in parallel,
	// hash-partitioned by event ID. With 0 or 1 the engine is
	// synchronous and Ingest returns emitted instances directly.
	Workers int
	// OnInstance, when set, receives every emitted instance. Required
	// when Workers > 1 (the sharded engine emits asynchronously, from
	// worker goroutines) unless WithStore captures the output instead.
	OnInstance func(Instance)
	// WithStore keeps an in-process database server: every emitted
	// instance is logged immediately (the engine is clock-agnostic, so
	// there is no simulated transfer delay). Query it via QueryST or
	// Store.
	WithStore bool
	// DBCell is the store's spatial-index cell size (0 = default).
	DBCell float64
	// DBRetention bounds the store's memory when WithStore is set. The
	// zero value retains everything.
	DBRetention Retention
	// Spill, when Dir is set, spills instances evicted by DBRetention
	// to on-disk segment files instead of discarding them; QueryST and
	// subscription catch-up then read through the cold tier under one
	// cursor space. Spill implies WithStore.
	Spill SpillConfig
	// Durability, when Dir is set, puts a write-ahead log under the
	// engine: every ingested entity and emitted instance is logged (and
	// periodically snapshotted) so the store and the detection windows
	// survive a crash. Durability implies WithStore. Call Start before
	// ingesting — it performs the recovery replay.
	Durability DurabilityConfig
	// Subscriptions tunes the standing-subscription subsystem (the
	// default ring capacity). Subscriptions are always available via
	// Subscribe; catch-up replay additionally needs WithStore.
	Subscriptions SubscriptionsConfig
}

// Engine is the standalone streaming detection runtime: the observer
// logic of the paper (Eqs. 5.3–5.5) without the simulator, for driving
// detections from live entity feeds. Declare events with Detect, then
// push entities with Feed / Observe / Ingest; emitted instances are
// returned (synchronous mode), delivered to OnInstance, and/or logged
// to the store.
//
// In sharded mode (Workers > 1) call Start after declaring events, push
// from a single feeder goroutine, and Close to drain and flush; the
// OnInstance callback then runs on worker goroutines and must be safe
// for concurrent use.
type Engine struct {
	cfg     EngineConfig
	bank    *engine.Bank
	sharded *engine.Sharded
	store   *db.Store
	cold    *segment.Dir
	subs    *sub.Matcher
	dur     *durability
	// replaying marks the recovery re-offer phase, during which logRound
	// dedups against durable storage instead of appending to the WAL or
	// invoking OnInstance.
	replaying atomic.Bool
}

// NewEngine creates a detection engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Observer == "" {
		return nil, fmt.Errorf("missing observer id: %w", ErrEngineConfig)
	}
	if cfg.Durability.Dir != "" || cfg.Spill.Dir != "" {
		cfg.WithStore = true
	}
	if cfg.Workers > 1 && cfg.OnInstance == nil && !cfg.WithStore {
		return nil, fmt.Errorf("sharded engine needs OnInstance or WithStore (emissions would be lost): %w", ErrEngineConfig)
	}
	e := &Engine{cfg: cfg}
	e.subs = sub.NewMatcher(sub.Config{Buffer: cfg.Subscriptions.Buffer})
	if cfg.WithStore {
		store, err := db.New(cfg.DBCell)
		if err != nil {
			return nil, err
		}
		store.SetRetention(cfg.DBRetention)
		e.store = store
	}
	if cfg.Durability.Dir != "" {
		d, err := newDurability(cfg.Durability)
		if err != nil {
			return nil, err
		}
		e.dur = d
	}
	if cfg.Spill.Dir != "" {
		scfg := segment.Config{
			Dir:      cfg.Spill.Dir,
			CellSize: cfg.DBCell,
			Retention: segment.Retention{
				MaxAge:      cfg.Spill.MaxAge,
				MaxBytes:    cfg.Spill.MaxBytes,
				MaxSegments: cfg.Spill.MaxSegments,
			},
			NoSync: cfg.Spill.NoSync,
		}
		if e.dur != nil {
			// Stamp each segment with the WAL position at spill time so
			// recovery can tell which segments the snapshot + WAL tail
			// already cover.
			scfg.Stamp = e.dur.log.Seq
		}
		cold, err := segment.Open(scfg)
		if err != nil {
			return nil, err
		}
		if e.dur != nil {
			// Segments spilled after the latest snapshot hold instances
			// the WAL replay re-logs into the hot tier; keeping them
			// would fork the cursor space, so recovery discards them (the
			// replay re-spills once retention evicts them again). Because
			// every snapshot is preceded by FlushCold, the surviving
			// segments end exactly where the snapshot's instances begin.
			if err := cold.DiscardAfter(e.dur.log.Stats().SnapshotSeq); err != nil {
				cold.Close()
				return nil, err
			}
		}
		if err := e.store.AttachCold(cold); err != nil {
			cold.Close()
			return nil, err
		}
		e.cold = cold
	}
	ecfg := engine.Config{Observer: cfg.Observer, Loc: cfg.Loc, LogBatch: e.logRound}
	if cfg.Workers > 1 {
		sh, err := engine.NewSharded(ecfg, cfg.Workers)
		if err != nil {
			return nil, err
		}
		e.sharded = sh
		return e, nil
	}
	b, err := engine.NewBank(ecfg)
	if err != nil {
		return nil, err
	}
	e.bank = b
	return e, nil
}

// logRound is the engine's one emission hook, run once per round in
// write-ahead order: the WAL (when durable), then the store and the
// subscribers, then OnInstance. While recovery re-offers the WAL it
// only dedups the re-derived emissions against durable storage.
func (e *Engine) logRound(ins []event.Instance) {
	if e.replaying.Load() {
		for i := range ins {
			e.replayEmission(ins[i])
		}
		return
	}
	if e.dur != nil {
		for i := range ins {
			e.appendEmit(ins[i])
		}
	}
	if e.store != nil {
		e.storeBatch(ins)
	} else {
		// Store-less engines still push live matches; deliveries carry
		// no cursor and catch-up is unavailable.
		for i := range ins {
			e.subs.Publish(&ins[i], 0, false)
		}
	}
	if e.cfg.OnInstance != nil {
		for i := range ins {
			e.cfg.OnInstance(ins[i])
		}
	}
}

// storeBatch logs one emission round through the store's batched write
// path and publishes the freshly logged instances to subscribers with
// their assigned sequence numbers. If the batch is rejected as a whole
// (one instance failed validation) it degrades to per-instance logging
// so one malformed emission cannot suppress the rest of the round.
func (e *Engine) storeBatch(ins []event.Instance) {
	seqs, fresh, err := e.store.LogBatch(ins)
	if err != nil {
		for i := range ins {
			if seq, ok, err := e.store.LogSeq(ins[i]); err == nil && ok {
				e.subs.Publish(&ins[i], seq, true)
			}
		}
		return
	}
	for i := range ins {
		if fresh[i] {
			e.subs.Publish(&ins[i], seqs[i], true)
		}
	}
}

// Detect declares a detected event at the given layer (LayerSensor,
// LayerCyberPhysical or LayerCyber). Role sources name the input
// streams passed to Feed/Observe/Ingest. In sharded mode all events
// must be declared before Start.
func (e *Engine) Detect(layer Layer, spec EventSpec) error {
	ds, err := spec.toDetect(layer)
	if err != nil {
		return err
	}
	if e.dur != nil {
		e.dur.noteSpec(spec.Roles)
	}
	if e.sharded != nil {
		return e.sharded.AddDetector(ds)
	}
	_, err = e.bank.AddDetector(ds)
	return err
}

// Start launches the worker shards and — for a durable engine —
// performs crash recovery: the latest snapshot and the WAL replay into
// the store and the detector windows. Declare all events first. It is a
// no-op for a synchronous engine without durability.
func (e *Engine) Start() error {
	if e.dur != nil {
		if e.dur.recovered {
			return nil
		}
		return e.recover()
	}
	if e.sharded != nil {
		return e.sharded.Start()
	}
	return nil
}

// Ingest pushes one entity from an input stream at virtual time now —
// the fully general, clock-agnostic path. Synchronous engines return
// the emitted instances; sharded engines detect asynchronously and
// return nil (instances flow through OnInstance / the store). A durable
// engine logs the entity to the WAL before offering it (and requires
// Start to have run recovery first). It fails only when the entity was
// not logged: a snapshot failing after that counts in WALErrors and
// surfaces from Shutdown, so retrying a failed ingest never logs twice.
func (e *Engine) Ingest(source string, ent Entity, conf float64, now Tick) ([]Instance, error) {
	if e.dur != nil {
		if !e.dur.recovered {
			return nil, ErrNotRecovered
		}
		if err := e.appendIngest(source, ent, conf, now); err != nil {
			return nil, err
		}
		e.dur.noteTick(now)
	}
	out, err := e.offer(source, ent, conf, now)
	if err != nil {
		return out, err
	}
	if e.dur != nil {
		if err := e.maybeSnapshot(); err != nil {
			e.dur.noteHookErr(err) // the WAL still covers it; the next snapshot retries
		}
	}
	return out, nil
}

// offer feeds one entity into the runtime without WAL bookkeeping — the
// shared path of Ingest and the recovery replay.
func (e *Engine) offer(source string, ent Entity, conf float64, now Tick) ([]Instance, error) {
	if e.sharded != nil {
		return nil, e.sharded.Ingest(source, ent, conf, now, e.cfg.Loc)
	}
	return e.bank.Ingest(source, ent, conf, now, e.cfg.Loc), nil
}

// Feed pushes a lower-layer event instance (e.g. decoded from a live
// feed) under its event id, carrying its confidence, at its generation
// time.
func (e *Engine) Feed(in Instance) ([]Instance, error) {
	return e.Ingest(in.Event, in, in.Confidence, in.Gen)
}

// Observe pushes a raw physical observation under its sensor id with
// confidence 1 at its sampling time.
func (e *Engine) Observe(o Observation) ([]Instance, error) {
	return e.Ingest(o.Sensor, o, 1, o.Time.End())
}

// Drain blocks until every queued entity has been processed (sharded
// mode); it is a no-op for a synchronous engine.
//
// Concurrency contract: Drain belongs to the feeder side — call it from
// the (single) producer goroutine, or after the producer has stopped.
// Readers are unaffected: QueryST, Lineage, Stats, Subscribe and
// subscription receives are safe concurrently with Drain (and with the
// ingest it waits on).
func (e *Engine) Drain() {
	if e.sharded != nil {
		e.sharded.Drain()
	}
}

// Flush closes open interval detections at virtual time now and returns
// the flushed instances. In sharded mode this drains, stops the
// workers and flushes: the engine cannot ingest afterwards. A durable
// engine syncs the WAL, so the flushed instances are on stable storage
// when Flush returns; a failed sync counts toward
// DurabilityStats.WALErrors and surfaces from Shutdown.
//
// Concurrency contract: Flush (like Close/Shutdown) must not race the
// producer — call it from the feeder goroutine, or after the feed has
// been stopped (cmd/stcpsd's SIGTERM path takes a feed-guard mutex for
// exactly this). Concurrent readers are safe throughout: HTTP handlers
// and SSE fan-out may keep calling QueryST/Stats/Subscribe while Flush
// runs, and the instances Flush emits reach subscribers through the
// same hook path as live emissions.
func (e *Engine) Flush(now Tick) []Instance {
	var out []Instance
	if e.sharded != nil {
		out = e.sharded.Close(now, e.cfg.Loc)
	} else {
		out = e.bank.Flush(now, e.cfg.Loc)
	}
	if e.dur != nil {
		if err := e.dur.log.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			e.dur.noteHookErr(err)
		}
	}
	return out
}

// Close is Flush under its lifecycle name: use it when tearing a
// sharded engine down. Durable engines should prefer Shutdown, which
// additionally snapshots and closes the WAL and reports errors; Close
// performs the same teardown discarding the error.
func (e *Engine) Close(now Tick) []Instance {
	insts, _ := e.Shutdown(now)
	return insts
}

// Sources returns the distinct input stream keys the engine consumes,
// sorted — e.g. the topics to subscribe on a pub/sub feed.
func (e *Engine) Sources() []string {
	if e.sharded != nil {
		return e.sharded.Sources()
	}
	return e.bank.Sources()
}

// Store returns the in-process database server (nil unless WithStore).
func (e *Engine) Store() *db.Store { return e.store }

// QueryST retrieves logged instances matching every predicate of spec
// — the combined region×time retrieval path of the database server,
// merged across the cold segment tier and the hot in-memory tier under
// one cursor space (spec.Tier narrows it). It picks the cheaper hot
// index (per-event time index vs. spatial grid) from cardinality
// estimates and paginates via spec.Limit/spec.Cursor. Safe to call
// concurrently with ingestion. Requires WithStore.
func (e *Engine) QueryST(spec QuerySpec) (QueryResult, error) {
	if e.store == nil {
		return QueryResult{}, ErrNoStore
	}
	return e.store.QueryST(spec)
}

// Lineage resolves the provenance chain of a logged entity back to its
// original inputs. Requires WithStore.
func (e *Engine) Lineage(entityID string) ([]string, error) {
	if e.store == nil {
		return nil, ErrNoStore
	}
	return e.store.Lineage(entityID)
}

// StoreStats returns the database server's content counters (zero
// value unless WithStore).
func (e *Engine) StoreStats() StoreStats {
	if e.store == nil {
		return StoreStats{}
	}
	return e.store.Stats()
}

// Stats returns the engine's traffic and evaluation counters (bindings
// probed and pruned, truncations, eval errors). Safe to call while the
// engine ingests; in sharded mode call after Drain or Close for exact
// numbers.
func (e *Engine) Stats() EngineStats {
	if e.sharded != nil {
		return e.sharded.Stats()
	}
	return e.bank.Stats()
}

// PlanDescriptions lists each declared event's compiled evaluation plan
// — the indexed window join the condition compiler produced, or the
// fallback it chose — for startup logs and the stats API.
func (e *Engine) PlanDescriptions() []string {
	if e.sharded != nil {
		return e.sharded.PlanDescriptions()
	}
	return e.bank.PlanDescriptions()
}
