package stcps

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/wal"
)

// Durability errors.
var (
	// ErrNotRecovered is returned when a durable engine ingests before
	// Start has replayed the write-ahead log.
	ErrNotRecovered = errors.New("stcps: durable engine must Start() before ingesting (recovery pending)")
	// ErrNotDurable is returned when a durable engine ingests an entity
	// kind the WAL cannot serialize.
	ErrNotDurable = errors.New("stcps: entity kind is not WAL-serializable (want Observation or Instance)")
)

// DurabilityConfig makes an engine's database server survive crashes: a
// write-ahead log of every ingested entity and emitted instance, plus
// periodic snapshots of the store as WAL emit records. On Start the
// engine replays the latest snapshot and the WAL tail's emissions into
// the store, and re-offers the logged (still window-relevant) entities
// to the detectors — so both the instance history and half-bound
// detection windows survive a restart.
type DurabilityConfig struct {
	// Dir is the WAL directory; empty disables durability.
	Dir string
	// Fsync is the sync policy: "always", "interval" (default) or "off".
	Fsync string
	// FsyncEvery is the "interval" policy period (default 100ms).
	FsyncEvery time.Duration
	// SnapshotEvery writes a snapshot (and compacts covered WAL
	// segments) every this many WAL records; 0 snapshots only at
	// Shutdown.
	SnapshotEvery int
	// SegmentBytes is the WAL segment rotation size (default 16 MiB).
	SegmentBytes int64
}

// WALStats reports the write-ahead log's own counters: segments, bytes,
// appends, fsyncs, torn records, snapshots and compaction.
type WALStats = wal.Stats

// DurabilityStats reports the WAL and recovery counters of a durable
// engine (zero value when durability is disabled). The embedded
// WALStats fields encode inline, beside the recovery counters.
type DurabilityStats struct {
	// Enabled reports whether the engine runs with a WAL.
	Enabled bool `json:"enabled"`
	WALStats
	// ReplayedRecords counts WAL segment records read during recovery;
	// the snapshot's records are not among them.
	ReplayedRecords uint64 `json:"replayedRecords"`
	// ReofferedEntities counts ingested entities re-offered to the
	// detectors during recovery.
	ReofferedEntities uint64 `json:"reofferedEntities"`
	// RecoveredInstances counts instances restored into the store from
	// the snapshot and the WAL tail.
	RecoveredInstances uint64 `json:"recoveredInstances"`
	// ReplayEmissions counts instances the detectors re-derived during
	// recovery that were NOT yet on durable storage (emissions the crash
	// outran); they are logged and appended to the WAL.
	ReplayEmissions uint64 `json:"replayEmissions"`
	// ReplaySuppressed counts re-derivations discarded during recovery
	// because compaction had shortened the replayed history, making them
	// unverifiable (possibly spurious products of approximate windows).
	ReplaySuppressed uint64 `json:"replaySuppressed"`
	// WALErrors counts durability failures no call could return: WAL
	// appends from emission hooks, Flush's syncs, and the periodic
	// snapshots Ingest runs after logging an entity.
	WALErrors uint64 `json:"walErrors"`
	// LastTick is the newest virtual time the engine has seen (ingested
	// live or replayed from the WAL); meaningless until HasTick.
	LastTick Tick `json:"lastTick"`
	// HasTick reports whether any entity was ever ingested.
	HasTick bool `json:"hasTick"`
}

// durability is the engine-side state of the WAL subsystem.
type durability struct {
	log       *wal.Log
	cfg       DurabilityConfig
	recovered bool

	// maxTick is the newest ingested virtual time — the compaction
	// clock. Written by the producer goroutine, read by stats handlers.
	maxTick atomic.Int64
	// sawTick reports whether any tick was ever noted.
	sawTick atomic.Bool
	// agedOnly / maxRoleAge summarize the declared specs: when every
	// role bounds its window by MaxAge, ingest records older than
	// maxTick-maxRoleAge can never rebuild a window and their segments
	// may be compacted.
	agedOnly   bool
	maxRoleAge Tick

	// recordsSinceSnap counts WAL appends since the last snapshot;
	// emission hooks bump it from worker goroutines.
	recordsSinceSnap atomic.Uint64

	// Replay-time emission dedup: known holds a content key for every
	// emission already on durable storage; replayNew buffers the
	// re-derived emissions that were not (the crash outran their WAL
	// append) for appending after the replay finishes. replayComplete
	// reports whether the WAL held its full ingest history at recovery:
	// only then is an unknown re-derivation guaranteed genuine — over
	// compaction-shortened history the rebuilt windows can derive
	// spurious emissions (different interval opens, pairings the full
	// windows never allowed), which are suppressed and counted instead.
	replayMu       sync.Mutex
	known          map[string]struct{} //stcps:guardedby replayMu
	replayNew      []event.Instance    //stcps:guardedby replayMu
	replayComplete bool                //stcps:guardedby replayMu

	// Sticky first error from noteHookErr, surfaced by Shutdown.
	errMu   sync.Mutex
	hookErr error //stcps:guardedby errMu

	replayedRecords    atomic.Uint64
	reoffered          atomic.Uint64
	recoveredInstances atomic.Uint64
	replayEmissions    atomic.Uint64
	replaySuppressed   atomic.Uint64
	walErrors          atomic.Uint64
}

// newDurability opens the WAL for cfg.
func newDurability(cfg DurabilityConfig) (*durability, error) {
	policy, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l, err := wal.Open(wal.Options{
		Dir:          cfg.Dir,
		Fsync:        policy,
		FsyncEvery:   cfg.FsyncEvery,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	d := &durability{log: l, cfg: cfg, agedOnly: true}
	d.maxTick.Store(math.MinInt64)
	return d, nil
}

// noteSpec folds one declared detector spec into the compaction horizon.
func (d *durability) noteSpec(roles []Role) {
	for _, r := range roles {
		if r.MaxAge <= 0 {
			d.agedOnly = false
		} else if r.MaxAge > d.maxRoleAge {
			d.maxRoleAge = r.MaxAge
		}
	}
}

// horizon is the tick below which no ingest record can still matter to a
// detection window. math.MinInt64 (keep everything) when any role has an
// unbounded window age.
func (d *durability) horizon() Tick {
	max := Tick(d.maxTick.Load())
	if !d.agedOnly || d.maxRoleAge <= 0 || !d.sawTick.Load() {
		return math.MinInt64
	}
	h := max - d.maxRoleAge
	if h > max { // underflow
		return math.MinInt64
	}
	return h
}

// noteTick advances the compaction clock.
func (d *durability) noteTick(now Tick) {
	if Tick(d.maxTick.Load()) < now {
		d.maxTick.Store(int64(now))
	}
	d.sawTick.Store(true)
}

// noteHookErr records a durability failure that has no caller to return
// to (see DurabilityStats.WALErrors); Shutdown returns the first one.
func (d *durability) noteHookErr(err error) {
	d.walErrors.Add(1)
	d.errMu.Lock()
	if d.hookErr == nil {
		d.hookErr = err
	}
	d.errMu.Unlock()
}

// takeHookErr returns (and clears) the sticky hook error.
func (d *durability) takeHookErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	err := d.hookErr
	d.hookErr = nil
	return err
}

// appendIngest writes one ingested entity to the WAL before it reaches
// the detectors.
func (e *Engine) appendIngest(source string, ent Entity, conf float64, now Tick) error {
	rec := wal.Record{Source: source, Conf: conf, Now: now}
	switch v := ent.(type) {
	case event.Observation:
		rec.Kind = wal.KindObservation
		rec.Observation = &v
	case event.Instance:
		rec.Kind = wal.KindIngest
		rec.Instance = &v
	default:
		return fmt.Errorf("%T: %w", ent, ErrNotDurable)
	}
	if _, err := e.dur.log.Append(rec); err != nil {
		return err
	}
	e.dur.recordsSinceSnap.Add(1)
	return nil
}

// appendEmit writes one emitted instance to the WAL (ahead of the store,
// which is rebuilt from the WAL on recovery anyway).
func (e *Engine) appendEmit(in event.Instance) {
	if _, err := e.dur.log.Append(wal.Record{Kind: wal.KindEmit, Instance: &in}); err != nil {
		e.dur.noteHookErr(err)
		return
	}
	e.dur.recordsSinceSnap.Add(1)
}

// replayEmission handles an instance the detectors re-derived while the
// WAL replays. Duplicates of emissions already on durable storage are
// dropped. Over a complete WAL, an unknown re-derivation is an emission
// the crash outran (ingested and logged, crashed before the emit
// record): it is logged into the store now and appended to the WAL
// after the replay, with its sequence number exactly reproducing the
// uninterrupted run's. Over compaction-shortened history the rebuilt
// windows are approximate and an unknown re-derivation may be spurious
// — it is suppressed (and counted), never guessed into the store.
func (e *Engine) replayEmission(in event.Instance) {
	key := in.ContentKey()
	d := e.dur
	d.replayMu.Lock()
	if _, dup := d.known[key]; dup {
		d.replayMu.Unlock()
		return
	}
	d.known[key] = struct{}{}
	if !d.replayComplete {
		d.replayMu.Unlock()
		d.replaySuppressed.Add(1)
		return
	}
	d.replayNew = append(d.replayNew, in)
	d.replayMu.Unlock()
	d.replayEmissions.Add(1)
	_ = e.store.Log(in)
}

// recover replays the durable state into the engine: the latest
// snapshot and the WAL's emitted instances into the store, and the WAL's
// ingested entities back into the detectors (with re-derived emissions
// deduplicated by content), then seeds the detectors' sequence counters
// past every recovered instance.
//
//stcps:replay
func (e *Engine) recover() error {
	d := e.dur

	// A failed recovery (e.g. an I/O error mid-replay) must be cleanly
	// retryable: reset every counter and buffer the passes below build
	// up. Store writes are idempotent, so re-replaying is safe.
	d.replayedRecords.Store(0)
	d.reoffered.Store(0)
	d.recoveredInstances.Store(0)
	d.replayEmissions.Store(0)
	d.replaySuppressed.Store(0)
	d.replayMu.Lock()
	d.replayNew = nil
	d.replayMu.Unlock()

	// 1. Scan the snapshot's records, then the WAL's emit records:
	// remember every known emission, and restore the snapshot plus the
	// emitted-instance tail the snapshot does not cover (Seq 0 marks a
	// snapshot record). Only emit payloads are decoded; the scan
	// streams, so recovery memory scales with the emission count (one
	// known-key per emission), not with the full ingest history.
	snapSeq := d.log.Stats().SnapshotSeq
	d.known = make(map[string]struct{})
	maxSeq := make(map[string]uint64)
	// Emitted instances land in the store through the batched write path,
	// a page at a time; per-batch retention enforcement converges on the
	// same live set as per-instance, so replay is equivalent but cheaper.
	const replayBatch = 512
	page := make([]event.Instance, 0, replayBatch)
	flush := func() error {
		if len(page) == 0 {
			return nil
		}
		_, _, err := e.store.LogBatch(page)
		page = page[:0]
		return err
	}
	err := d.log.Replay([]wal.Kind{wal.KindEmit}, func(rec wal.Record) error {
		if rec.Seq > 0 {
			d.replayedRecords.Add(1)
		}
		in := rec.Instance
		d.known[in.ContentKey()] = struct{}{} //stcps:ignore guardedby synchronous replay callback; workers have not started yet
		if in.Seq > maxSeq[in.Event] {
			maxSeq[in.Event] = in.Seq
		}
		if rec.Seq == 0 || rec.Seq > snapSeq {
			page = append(page, *in)
			if len(page) >= replayBatch {
				return flush()
			}
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return err
	}
	d.recoveredInstances.Store(uint64(e.store.Len()))
	d.replayComplete = d.log.Complete()

	// 2. Second streaming pass, decoding only the ingest records:
	// re-offer the logged entities in their original order so the
	// detector windows (and any open interval state) rebuild exactly;
	// re-derived emissions route through replayEmission, which buffers
	// only the (rare) crash-outran ones.
	if e.sharded != nil {
		// Tolerate ErrStarted: a retried recovery finds the workers
		// already running from the failed attempt.
		if err := e.sharded.Start(); err != nil && !errors.Is(err, engine.ErrStarted) {
			return err
		}
	}
	e.replaying.Store(true)
	err = d.log.Replay([]wal.Kind{wal.KindObservation, wal.KindIngest}, func(rec wal.Record) error {
		d.replayedRecords.Add(1)
		var ent Entity
		if rec.Kind == wal.KindIngest {
			ent = *rec.Instance
		} else {
			ent = *rec.Observation
		}
		d.noteTick(rec.Now)
		if _, err := e.offer(rec.Source, ent, rec.Conf, rec.Now); err != nil {
			return err
		}
		d.reoffered.Add(1)
		return nil
	})
	if e.sharded != nil {
		e.sharded.Drain()
	}
	e.replaying.Store(false)
	if err != nil {
		return err
	}

	// 3. Emissions the crash outran are now in the store; land them in
	// the WAL too so a second crash cannot lose them, and deliver them
	// to OnInstance — the WAL's Log-before-Emit hook ordering proves an
	// emission absent from the WAL was never delivered, so this is the
	// first (and only) delivery, not a duplicate.
	d.replayMu.Lock()
	fresh := d.replayNew
	d.replayNew = nil
	d.known = nil
	d.replayMu.Unlock()
	for i := range fresh {
		if in := fresh[i]; in.Seq > maxSeq[in.Event] {
			maxSeq[in.Event] = in.Seq
		}
		if _, err := d.log.Append(wal.Record{Kind: wal.KindEmit, Instance: &fresh[i]}); err != nil {
			return err
		}
		if e.cfg.OnInstance != nil {
			e.cfg.OnInstance(fresh[i])
		}
		// Subscribers registered before Start see the crash-outran
		// emissions too — like OnInstance, this is their first delivery.
		if seq, ok := e.store.SeqOf(fresh[i].EntityID()); ok {
			e.subs.Publish(&fresh[i], seq, true)
		}
	}

	// 4. Seed the sequence counters: when compaction has dropped ingest
	// history, the replay alone may leave a counter short of instances
	// already on durable storage; never reissue their entity ids.
	for ev, seq := range maxSeq {
		if e.sharded != nil {
			e.sharded.SeedEventSeq(ev, seq)
		} else {
			e.bank.SeedEventSeq(ev, seq)
		}
	}
	if err := d.takeHookErr(); err != nil {
		return err
	}
	d.recovered = true
	return nil
}

// maybeSnapshot writes a snapshot when enough WAL records accumulated
// since the last one. Runs on the producer goroutine.
func (e *Engine) maybeSnapshot() error {
	d := e.dur
	if d.cfg.SnapshotEvery <= 0 || d.recordsSinceSnap.Load() < uint64(d.cfg.SnapshotEvery) {
		return nil
	}
	return e.snapshotNow()
}

// snapshotNow drains in-flight detection work, snapshots the store into
// the WAL directory and compacts covered segments.
//
// With a cold tier attached, the evicted-but-unspilled backlog is
// flushed to segments first. That keeps two invariants: nothing falls
// between the tiers (the backlog is in neither the snapshot nor, after
// compaction, the WAL), and the surviving segments end exactly at the
// seq where the snapshot's instances begin, so recovery re-attaches a
// seamless cursor space. A failed flush aborts the snapshot — the WAL
// keeps covering the backlog and the next snapshot retries.
func (e *Engine) snapshotNow() error {
	d := e.dur
	if e.sharded != nil {
		e.sharded.Drain()
	}
	if err := e.store.FlushCold(); err != nil {
		return err
	}
	d.recordsSinceSnap.Store(0)
	return d.log.Snapshot(e.store.Snapshot, d.horizon())
}

// Shutdown flushes open interval detections at virtual time now (like
// Close), then — for durable engines — writes a final snapshot, syncs
// and closes the WAL. It returns the flushed instances and the first
// durability error encountered. After Shutdown the engine cannot
// ingest; repeated Shutdown (or Shutdown after Close) is a clean no-op.
func (e *Engine) Shutdown(now Tick) ([]Instance, error) {
	insts := e.Flush(now)
	var err error
	if e.dur == nil {
		if e.cold != nil {
			// Persist the evicted backlog; live hot instances are lost by
			// the non-durable contract.
			err = e.store.FlushCold()
			if cerr := e.cold.Close(); err == nil {
				err = cerr
			}
		}
		return insts, err
	}
	if e.dur.recovered {
		if err = e.snapshotNow(); errors.Is(err, wal.ErrClosed) {
			err = nil
		}
	}
	if herr := e.dur.takeHookErr(); err == nil {
		err = herr
	}
	if cerr := e.dur.log.Close(); err == nil {
		err = cerr
	}
	if serr := e.dur.log.Err(); err == nil {
		// A background fsync failed at some point: the WAL may be
		// missing acknowledged records even though everything since
		// succeeded.
		err = serr
	}
	if e.cold != nil {
		if cerr := e.cold.Close(); err == nil {
			err = cerr
		}
	}
	return insts, err
}

// DurabilityStats returns the WAL and recovery counters (zero value
// when the engine runs without durability).
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	d := e.dur
	out := DurabilityStats{
		Enabled:            true,
		WALStats:           d.log.Stats(),
		ReplayedRecords:    d.replayedRecords.Load(),
		ReofferedEntities:  d.reoffered.Load(),
		RecoveredInstances: d.recoveredInstances.Load(),
		ReplayEmissions:    d.replayEmissions.Load(),
		ReplaySuppressed:   d.replaySuppressed.Load(),
		WALErrors:          d.walErrors.Load(),
		HasTick:            d.sawTick.Load(),
	}
	if out.HasTick {
		out.LastTick = Tick(d.maxTick.Load())
	}
	return out
}
