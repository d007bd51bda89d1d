package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stcps/stcps/internal/cluster/hlc"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/timemodel"
)

// Hooks connect a Coordinator to its node's local engine. All hooks
// are required.
type Hooks struct {
	// Guard serializes fn against the node's other ingest paths and
	// teardown (stcpsd's offer guard). open=false reports teardown —
	// fn was not run. The coordinator never performs network waits
	// inside Guard; see docs/cluster.md for the deadlock argument.
	Guard func(fn func() error) (open bool, err error)
	// Apply ingests one record into the local engine and returns the
	// instances it emitted. Called only inside Guard. It must fail only
	// when nothing was applied: a failed record's redelivery is applied.
	Apply func(source string, ent event.Entity, conf float64, now timemodel.Tick) ([]event.Instance, error)
	// SeqOf resolves an emitted instance's store sequence number, for
	// the stamp sidecar. Called only inside Guard, right after the
	// Apply that emitted the instance.
	SeqOf func(in *event.Instance) (uint64, bool)
	// Query pages the local store (engine QueryST). Required on nodes
	// that serve partition pages; LocalPage fails without it.
	Query func(spec db.QuerySpec) (db.Result, error)
}

// Coordinator is a cluster node's ingest data plane: it stamps,
// routes, applies, forwards and replicates every record the node
// ingests — from external wire clients, from peers (forward and
// replica hops), and from the daemon's stdin feed.
type Coordinator struct {
	cfg    Config
	m      *Membership
	router *Router
	clock  *hlc.Clock
	stamps *StampIndex
	dedup  *Dedup
	hooks  Hooks
	links  []*link // indexed by node; nil at Self

	// oseq is the next dense per-partition sequence for records this
	// node originates — the cluster-wide dedup identity (Self, p,
	// oseq).
	oseqMu sync.Mutex
	oseq   []uint64 //stcps:guardedby oseqMu

	// frontier is the max HLC stamp this node has applied.
	frontier atomic.Uint64

	stats struct {
		applied    atomic.Uint64 // records applied locally
		forwarded  atomic.Uint64 // records forwarded to an owner
		replicated atomic.Uint64 // replica-hop records sent to followers
		received   atomic.Uint64 // enveloped records received from peers
		duplicates atomic.Uint64 // records dropped by dedup
		reroutes   atomic.Uint64 // forward retries after a link failure
	}

	closeOnce sync.Once
}

// Node bundles one process's cluster runtime.
type Node struct {
	Cfg        Config
	Membership *Membership
	Router     *Router
	Clock      *hlc.Clock
	Stamps     *StampIndex
	Coord      *Coordinator
}

// New validates cfg, fills its defaults and assembles the cluster
// runtime: membership (probes not yet started — call
// Membership.Start), router, clock, stamp sidecar and coordinator.
// probe may be nil for the default wire-handshake probe.
func New(cfg Config, probe ProbeFunc, h Hooks) (*Node, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if h.Guard == nil || h.Apply == nil || h.SeqOf == nil {
		return nil, fmt.Errorf("%w: missing engine hooks", ErrConfig)
	}
	m := NewMembership(cfg, probe)
	r := NewRouter(cfg, m)
	co := &Coordinator{
		cfg:    cfg,
		m:      m,
		router: r,
		clock:  &hlc.Clock{},
		stamps: &StampIndex{},
		dedup:  NewDedup(),
		hooks:  h,
		links:  make([]*link, len(cfg.Nodes)),
		oseq:   make([]uint64, len(cfg.Nodes)),
	}
	for i, spec := range cfg.Nodes {
		if i == cfg.Self {
			continue
		}
		co.links[i] = newLink(i, spec, cfg.LinkRetry)
	}
	return &Node{Cfg: cfg, Membership: m, Router: r, Clock: co.clock, Stamps: co.stamps, Coord: co}, nil
}

// Close tears the coordinator down: every link fails its queued and
// future ops with ErrShutdown. Idempotent.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		for _, l := range co.links {
			if l != nil {
				l.close()
			}
		}
	})
}

// Frontier returns the max HLC stamp this node has applied.
func (co *Coordinator) Frontier() hlc.Stamp { return hlc.Stamp(co.frontier.Load()) }

// nextOseq reserves the next dense origin sequence for partition p.
func (co *Coordinator) nextOseq(p int) uint64 {
	co.oseqMu.Lock()
	defer co.oseqMu.Unlock()
	s := co.oseq[p]
	co.oseq[p]++
	return s
}

// localItem is one record destined for the local engine.
type localItem struct {
	source string
	ent    event.Entity
	conf   float64
	now    timemodel.Tick
	f      frame.Forward
	p      int
	// repl marks records this node applies as owner, which must
	// onward-replicate to the partition's followers. Replica hops
	// apply without further fan-out — that termination is what makes
	// ack-waiting deadlock-free.
	repl bool
	out  outRec // materialized copy, valid past the batch (repl only)
}

// fwdItem is one record destined for a remote owner.
type fwdItem struct {
	out outRec
	p   int
}

// OfferBatch routes one decoded wire batch through the cluster: stamp
// unwrapped records, apply what this node owns (and what arrives as
// forward/replica hops), forward the rest, replicate owned applies to
// followers, and return once every hop is acknowledged — the caller's
// wire ack then means the batch is applied on its owner and R
// followers.
func (co *Coordinator) OfferBatch(b *frame.Batch) error {
	var locals []localItem
	var fwds []fwdItem
	for i := 0; i < b.Len(); i++ {
		ent := b.Entity(i)
		now := b.Now(i)
		p := co.router.PartitionOf(ent.OccLoc())
		f, wrapped := b.Forwarded(i)
		if wrapped {
			// A peer hop: the envelope is authoritative. Merge the
			// remote stamp into our clock, then apply; non-replica
			// hops mean the sender elected us owner, so we also
			// onward-replicate.
			co.clock.Observe(hlc.Stamp(f.Stamp), now)
			co.stats.received.Add(1)
			it := localItem{
				source: b.Source(i), ent: ent, conf: b.Conf(i), now: now,
				f: f, p: p, repl: !f.Replica,
			}
			if it.repl {
				it.out = materialize(b, i, f)
			}
			locals = append(locals, it)
			continue
		}
		// An unwrapped record: this node is its origin. Stamp it and
		// assign its dense per-partition sequence — the identity every
		// later hop dedups on.
		f = frame.Forward{
			Origin: co.cfg.Self,
			Stamp:  uint64(co.clock.Now(now)),
			Seq:    co.nextOseq(p),
		}
		if owner, ok := co.router.ActingOwner(p); ok && owner == co.cfg.Self {
			locals = append(locals, localItem{
				source: b.Source(i), ent: ent, conf: b.Conf(i), now: now,
				f: f, p: p, repl: true, out: materialize(b, i, f),
			})
			continue
		}
		// Remote-owned (or currently ownerless — forwardAll retries
		// those until an owner appears or ForwardTimeout expires).
		fwds = append(fwds, fwdItem{out: materialize(b, i, f), p: p})
	}

	ops, err := co.applyLocal(locals)
	if err != nil {
		return err
	}
	if err := co.forwardAll(fwds); err != nil {
		return err
	}
	return co.waitRepl(ops)
}

// OfferEntity routes one locally-originated record (the daemon's stdin
// feed) through the same stamp/apply/forward/replicate path as wire
// batches.
func (co *Coordinator) OfferEntity(source string, ent event.Entity, conf float64, now timemodel.Tick) error {
	p := co.router.PartitionOf(ent.OccLoc())
	f := frame.Forward{
		Origin: co.cfg.Self,
		Stamp:  uint64(co.clock.Now(now)),
		Seq:    co.nextOseq(p),
	}
	out, err := materializeEntity(ent, f)
	if err != nil {
		return err
	}
	if owner, ok := co.router.ActingOwner(p); ok && owner == co.cfg.Self {
		ops, err := co.applyLocal([]localItem{{
			source: source, ent: ent, conf: conf, now: now,
			f: f, p: p, repl: true, out: out,
		}})
		if err != nil {
			return err
		}
		return co.waitRepl(ops)
	}
	return co.forwardAll([]fwdItem{{out: out, p: p}})
}

// replOp pairs an in-flight replication delivery with its follower.
type replOp struct {
	dest int
	op   *sendOp
}

// applyLocal applies items to the local engine under one Guard
// acquisition, recording stamps and enqueueing onward replication
// inside the guard — enqueue order is the engine's apply order, which
// is what keeps follower replicas byte-identical. It returns the
// replication ops to wait on after the guard is released.
func (co *Coordinator) applyLocal(items []localItem) ([]replOp, error) {
	if len(items) == 0 {
		return nil, nil
	}
	// Replication targets are per (partition, follower); records
	// group into per-link runs in apply order.
	repl := make(map[int][]outRec)
	open, err := co.hooks.Guard(func() error {
		for i := range items {
			it := &items[i]
			if co.dedup.Seen(it.p, it.f.Origin, it.f.Seq) {
				co.stats.duplicates.Add(1)
				continue
			}
			outs, err := co.hooks.Apply(it.source, it.ent, it.conf, it.now)
			if err != nil {
				return err // not admitted: a redelivery applies it
			}
			co.dedup.Admit(it.p, it.f.Origin, it.f.Seq)
			co.stats.applied.Add(1)
			co.noteApplied(hlc.Stamp(it.f.Stamp))
			for j := range outs {
				if seq, ok := co.hooks.SeqOf(&outs[j]); ok {
					co.stamps.Record(seq, hlc.Stamp(it.f.Stamp), it.p)
				}
			}
			if it.repl {
				r := it.out
				r.f.Replica = true
				for _, fo := range co.router.Followers(it.p, co.cfg.Self) {
					repl[fo] = append(repl[fo], r)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !open {
		return nil, ErrShutdown
	}
	var ops []replOp
	for dest, recs := range repl {
		co.stats.replicated.Add(uint64(len(recs)))
		ops = append(ops, replOp{dest: dest, op: co.links[dest].enqueue(recs)})
	}
	return ops, nil
}

// noteApplied advances the applied-stamp frontier.
func (co *Coordinator) noteApplied(s hlc.Stamp) {
	for {
		cur := co.frontier.Load()
		if uint64(s) <= cur || co.frontier.CompareAndSwap(cur, uint64(s)) {
			return
		}
	}
}

// waitRepl blocks until every replication delivery completes. A
// failed delivery demotes the follower (first-hand evidence beats
// waiting for the next probe) and the batch proceeds without it: the
// chain trades replica count for availability, and the demoted
// follower rejoins replication — with a durability gap, there is no
// anti-entropy yet — once probes mark it alive again. Only shutdown
// propagates as an error.
func (co *Coordinator) waitRepl(ops []replOp) error {
	for _, ro := range ops {
		<-ro.op.done
		if ro.op.err == nil {
			continue
		}
		if errors.Is(ro.op.err, ErrShutdown) {
			return ro.op.err
		}
		co.m.ReportFailure(ro.dest)
	}
	return nil
}

// forwardAll delivers remote-owned records, re-routing around link
// failures: a failed delivery marks the owner suspect and retries
// against the then-acting owner (which may have become this node)
// until ForwardTimeout expires.
func (co *Coordinator) forwardAll(items []fwdItem) error {
	if len(items) == 0 {
		return nil
	}
	deadline := time.Now().Add(co.cfg.ForwardTimeout)
	remaining := items
	for {
		// Group the remaining records by their current acting owner,
		// preserving relative order per destination.
		type destGroup struct {
			recs  []outRec
			items []fwdItem
		}
		perDest := make(map[int]*destGroup)
		var mine, unowned []fwdItem
		order := make([]int, 0, 4)
		for _, it := range remaining {
			owner, ok := co.router.ActingOwner(it.p)
			switch {
			case !ok:
				unowned = append(unowned, it)
			case owner == co.cfg.Self:
				mine = append(mine, it)
			default:
				g := perDest[owner]
				if g == nil {
					g = &destGroup{}
					perDest[owner] = g
					order = append(order, owner)
				}
				g.recs = append(g.recs, it.out)
				g.items = append(g.items, it)
			}
		}
		// Records whose partition failed over to us apply locally —
		// the ingress node is an owner like any other chain member.
		if len(mine) > 0 {
			locals := make([]localItem, 0, len(mine))
			for _, it := range mine {
				li := localItem{f: it.out.f, p: it.p, repl: true, out: it.out}
				if it.out.isObs {
					o := it.out.obs
					li.source, li.ent, li.conf, li.now = o.Sensor, o, 1, o.Time.End()
				} else {
					in := it.out.inst
					li.source, li.ent, li.conf, li.now = in.Event, in, in.Confidence, in.Gen
				}
				locals = append(locals, li)
			}
			ops, err := co.applyLocal(locals)
			if err != nil {
				return err
			}
			if err := co.waitRepl(ops); err != nil {
				return err
			}
		}

		failed := unowned
		for _, dest := range order {
			g := perDest[dest]
			op := co.links[dest].enqueue(g.recs)
			<-op.done
			if op.err == nil {
				co.stats.forwarded.Add(uint64(len(g.recs)))
				continue
			}
			if errors.Is(op.err, ErrShutdown) {
				return op.err
			}
			// First-hand failure evidence: demote the peer now so the
			// next routing round (here and on every other conn) fails
			// over instead of re-dialing a corpse. The receiver's
			// dedup window makes the retry safe even when the failed
			// delivery actually arrived and only its ack was lost.
			co.m.ReportFailure(dest)
			co.stats.reroutes.Add(1)
			failed = append(failed, g.items...)
		}
		if len(failed) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d records undeliverable after %v",
				ErrNoOwner, len(failed), co.cfg.ForwardTimeout)
		}
		// Let membership evidence accumulate before the next round.
		time.Sleep(co.cfg.ProbeInterval / 4)
		remaining = failed
	}
}

// materialize copies batch record i into a self-contained outRec.
func materialize(b *frame.Batch, i int, f frame.Forward) outRec {
	if b.Kind(i) == frame.RecObservation {
		return outRec{f: f, isObs: true, obs: b.Observation(i)}
	}
	return outRec{f: f, inst: b.Instance(i)}
}

// materializeEntity converts a locally-fed entity into an outRec.
// Only the two wire record kinds can cross node boundaries.
func materializeEntity(ent event.Entity, f frame.Forward) (outRec, error) {
	switch v := ent.(type) {
	case event.Observation:
		return outRec{f: f, isObs: true, obs: v}, nil
	case *event.Observation:
		return outRec{f: f, isObs: true, obs: *v}, nil
	case event.Instance:
		return outRec{f: f, inst: v}, nil
	case *event.Instance:
		return outRec{f: f, inst: *v}, nil
	}
	return outRec{}, fmt.Errorf("cluster: entity %T cannot cross node boundaries", ent)
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	Applied    uint64 `json:"applied"`
	Forwarded  uint64 `json:"forwarded"`
	Replicated uint64 `json:"replicated"`
	Received   uint64 `json:"received"`
	Duplicates uint64 `json:"duplicates"`
	Reroutes   uint64 `json:"reroutes"`
	// DedupPending is the number of out-of-order sequences held in
	// receiver windows right now.
	DedupPending int `json:"dedup_pending"`
}

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	return Stats{
		Applied:      co.stats.applied.Load(),
		Forwarded:    co.stats.forwarded.Load(),
		Replicated:   co.stats.replicated.Load(),
		Received:     co.stats.received.Load(),
		Duplicates:   co.stats.duplicates.Load(),
		Reroutes:     co.stats.reroutes.Load(),
		DedupPending: co.dedup.Pending(),
	}
}
