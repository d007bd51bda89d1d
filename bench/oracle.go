package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"path/filepath"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
)

// observer is the id stcpsd stamps on instances by default; the
// reference and the replica must match it to be byte-identical.
const observer = "stcpsd"

// deliveryKey identifies one expected SSE delivery.
type deliveryKey struct {
	Event string
	Seq   uint64
}

// reference is what a synchronous in-process stcps.Engine, configured
// like the daemon, makes of the same records: the counts the daemon's
// /v1/stats and summary line must equal, the deliveries its subscriber
// must see, and the hash its quiesced cursor walk must produce.
type reference struct {
	Ingested   uint64
	Emitted    uint64
	StoreTotal uint64 // store.instances + store.evicted
	Delivered  uint64
	Deliveries []deliveryKey
	WalkHash   string
	WalkCount  int
	// HeadHash covers the JSON of every instance emitted by the first
	// headN records — the traced replica's byte-identity target.
	HeadHash string
	HeadN    int
	HeadEmit uint64
}

// newReferenceEngine builds a stcps.Engine that mirrors the daemon's
// flags: same observer, store retention and cold tier. The WAL is left
// out — it changes what survives a crash, not what is detected.
func newReferenceEngine(w *Workload, tmp string, onInstance func(stcps.Instance)) (*stcps.Engine, error) {
	cfg := stcps.EngineConfig{
		Observer:    observer,
		Loc:         stcps.AtPoint(0, 0),
		WithStore:   true,
		DBRetention: stcps.Retention{MaxInstances: w.Daemon.DBMaxInstances},
		OnInstance:  onInstance,
	}
	if w.Daemon.Spill {
		cfg.Spill = stcps.SpillConfig{Dir: filepath.Join(tmp, "ref-spill"), NoSync: true}
	}
	eng, err := stcps.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, ev := range events(w.Stream.Kind) {
		spec := stcps.EventSpec{ID: ev.ID, When: ev.When}
		for _, r := range ev.Roles {
			spec.Roles = append(spec.Roles, stcps.Role{Name: r.Name, Source: r.Source, Window: r.Window, MaxAge: stcps.Tick(r.MaxAge)})
		}
		if err := eng.Detect(stcps.LayerSensor, spec); err != nil {
			return nil, err
		}
	}
	return eng, eng.Start()
}

// instanceHasher accumulates the canonical JSON of instances.
type instanceHasher struct {
	h hash.Hash
	n int
}

func newInstanceHasher() *instanceHasher { return &instanceHasher{h: sha256.New()} }

func (ih *instanceHasher) add(in stcps.Instance) error {
	data, err := event.EncodeInstance(in)
	if err != nil {
		return err
	}
	ih.write(append(data, '\n'))
	return nil
}

// write adds one already encoded, newline-terminated instance.
func (ih *instanceHasher) write(line []byte) {
	ih.h.Write(line)
	ih.n++
}

func (ih *instanceHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }

// querySpec resolves a QueryCfg against the first tick of the window.
func (q QueryCfg) querySpec(winStart int) (stcps.QuerySpec, error) {
	spec := stcps.QuerySpec{Event: q.Event, Limit: q.Limit}
	region, err := q.Region.region()
	if err != nil {
		return spec, err
	}
	spec.Region = region
	if q.HasWindow {
		from, to := q.tickRange(winStart)
		spec.Window = &stcps.TimeWindow{From: stcps.Tick(from), To: stcps.Tick(to)}
	}
	switch q.Tier {
	case "hot":
		spec.Tier = stcps.TierHot
	case "cold":
		spec.Tier = stcps.TierCold
	}
	return spec, nil
}

// tickRange resolves From/To: negative values count back from the
// window's first tick, a zero To is unbounded.
func (q QueryCfg) tickRange(winStart int) (from, to int64) {
	from, to = q.From, q.To
	if from < 0 {
		from += int64(winStart)
	}
	if to < 0 {
		to += int64(winStart)
	}
	if to == 0 {
		to = math.MaxInt64
	}
	return from, to
}

// runReference feeds records [0,total) through the reference engine.
// subFrom is the record index at which the daemon's subscriber attaches.
func runReference(w *Workload, s *stream, tmp string, total, subFrom, winStart, headN int) (*reference, error) {
	ref := &reference{HeadN: headN}
	head := newInstanceHasher()
	var hashErr error
	inHead := true
	eng, err := newReferenceEngine(w, tmp, func(in stcps.Instance) {
		ref.Emitted++
		if inHead {
			if err := head.add(in); err != nil && hashErr == nil {
				hashErr = err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	region, err := w.Subscribe.region()
	if err != nil {
		return nil, err
	}
	var sub *stcps.Subscription
	drain := func() error {
		for sub != nil {
			d, ok, err := sub.Poll()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			ref.Deliveries = append(ref.Deliveries, deliveryKey{d.Inst.Event, d.Inst.Seq})
		}
		return nil
	}
	// The reference ingests what the daemon's wire path ingests: entities
	// decoded from wire batches — zero-copy views, or materialized
	// observations when the workload has a WAL — because the detectors
	// treat the two forms differently (see README, "Findings").
	var bw frame.BatchWriter
	var batch frame.Batch
	var o stcps.Observation
	it := event.NewInterner()
	for from := 0; from < total; from += frame.DefaultBatchRecords {
		to := min(from+frame.DefaultBatchRecords, total)
		for i := from; i < to; i++ {
			s.at(i, &o)
			bw.AddObservation(&o)
		}
		payload, _ := bw.Take(nil) // fresh: a zero-copy batch owns its payload
		if err := frame.DecodeBatch(payload, w.Daemon.WAL, it, &batch); err != nil {
			return nil, err
		}
		for j := 0; j < batch.Len(); j++ {
			i := from + j
			if i == subFrom {
				if sub, err = eng.Subscribe(stcps.SubscriptionSpec{Region: region, Buffer: 1 << 16}); err != nil {
					return nil, err
				}
			}
			if i == headN {
				inHead = false
				ref.HeadEmit = ref.Emitted
			}
			if _, err := eng.Ingest(batch.Source(j), batch.Entity(j), batch.Conf(j), batch.Now(j)); err != nil {
				return nil, fmt.Errorf("reference ingest %d: %w", i, err)
			}
			if err := drain(); err != nil {
				return nil, err
			}
		}
	}
	if total <= headN {
		ref.HeadEmit = ref.Emitted
	}
	if hashErr != nil {
		return nil, hashErr
	}
	ref.HeadHash = head.sum()
	ref.Ingested = uint64(total)
	st := eng.StoreStats()
	ref.StoreTotal = uint64(st.Instances) + st.Evicted
	ref.Delivered = eng.SubscriptionStats().Delivered

	spec, err := w.Walk.querySpec(winStart)
	if err != nil {
		return nil, err
	}
	walk := newInstanceHasher()
	for {
		res, err := eng.QueryST(spec)
		if err != nil {
			return nil, fmt.Errorf("reference walk: %w", err)
		}
		for _, in := range res.Instances {
			if err := walk.add(in); err != nil {
				return nil, err
			}
		}
		if res.NextCursor == "" {
			break
		}
		spec.Cursor = res.NextCursor
	}
	ref.WalkHash, ref.WalkCount = walk.sum(), walk.n
	if _, err := eng.Shutdown(stcps.Tick(total)); err != nil {
		return nil, err
	}
	return ref, nil
}
