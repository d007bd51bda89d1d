package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/metrics"
	"github.com/stcps/stcps/internal/wal"
	"github.com/stcps/stcps/wireclient"
)

// result is one workload's run: what the driver reads and what
// -compare compares.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Warm     int     `json:"warm"`
	N        int     `json:"n"`
	Probe    int     `json:"probe"`
	// DaemonFlags is the command line below -events/-tcp/-http.
	DaemonFlags []string `json:"daemon_flags"`
	// WindowS is how long the timed window lasted.
	WindowS  float64            `json:"window_s"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Samples holds the sample count behind each percentile family.
	Samples map[string]int `json:"samples"`
	// Attempted and Failed count operations: records sent, pages
	// fetched, deliveries expected, counts compared.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// FailedOpsShare is Failed/Attempted; anything above 0 is a defect.
	FailedOpsShare float64 `json:"failed_ops_share"`
	// Mismatches names every check that failed, with the field that
	// differed.
	Mismatches []string `json:"mismatches,omitempty"`
	// Invalid lists reasons the run's numbers must not be used (late
	// generator, generator-bound run, closure out of range); it does
	// not count as a daemon failure.
	Invalid []string `json:"invalid,omitempty"`
	// Counts are the reference's exact counts, pinned in golden.json for
	// seed 1.
	Counts goldenCounts `json:"counts"`
	// GoldenPinned reports whether golden.json pins this (workload,
	// seed, size), i.e. whether Counts were compared against it.
	GoldenPinned bool `json:"golden_pinned"`
	// Stages lists the ingest stages by self time, largest first.
	Stages []stageRow `json:"stages,omitempty"`
}

type stageRow struct {
	Name     string  `json:"name"`
	NsPerObs float64 `json:"ns_per_obs"`
}

// tally accumulates attempted/failed operations and named mismatches.
type tally struct {
	attempted, failed int
	mismatches        []string
}

func (t *tally) ops(attempted, failed int, what string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 {
		t.mismatches = append(t.mismatches, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// equal is one compared count; a difference is one failed operation.
func (t *tally) equal(field string, got, want any) {
	t.attempted++
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.failed++
		t.mismatches = append(t.mismatches, fmt.Sprintf("%s: daemon %v, reference %v", field, got, want))
	}
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.mismatches = append(t.mismatches, fmt.Sprintf(format, args...))
}

// percentile is the p-th percentile (0–100) of the samples by the
// nearest-rank rule; 0 when there are none. The samples need not be
// sorted and are left as they are.
func percentile(samples []float64, p float64) float64 {
	var h metrics.Histogram
	for _, v := range samples {
		h.Add(v)
	}
	return h.Percentile(p)
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// steadyPercentile is the p-th percentile of a quiet stretch of the run:
// the samples, in arrival order, are cut into sixteen consecutive chunks
// and the lower quartile of the chunks' percentiles is reported. On a
// shared box interference only ever adds latency — a GC cycle, an
// fsync under the WAL lock, a descheduled thread each stall one
// stretch — so pooled, those stretches decide p90 and it swings 2×
// between runs of the same commit; the quiet-stretch percentile moves
// when the code's own cost moves. The pooled tails are reported beside
// it as tail.* metrics. Below 320 samples it is the pooled percentile.
func steadyPercentile(inOrder []float64, p float64) float64 {
	const chunks = 16
	if len(inOrder) < 20*chunks {
		return percentile(inOrder, p)
	}
	ps := make([]float64, chunks)
	for c := range ps {
		ps[c] = percentile(inOrder[c*len(inOrder)/chunks:(c+1)*len(inOrder)/chunks], p)
	}
	return percentile(ps, 25)
}

// env is what every run of one invocation shares.
type env struct {
	bin    string // the built stcpsd
	outDir string // bench/out: temp dirs, traces, result files
	// walkSamples is how many timed pages the quiesced walk collects
	// (the walk repeats until it has them).
	walkSamples int
}

// wrun is one workload's execution: set-up, timed window, quiesced
// epilogue (probe, counts, cursor walk), shutdown and restarts.
type wrun struct {
	e   *env
	w   *Workload
	s   *stream
	ref *reference

	warm, n, probe int // records per phase; the window starts at tick `warm`
	tmp            string
	evPath         string
	flags          []string

	t   tally
	res *result
	m   map[string]float64 // end-to-end metrics
	pl  map[string]float64 // per-layer metrics
}

func (r *wrun) total() int { return r.warm + r.n + r.probe }

// runWorkload executes one workload end to end and fills every
// end-to-end metric and the counter-sourced per-layer metrics; with
// trace set it adds the traced run.
func (e *env) runWorkload(w *Workload, seed uint64, seconds float64, trace bool) (*result, error) {
	r := &wrun{e: e, w: w, m: map[string]float64{}, pl: map[string]float64{}}
	r.warm, r.n, r.probe = w.sizes(seconds)
	r.res = &result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Warm: r.warm, N: r.n, Probe: r.probe,
		DaemonFlags: w.Daemon.flags("<tmp>"),
		EndToEnd:    r.m, PerLayer: r.pl, Samples: map[string]int{},
	}
	for _, def := range perLayer {
		r.pl[def.Name] = 0 // every per-layer metric is reported, 0 where a workload has no such layer
	}
	var err error
	if r.tmp, err = os.MkdirTemp(e.outDir, "run-"+w.Name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)

	// Everything the clock must not see: records, reference, events file.
	r.s = generate(w.Stream, seed, r.total())
	subFrom := r.warm + r.n
	if w.Load.SSE {
		subFrom = 0
	}
	headN := min(traceRecords, r.total())
	if r.ref, err = runReference(w, r.s, r.tmp, r.total(), subFrom, r.warm, headN); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	// The reference's engine and store are garbage now; collect them
	// before the daemon starts so the harness does not mark a large heap
	// beside the system under test.
	runtime.GC()
	r.evPath = filepath.Join(r.tmp, "events.json")
	evData, err := json.Marshal(events(w.Stream.Kind))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(r.evPath, evData, 0o644); err != nil {
		return nil, err
	}

	preKill, err := r.firstProcess()
	if err != nil {
		return nil, err
	}
	r.restarts(preKill)

	r.res.Counts = goldenCounts{
		Emitted: r.ref.Emitted, StoreTotal: r.ref.StoreTotal, Delivered: r.ref.Delivered,
		WalkCount: r.ref.WalkCount, WalkHash: r.ref.WalkHash,
		PayloadHash: payloadHash(r.s, headN),
	}
	r.res.GoldenPinned = checkGolden(&r.t, w.Name, seed, r.total(), r.res.Counts)

	if trace {
		// What one observation costs the daemon end to end: wall time
		// where the load is closed loop, CPU time where a schedule fixes
		// the throughput.
		perObsNS := 1e9 / r.m["ingest_obs_per_s"]
		if w.Load.Shape == "paced" {
			perObsNS = 1e3 * r.m["daemon_cpu_us_per_obs"]
		}
		if err := e.traceWorkload(w, r.s, r.ref, r.warm, perObsNS, r.pl, r.res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	r.res.Attempted, r.res.Failed, r.res.Mismatches = r.t.attempted, r.t.failed, r.t.mismatches
	r.res.FailedOpsShare = float64(r.t.failed) / float64(max(r.t.attempted, 1))
	return r.res, nil
}

// setUp is everything between exec and the first timed record: spawn →
// listeners → wire handshake → (SSE attach) → warm-up, flat-out. It
// returns how long that took.
func (r *wrun) setUp(flags []string) (d *daemon, c *wireclient.Client, sse *sseReader, seconds float64, err error) {
	t0 := time.Now()
	if d, err = spawn(r.e.bin, r.evPath, flags); err != nil {
		return nil, nil, nil, 0, err
	}
	if c, err = wireclient.Dial(d.wire, wireclient.Options{}); err != nil {
		d.kill()
		return nil, nil, nil, 0, fmt.Errorf("handshake: %w", err)
	}
	if r.w.Load.SSE {
		if sse, err = attachSSE(d, r.w.Subscribe); err != nil {
			_ = c.Close()
			d.kill()
			return nil, nil, nil, 0, err
		}
	}
	if err := withDeadline(d, "warm-up", func() error { return sendFlatout(c, r.s, 0, r.warm, nil) }); err != nil {
		r.t.fail("warm-up: %v", err)
	}
	return d, c, sse, time.Since(t0).Seconds(), nil
}

// firstProcess runs the daemon that ingests: set-up, timed window,
// probe, counts, cursor walk, and its end (SIGTERM, or SIGKILL when
// durable). It returns the store's instance count before the end.
func (r *wrun) firstProcess() (preKill int, err error) {
	// Set-up is repeated on throwaway daemons — up to three times, while
	// it stays under two seconds in total — and the median reported, so
	// that one slow exec or one slow warm-up does not move setup_s. The
	// last daemon set up is the one measured.
	var (
		d      *daemon
		c      *wireclient.Client
		sse    *sseReader
		setups []float64
		total  float64
	)
	for i := 0; ; i++ {
		r.flags = r.w.Daemon.flags(filepath.Join(r.tmp, fmt.Sprintf("daemon%d", i)))
		var dt float64
		if d, c, sse, dt, err = r.setUp(r.flags); err != nil {
			return 0, err
		}
		setups = append(setups, dt)
		if total += dt; len(setups) == 3 || total >= 2 {
			break
		}
		if sse != nil {
			sse.close()
		}
		_ = c.Close()
		d.kill()
	}
	defer d.kill()
	defer c.Close()
	if sse != nil {
		defer sse.close()
	}
	r.m["setup_s"] = median(setups)

	sched, pg, err := r.window(d, c)
	if err != nil {
		return 0, err
	}
	_ = c.Close() // folds this connection into the daemon's wire stats

	// Where the window carried no subscriber, a paced probe measures
	// detection latency on the quiesced daemon.
	if !r.w.Load.SSE {
		if sse, err = attachSSE(d, r.w.Subscribe); err != nil {
			return 0, err
		}
		defer sse.close()
		if sched, err = r.sendProbe(d, sched); err != nil {
			return 0, err
		}
	}
	r.deliveries(sse, sched)
	return r.verify(d, pg)
}

// window is the timed part: the workload's load shape on the wire and,
// where the workload has queries, the closed-loop pager beside it.
func (r *wrun) window(d *daemon, c *wireclient.Client) (*schedule, *pager, error) {
	w := r.w
	pg := new(pager)
	var pgWG sync.WaitGroup
	stopPager := make(chan struct{})
	if len(w.Queries) > 0 {
		pgWG.Add(1)
		go func() {
			defer pgWG.Done()
			pg.run(d, w.Queries, r.warm, stopPager)
		}()
	}
	sm := newSampler(d, c, r.n)
	var sched *schedule
	tWin := time.Now()
	err := withDeadline(d, "window", func() error {
		if w.Load.Shape == "paced" {
			var err error
			sched, err = sendPaced(c, r.s, r.warm, r.warm+r.n, w.Load.RecordsPerS, w.Load.BurstMs, sm)
			return err
		}
		return sendFlatout(c, r.s, r.warm, r.warm+r.n, sm)
	})
	r.res.WindowS = time.Since(tWin).Seconds()
	close(stopPager)
	pgWG.Wait()
	if err != nil {
		r.t.mismatches = append(r.t.mismatches, fmt.Sprintf("window: %v", err))
	}
	sent := uint64(r.warm + r.n)
	r.t.ops(r.n, int(sent-min(c.Stats().Acked, sent)), "records never acked")
	r.t.ops(pg.pages, pg.failed, "non-200 pages")
	if sm.err != nil {
		return nil, nil, fmt.Errorf("reading /proc: %w", sm.err)
	}
	obsPerS, cpuUS := sm.rates()
	r.m["ingest_obs_per_s"] = median(obsPerS)
	r.m["daemon_cpu_us_per_obs"] = median(cpuUS)
	r.m["daemon_rss_peak_mb"] = sm.rssPeak
	r.res.Samples["window_slices"] = len(obsPerS)
	return sched, pg, nil
}

// sendProbe sends the paced tail over a connection of its own.
func (r *wrun) sendProbe(d *daemon, winSched *schedule) (*schedule, error) {
	pc, err := wireclient.Dial(d.wire, wireclient.Options{})
	if err != nil {
		return nil, fmt.Errorf("probe handshake: %w", err)
	}
	defer pc.Close()
	var sched *schedule
	err = withDeadline(d, "probe", func() error {
		var err error
		sched, err = sendPaced(pc, r.s, r.warm+r.n, r.total(), r.w.Probe.Rate, r.w.Probe.BurstMs, nil)
		return err
	})
	if err != nil {
		r.t.mismatches = append(r.t.mismatches, fmt.Sprintf("probe: %v", err))
	}
	r.t.ops(r.probe, r.probe-int(min(pc.Stats().Acked, uint64(r.probe))), "probe records never acked")
	if sched != nil && winSched != nil && winSched.lateMax > sched.lateMax {
		sched.lateMax = winSched.lateMax // the run's worst lateness, whichever paced phase had it
	}
	return sched, nil
}

// deliveries closes the subscriber, checks what it received against
// the reference and times each delivery from the due time of the burst
// that held the triggering observation to the arrival of its `data:`
// line.
func (r *wrun) deliveries(sse *sseReader, sched *schedule) {
	sse.waitCount(len(r.ref.Deliveries), 5*time.Second)
	evs, gaps, err := sse.close()
	if err != nil {
		r.t.fail("sse stream: %v", err)
	}
	var lat []float64
	got := make(map[deliveryKey]int, len(evs))
	for _, ev := range evs {
		var in stcps.Instance
		if err := json.Unmarshal(ev.data, &in); err != nil {
			r.t.fail("sse delivery: %v", err)
			continue
		}
		got[deliveryKey{in.Event, in.Seq}]++
		if sched != nil && int(in.Gen) >= sched.from {
			lat = append(lat, float64(ev.at.Sub(sched.due(int(in.Gen))).Nanoseconds())/1e3)
		}
	}
	bad := 0
	for _, k := range r.ref.Deliveries {
		if got[k] == 0 {
			bad++ // missing
		} else {
			got[k]--
		}
	}
	for _, extra := range got {
		bad += extra // duplicated or never expected
	}
	r.t.ops(len(r.ref.Deliveries), min(bad, len(r.ref.Deliveries)), "deliveries missing or duplicated")
	r.t.equal("sse.gap_events", gaps, 0)

	r.res.Samples["detect_latency"] = len(lat)
	r.m["detect_latency_p50_us"] = steadyPercentile(lat, 50)
	r.m["detect_latency_p90_us"] = steadyPercentile(lat, 90)
	r.pl["tail.detect_latency_p99_us"] = percentile(lat, 99)
	r.pl["tail.detect_latency_p999_us"] = percentile(lat, 99.9)
	if sched != nil {
		r.pl["gen.late_max_ms"] = float64(sched.lateMax.Nanoseconds()) / 1e6
		if sched.lateMax > 100*time.Millisecond {
			r.res.Invalid = append(r.res.Invalid, fmt.Sprintf("generator ran %.0f ms late: paced numbers invalid, not slow", r.pl["gen.late_max_ms"]))
		}
	}
}

// verify runs on the quiesced daemon: counts against the reference, the
// hashed cursor walk, the page-latency samples, the counter-sourced
// per-layer metrics, and the end of the process.
func (r *wrun) verify(d *daemon, pg *pager) (preKill int, err error) {
	w, ref := r.w, r.ref
	st, err := d.stats()
	if err != nil {
		r.t.fail("/v1/stats: %v", err)
	}
	r.t.equal("ingested", st.Ingested, ref.Ingested)
	r.t.equal("emitted", st.Emitted, ref.Emitted)
	r.t.equal("store.instances+store.evicted", uint64(st.Store.Instances)+st.Store.Evicted, ref.StoreTotal)
	r.t.equal("subscriptions.delivered", st.Subscriptions.Delivered, ref.Delivered)
	r.t.equal("subscriptions.dropped", st.Subscriptions.Dropped, 0)
	if st.Wire != nil {
		r.t.equal("wire.torn", st.Wire.Torn, 0)
	}

	wr, err := walk(d, w.Walk, r.warm, true)
	if err != nil {
		r.t.mismatches = append(r.t.mismatches, err.Error())
	}
	r.t.ops(wr.pages, wr.failed, "non-200 walk pages")
	r.t.equal("walk.hash", wr.hash, ref.WalkHash)
	r.t.equal("walk.instances", wr.count, ref.WalkCount)
	// Without a pager the walk is the page-latency measurement: repeat
	// it, timing only, until the percentiles have samples to stand on.
	for len(w.Queries) == 0 && wr.failed == 0 && len(wr.us) > 0 && len(wr.us) < r.e.walkSamples {
		again, err := walk(d, w.Walk, r.warm, false)
		r.t.ops(again.pages, again.failed, "non-200 walk pages")
		if err != nil {
			r.t.mismatches = append(r.t.mismatches, err.Error())
			break
		}
		wr.us = append(wr.us, again.us...)
	}
	st2, err := d.stats() // after the walk, for the read-plane counters
	if err != nil {
		r.t.fail("/v1/stats: %v", err)
	}

	pageUS := wr.us
	byShape := map[string][]float64{}
	if len(w.Queries) > 0 {
		pageUS = nil
		for _, sm := range pg.samples {
			pageUS = append(pageUS, sm.us)
			name := w.Queries[sm.shape].Name
			byShape[name] = append(byShape[name], sm.us)
		}
	}
	r.res.Samples["query_page"] = len(pageUS)
	r.m["query_page_p50_us"] = steadyPercentile(pageUS, 50)
	// p99 is pooled: its slow population — pages served during a GC
	// cycle — is spread through the run, so a chunked p99 would measure
	// whether a chunk happened to hold a cycle.
	r.m["query_page_p99_us"] = percentile(pageUS, 99)
	r.pl["tail.query_page_p999_us"] = percentile(pageUS, 99.9)
	for _, shape := range []string{"hot", "cold", "region"} {
		r.pl["query."+shape+"_p50_us"] = median(byShape[shape])
	}
	r.counters(st, st2, wr)

	// The end of the first process: SIGTERM with summary and exit status
	// checked, or — durable — two fsync intervals, then SIGKILL.
	if w.Daemon.WAL {
		time.Sleep(2 * wal.DefaultFsyncEvery)
		d.kill()
		return st2.Store.Instances, nil
	}
	sum, err := d.stop()
	if err != nil {
		r.t.fail("SIGTERM: %v", err)
		return st2.Store.Instances, nil
	}
	r.t.equal("summary.ingested", sum.Ingested, ref.Ingested)
	r.t.equal("summary.emitted", sum.Emitted, ref.Emitted)
	r.t.equal("summary.skipped", sum.Skipped, 0)
	return st2.Store.Instances, nil
}

// counters fills the per-layer metrics sourced from /v1/stats: st was
// scraped before the cursor walk, st2 after it.
func (r *wrun) counters(st, st2 daemonStats, wr walkResult) {
	pl := r.pl
	obs := float64(r.ref.Ingested)
	pl["detect.bindings_probed_per_obs"] = float64(st.Detect.BindingsProbed) / obs
	pl["detect.bindings_pruned_per_obs"] = float64(st.Detect.BindingsPruned) / obs
	pl["detect.emitted_per_obs"] = float64(st.Emitted) / obs
	pl["detect.truncations"] = float64(st.Detect.Truncations)
	pl["db.evicted"] = float64(st.Store.Evicted)
	pl["db.stale_index_entries"] = float64(st.Store.StaleIndexEntries)
	pl["db.chunks"] = float64(st.Store.Chunks)
	if st2.Store.Reads > 0 {
		pl["db.read_locks_per_page"] = float64(st2.Store.ReadLocks) / float64(st2.Store.Reads)
	}
	if wr.returned > 0 {
		pl["db.scanned_per_returned"] = float64(wr.scanned) / float64(wr.returned)
	}
	if cold := st2.Store.Cold; cold != nil {
		pl["segment.segments"] = float64(cold.Segments)
		pl["segment.spilled_per_s"] = float64(cold.SpilledInstances) / (r.m["setup_s"] + r.res.WindowS)
		pl["segment.blocks_read"] = float64(cold.BlocksRead)
		if all := cold.BlocksRead + cold.BlocksPruned; all > 0 {
			pl["segment.blocks_pruned_share"] = float64(cold.BlocksPruned) / float64(all)
		}
	}
	pl["sub.delivered"] = float64(st.Subscriptions.Delivered)
	pl["sub.dropped"] = float64(st.Subscriptions.Dropped)
	pl["wal.syncs"] = float64(st.Durability.Syncs)
	pl["wal.snapshots"] = float64(st.Durability.Snapshots)
	pl["wal.compacted_segments"] = float64(st.Durability.CompactedSegments)
	if st.Wire != nil && st.Wire.Records > 0 {
		pl["wire.bytes_per_obs"] = float64(st.Wire.Bytes) / float64(st.Wire.Records)
		pl["wire.slowdowns"] = float64(st.Wire.SlowDowns)
	}
}

// restarts times recovery: restart on the run's directories until
// /v1/healthz answers. Every restart but the last is killed again, so
// each one recovers from the same bytes; the last is stopped with
// SIGTERM and its exit status checked.
func (r *wrun) restarts(preKill int) {
	var recS []float64
	for i := 0; i < r.w.Restarts; i++ {
		t0 := time.Now()
		rd, err := spawn(r.e.bin, r.evPath, r.flags)
		if err != nil {
			r.t.fail("restart %d: %v", i, err)
			break
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err = rd.healthy(ctx)
		cancel()
		if err != nil {
			r.t.fail("restart %d: %v", i, err)
			rd.kill()
			break
		}
		recS = append(recS, time.Since(t0).Seconds())
		if i == 0 && r.w.Daemon.WAL {
			rst, err := rd.stats()
			if err != nil {
				r.t.fail("restart /v1/stats: %v", err)
			}
			r.t.equal("recovered store.instances", rst.Store.Instances, preKill)
			r.pl["wal.replayed_per_s"] = float64(rst.Durability.ReplayedRecords) / recS[0]
		}
		if i < r.w.Restarts-1 {
			rd.kill()
			continue
		}
		if _, err := rd.stop(); err != nil {
			r.t.fail("restart SIGTERM: %v", err)
		}
	}
	r.t.ops(r.w.Restarts, r.w.Restarts-len(recS), "restarts")
	r.m["recovery_s"] = median(recS)
}
