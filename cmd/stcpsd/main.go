// Command stcpsd is the streaming detection daemon: a standalone
// stcps.Engine fed from stdin — the paper's observer logic (Eqs.
// 5.3–5.5) serving a live entity feed with no simulator attached.
//
// Input is JSONL, one entity per line: event instances (objects with an
// "event" field, the wire form of stcps.Instance) are ingested under
// their event id carrying their confidence; raw observations (objects
// with a "sensor" field) are ingested under their sensor id with
// confidence 1. Emitted instances are written to stdout as JSONL; a
// summary goes to stderr at EOF, after open interval detections are
// flushed at the latest ingested tick.
//
// Detected events are declared in a JSON file:
//
//	[{"id": "E.hot", "layer": "cyber",
//	  "roles": [{"name": "x", "source": "S.temp", "window": 4, "maxAge": 100}],
//	  "when": "x.temp > 30", "confidence": "noisy-or"}]
//
// With -http the daemon additionally keeps an in-process database
// server (the paper's Section-3 logging service) and serves the
// spatio-temporal query API from it, concurrently with ingest, under
// the versioned /v1/ prefix (docs/http.md): GET /v1/query (event,
// region, time window, tier, pagination), GET /v1/lineage/{entity},
// GET /v1/subscribe and /v1/subscriptions (server-sent events),
// GET /v1/stats and GET /v1/healthz. The -db-max-instances /
// -db-max-age flags bound the store's memory.
//
// With -tcp the daemon additionally listens for the binary wire
// protocol (docs/wire.md): length-prefixed CRC-checked frames carrying
// batched observations and instances, with credit-window backpressure
// and congestion signalling. Wire batches ingest through the same
// engine guard as stdin lines, so the two feeds interleave safely; the
// wireclient package is the matching Go client.
//
// With -wal-dir the daemon is durable: every ingested entity and
// emitted instance is written to a write-ahead log (fsync policy via
// -fsync: always, interval or off) and periodically compacted into
// snapshots (-snapshot-every N records). On startup the daemon loads
// the latest snapshot, replays the WAL tail and re-offers the logged
// entities to the detectors, so both the instance store and half-bound
// detection windows survive a crash. SIGTERM triggers a graceful
// shutdown: open intervals flush, a final snapshot lands, the WAL
// closes.
//
// Usage:
//
//	stcpsd -events events.json < entities.jsonl > instances.jsonl
//	stcpsd -events events.json -workers 8    # sharded engine, 8 shards
//	stcpsd -events events.json -http :8080 -db-max-instances 1000000
//	stcpsd -events events.json -wal-dir /var/lib/stcpsd -fsync always
//	stcpsd -events events.json -tcp :9090    # binary wire ingest
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "stcpsd:", err)
		os.Exit(1)
	}
}

// httpReady, when non-nil, receives the query API's bound address once
// the listener is up — the hook integration tests use to reach a
// daemon serving on ":0".
var httpReady func(addr string)

// osExit ends the process after a SIGTERM teardown (the main goroutine
// stays blocked on the uninterruptible stdin read); a variable so tests
// could intercept it.
var osExit = os.Exit

// HTTP server timeouts. A header that does not arrive within
// readHeaderTimeout disconnects the client (slow-loris protection), and
// idle keep-alive connections are reaped after idleTimeout. There is
// deliberately NO WriteTimeout: /subscribe streams server-sent events
// for the lifetime of the subscriber, and a write deadline would kill
// every long-lived stream. Variables so the regression tests can
// shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// roleJSON mirrors stcps.Role in the events file.
type roleJSON struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Window int    `json:"window"`
	MaxAge int64  `json:"maxAge"`
}

// eventJSON mirrors stcps.EventSpec plus its layer in the events file.
type eventJSON struct {
	ID             string     `json:"id"`
	Layer          string     `json:"layer"`
	Roles          []roleJSON `json:"roles"`
	When           string     `json:"when"`
	Interval       bool       `json:"interval"`
	Confidence     string     `json:"confidence"`
	BaseConfidence float64    `json:"baseConfidence"`
	EstimateTime   string     `json:"estimateTime"`
	EstimateLoc    string     `json:"estimateLoc"`
}

// parseLayer maps the events-file layer name to the instance layer;
// empty defaults to cyber (the top of the hierarchy, where a standalone
// consumer of instance feeds typically sits).
func parseLayer(s string) (stcps.Layer, error) {
	switch s {
	case "sensor":
		return stcps.LayerSensor, nil
	case "cyber-physical":
		return stcps.LayerCyberPhysical, nil
	case "", "cyber":
		return stcps.LayerCyber, nil
	default:
		return 0, fmt.Errorf("unknown layer %q (want sensor, cyber-physical or cyber)", s)
	}
}

func loadEvents(path string) ([]eventJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var evs []eventJSON
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, fmt.Errorf("events file %s: %w", path, err)
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("events file %s declares no events", path)
	}
	return evs, nil
}

// lineReader yields newline-delimited lines like bufio.Scanner but
// survives overlong input: a line exceeding max bytes is consumed and
// reported as bufio.ErrTooLong instead of permanently killing the feed
// (bufio.Scanner stops scanning forever after ErrTooLong, discarding
// everything that follows the oversized line).
type lineReader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

func newLineReader(r io.Reader, max int) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10), max: max}
}

// next returns the next line without its newline. An overlong line
// yields (nil, bufio.ErrTooLong) with the stream positioned at the next
// line; io.EOF ends the stream; other errors are terminal.
func (lr *lineReader) next() ([]byte, error) {
	lr.buf = lr.buf[:0]
	for {
		frag, err := lr.br.ReadSlice('\n')
		lr.buf = append(lr.buf, frag...)
		switch {
		case err == nil:
			line := lr.buf[:len(lr.buf)-1]
			if len(line) > lr.max {
				return nil, bufio.ErrTooLong
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			if len(lr.buf) > lr.max {
				return nil, lr.discard()
			}
		case errors.Is(err, io.EOF):
			if len(lr.buf) == 0 {
				return nil, io.EOF
			}
			if len(lr.buf) > lr.max {
				return nil, bufio.ErrTooLong
			}
			return lr.buf, nil
		default:
			return nil, err
		}
	}
}

// discard consumes the remainder of an overlong line.
func (lr *lineReader) discard() error {
	for {
		_, err := lr.br.ReadSlice('\n')
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
		case err == nil || errors.Is(err, io.EOF):
			return bufio.ErrTooLong
		default:
			return err
		}
	}
}

func run(args []string, in io.Reader, out, errw io.Writer) error {
	fs := flag.NewFlagSet("stcpsd", flag.ContinueOnError)
	fs.SetOutput(errw)
	eventsPath := fs.String("events", "", "JSON file declaring the detected events (required)")
	observer := fs.String("observer", "stcpsd", "observer id stamped on emitted instances")
	workers := fs.Int("workers", 1, "worker shards (>1 selects the concurrent sharded engine)")
	x := fs.Float64("x", 0, "observer location x")
	y := fs.Float64("y", 0, "observer location y")
	httpAddr := fs.String("http", "", "serve the spatio-temporal query API on this address (e.g. :8080); enables the in-process store")
	tcpAddr := fs.String("tcp", "", "listen for binary wire protocol ingest on this address (e.g. :9090)")
	clusterSpec := fs.String("cluster", "", "cluster mode: comma-separated wire/http address pairs for every member, e.g. h1:9090/h1:8080,h2:9090/h2:8080 (requires -tcp and -http)")
	nodeID := fs.Int("node-id", 0, "cluster mode: this node's index into the -cluster list")
	replicas := fs.Int("replicas", 1, "cluster mode: synchronous follower replicas per partition")
	maxLine := fs.Int("max-line", 1<<20, "max stdin line length in bytes; longer lines are skipped")
	dbMaxInstances := fs.Int("db-max-instances", 0, "retention: max live instances in the store (0 = unlimited)")
	dbMaxAge := fs.Int64("db-max-age", 0, "retention: evict instances older than this many ticks behind the newest (0 = unlimited)")
	subBuffer := fs.Int("sub-buffer", 0, "subscriptions: default per-subscriber ring capacity (0 = 256)")
	walDir := fs.String("wal-dir", "", "durability: write-ahead log directory (enables crash recovery and the in-process store)")
	fsync := fs.String("fsync", "interval", "durability: WAL fsync policy: always, interval or off")
	snapshotEvery := fs.Int("snapshot-every", 0, "durability: snapshot + compact the WAL every N records (0 = only at shutdown)")
	spillDir := fs.String("spill-dir", "", "cold tier: spill retention-evicted instances to segment files in this directory (enables the in-process store)")
	spillMaxAge := fs.Int64("spill-max-age", 0, "cold tier: delete segments older than this many ticks behind the newest spilled data (0 = keep)")
	spillMaxBytes := fs.Int64("spill-max-bytes", 0, "cold tier: cap total segment bytes, deleting oldest first (0 = unlimited)")
	spillMaxSegments := fs.Int("spill-max-segments", 0, "cold tier: cap the number of segment files (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eventsPath == "" {
		return fmt.Errorf("missing -events file")
	}
	if *clusterSpec != "" {
		// Cluster mode needs the wire listener for peer hops, the HTTP
		// listener (and its store) for scatter-gather pages, and the
		// synchronous engine: the coordinator resolves emitted instance
		// seqs immediately after each apply.
		if *tcpAddr == "" || *httpAddr == "" {
			return fmt.Errorf("-cluster requires both -tcp and -http")
		}
		if *workers != 1 {
			return fmt.Errorf("-cluster requires -workers=1 (got %d)", *workers)
		}
	}
	evs, err := loadEvents(*eventsPath)
	if err != nil {
		return err
	}

	// Serialize instance output: in sharded mode OnInstance runs on
	// worker goroutines. The counters are atomic so the /stats endpoint
	// can read them while the feed runs.
	w := bufio.NewWriter(out)
	var mu sync.Mutex
	var ingested, skipped, emitted atomic.Uint64
	var writeErr error
	var line []byte // the instance being written, reused under mu
	eng, err := stcps.NewEngine(stcps.EngineConfig{
		Observer:  *observer,
		Loc:       stcps.AtPoint(*x, *y),
		Workers:   *workers,
		WithStore: *httpAddr != "",
		DBRetention: stcps.Retention{
			MaxInstances: *dbMaxInstances,
			MaxAge:       stcps.Tick(*dbMaxAge),
		},
		Durability: stcps.DurabilityConfig{
			Dir:           *walDir,
			Fsync:         *fsync,
			SnapshotEvery: *snapshotEvery,
		},
		Spill: stcps.SpillConfig{
			Dir:         *spillDir,
			MaxAge:      stcps.Tick(*spillMaxAge),
			MaxBytes:    *spillMaxBytes,
			MaxSegments: *spillMaxSegments,
		},
		Subscriptions: stcps.SubscriptionsConfig{Buffer: *subBuffer},
		OnInstance: func(inst stcps.Instance) {
			mu.Lock()
			defer mu.Unlock()
			var err error
			if line, err = event.AppendInstance(line[:0], &inst); err == nil {
				line = append(line, '\n')
				_, err = w.Write(line)
			}
			if err != nil {
				if writeErr == nil {
					writeErr = err
				}
				return
			}
			emitted.Add(1)
		},
	})
	if err != nil {
		return err
	}
	for _, ev := range evs {
		layer, err := parseLayer(ev.Layer)
		if err != nil {
			return fmt.Errorf("event %q: %w", ev.ID, err)
		}
		spec := stcps.EventSpec{
			ID:             ev.ID,
			When:           ev.When,
			Interval:       ev.Interval,
			Confidence:     ev.Confidence,
			BaseConfidence: ev.BaseConfidence,
			EstimateTime:   ev.EstimateTime,
			EstimateLoc:    ev.EstimateLoc,
		}
		for _, r := range ev.Roles {
			spec.Roles = append(spec.Roles, stcps.Role{
				Name: r.Name, Source: r.Source,
				Window: r.Window, MaxAge: stcps.Tick(r.MaxAge),
			})
		}
		if err := eng.Detect(layer, spec); err != nil {
			return err
		}
	}
	for _, p := range eng.PlanDescriptions() {
		fmt.Fprintf(errw, "stcpsd: plan %s\n", p)
	}
	// Start runs the workers and — with -wal-dir — the crash recovery
	// replay, so the daemon resumes exactly where the last process
	// stopped.
	if err := eng.Start(); err != nil {
		return err
	}

	// maxTick tracks the newest ingested virtual time — open intervals
	// flush at it on shutdown (atomic: the SIGTERM goroutine reads it).
	// Recovery advances it past everything replayed, so a restarted
	// daemon never flushes into the past.
	var maxTick atomic.Int64
	if *walDir != "" {
		ds := eng.DurabilityStats()
		if ds.HasTick {
			maxTick.Store(int64(ds.LastTick))
		}
		fmt.Fprintf(errw, "stcpsd: wal %s: replayed=%d reoffered=%d recovered=%d replayEmissions=%d snapshotSeq=%d segments=%d\n",
			*walDir, ds.ReplayedRecords, ds.ReofferedEntities, ds.RecoveredInstances,
			ds.ReplayEmissions, ds.SnapshotSeq, ds.Segments)
	}

	// The engine's synchronous feed path is single-threaded, and stdin
	// reads cannot be interrupted (fd 0 is in blocking mode), so a
	// SIGTERM teardown must run on the signal goroutine WITHOUT racing a
	// feed in flight: stopMu guards every engine offer, and teardown
	// flips `stopping` under it — after which no further offer can
	// start and the shutdown owns the engine.
	var (
		stopMu       sync.Mutex
		stopping     bool //stcps:guardedby stopMu
		teardownOnce sync.Once
		teardownErr  error
	)
	// offer runs one engine feed call unless shutdown has begun; the
	// first return reports whether the feed is still open.
	offer := func(fn func() error) (bool, error) {
		stopMu.Lock()
		defer stopMu.Unlock()
		if stopping {
			return false, nil
		}
		return true, fn()
	}
	// apply is the one ingest step behind every feed — stdin lines, wire
	// batches and cluster hops: advance the flush tick, ingest, count.
	// It runs only inside the offer guard, so an entity the SIGTERM
	// teardown rejected never moves the flush tick.
	apply := func(source string, ent event.Entity, conf float64, now stcps.Tick) ([]stcps.Instance, error) {
		if int64(now) > maxTick.Load() {
			maxTick.Store(int64(now))
		}
		outs, err := eng.Ingest(source, ent, conf, now)
		if err != nil {
			return nil, err
		}
		ingested.Add(1)
		return outs, nil
	}
	// teardown is the single shutdown path, shared by EOF, feed errors
	// and SIGTERM: stop the feed, flush open intervals at the newest
	// tick, land the final snapshot, close the WAL, flush stdout and
	// print the summary.
	teardown := func() error {
		stopMu.Lock()
		stopping = true
		stopMu.Unlock()
		teardownOnce.Do(func() {
			_, terr := eng.Shutdown(stcps.Tick(maxTick.Load()))
			mu.Lock()
			defer mu.Unlock()
			if ferr := w.Flush(); terr == nil {
				terr = ferr
			}
			teardownErr = terr
			fmt.Fprintf(errw, "stcpsd: ingested=%d skipped=%d emitted=%d events=%d workers=%d\n",
				ingested.Load(), skipped.Load(), emitted.Load(), len(evs), *workers)
		})
		return teardownErr
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)
	sigQuit := make(chan struct{})
	defer close(sigQuit) // release the goroutine when run returns normally
	go func() {
		select {
		case <-sigQuit:
			return
		case <-sigc:
		}
		fmt.Fprintln(errw, "stcpsd: SIGTERM: flushing and shutting down")
		if err := teardown(); err != nil {
			fmt.Fprintln(errw, "stcpsd:", err)
			osExit(1)
		}
		osExit(0)
	}()

	// The wire stats aggregate exists whenever -tcp is given so /stats
	// can report it (nil keeps the field out of the JSON otherwise).
	var ws *wireStats
	if *tcpAddr != "" {
		ws = &wireStats{}
	}

	// Cluster mode: the coordinator stamps, routes, forwards and
	// replicates in front of the same guard and apply step.
	var cl *clusterRuntime
	if *clusterSpec != "" {
		nodes, err := cluster.ParseNodes(*clusterSpec)
		if err != nil {
			return err
		}
		cn, err := cluster.New(cluster.Config{
			Nodes:    nodes,
			Self:     *nodeID,
			Replicas: *replicas,
		}, nil, cluster.Hooks{
			Guard: offer,
			Apply: apply,
			SeqOf: eng.Store().SeqOf,
			Query: eng.QueryST,
		})
		if err != nil {
			return err
		}
		cl = newClusterRuntime(cn)
		cn.Membership.Start()
		defer cn.Coord.Close()
		defer cn.Membership.Stop()
		fmt.Fprintf(errw, "stcpsd: cluster node %d of %d, replicas=%d\n",
			*nodeID, len(nodes), cn.Cfg.Replicas)
	}

	// Serve the query API from the live engine while the feed runs.
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("query API: %w", err)
		}
		a := &api{
			eng:      eng,
			observer: *observer,
			events:   len(evs),
			workers:  *workers,
			ingested: &ingested,
			skipped:  &skipped,
			emitted:  &emitted,
			wire:     ws,
			cluster:  cl,
		}
		srv := &http.Server{
			Handler:           a.handler(),
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
			// WriteTimeout stays zero: /subscribe streams SSE
			// indefinitely and a deadline would sever it.
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(errw, "stcpsd: query API on http://%s\n", ln.Addr())
		if httpReady != nil {
			httpReady(ln.Addr().String())
		}
	}

	// Serve binary wire ingest concurrently with stdin. Each batch
	// ingests under the offer guard — one lock acquisition per batch is
	// the amortization that lets the wire path run at full engine speed —
	// and the guard also ends every connection once teardown begins.
	// With -wal-dir the server materializes observations eagerly: the
	// durability layer logs concrete entity values, not views.
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		wireOffer := func(b *frame.Batch) error {
			open, err := offer(func() error {
				for i := 0; i < b.Len(); i++ {
					if _, err := apply(b.Source(i), b.Entity(i), b.Conf(i), b.Now(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if !open {
				return errShutdown
			}
			return nil
		}
		if cl != nil {
			// Clustered ingest: the coordinator stamps, routes, applies,
			// forwards and replicates each batch; the wire ack it
			// releases means owner + R followers hold every record.
			wireOffer = func(b *frame.Batch) error {
				err := cl.node.Coord.OfferBatch(b)
				if errors.Is(err, cluster.ErrShutdown) {
					return errShutdown
				}
				return err
			}
		}
		ts := newTCPServer(ln, frame.ServerConfig{
			Offer: wireOffer,
			// Forwarding (like the WAL) needs concrete entity values
			// that outlive the batch buffer.
			Materialize: *walDir != "" || cl != nil,
		}, ws, errw)
		go ts.serve()
		defer ts.close()
		fmt.Fprintf(errw, "stcpsd: wire ingest on %s\n", ln.Addr())
		if tcpReady != nil {
			tcpReady(ln.Addr().String())
		}
	}

	// offerEntity hands one decoded stdin entity to the engine, and is the
	// only place that knows whether a cluster coordinator sits in front:
	// the coordinator runs the guarded apply itself (locally or on the
	// owning node), a single node runs it here. open=false means the
	// SIGTERM teardown owns the engine now.
	offerEntity := func(source string, ent event.Entity, conf float64, now stcps.Tick) (open bool, err error) {
		if cl == nil {
			return offer(func() error {
				_, err := apply(source, ent, conf, now)
				return err
			})
		}
		err = cl.node.Coord.OfferEntity(source, ent, conf, now)
		if errors.Is(err, cluster.ErrShutdown) {
			return false, nil
		}
		return true, err
	}

	var feedErr error
	lr := newLineReader(in, *maxLine)
scan:
	for {
		line, lerr := lr.next()
		switch {
		case errors.Is(lerr, io.EOF):
			break scan
		case errors.Is(lerr, bufio.ErrTooLong):
			skipped.Add(1)
			fmt.Fprintf(errw, "stcpsd: skipping line longer than %d bytes\n", *maxLine)
			continue
		case lerr != nil:
			feedErr = lerr
			break scan
		}
		if len(line) == 0 {
			continue
		}
		// One parse per line: DecodeEntityJSON dispatches on the
		// discriminating field instead of probing and re-decoding.
		// Instances ingest under their event id carrying their
		// confidence at their generation time, observations under their
		// sensor id with confidence 1 at their sampling time.
		var (
			source string
			ent    event.Entity
			conf   float64
			now    stcps.Tick
		)
		inst, obs, kind, derr := event.DecodeEntityJSON(line)
		switch {
		case derr != nil && kind == event.KindInstance:
			skipped.Add(1)
			fmt.Fprintf(errw, "stcpsd: skipping bad instance: %v\n", derr)
			continue
		case derr != nil:
			skipped.Add(1)
			fmt.Fprintf(errw, "stcpsd: skipping malformed line: %v\n", derr)
			continue
		case kind == event.KindInstance:
			source, ent, conf, now = inst.Event, inst, inst.Confidence, inst.Gen
		case kind == event.KindObservation:
			source, ent, conf, now = obs.Sensor, obs, 1, obs.Time.End()
		default:
			skipped.Add(1)
			fmt.Fprintln(errw, "stcpsd: skipping line with neither event nor sensor")
			continue
		}
		open, err := offerEntity(source, ent, conf, now)
		if !open {
			break scan
		}
		if err != nil {
			feedErr = err
			break scan
		}
	}

	// Always tear down — even on a mid-stream error, partial results
	// reach stdout.
	shutdownErr := teardown()
	mu.Lock()
	defer mu.Unlock()
	switch {
	case feedErr != nil:
		return feedErr
	case writeErr != nil:
		return writeErr
	default:
		return shutdownErr
	}
}
