package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/jsonenc"
)

// api serves the spatio-temporal query endpoints from the daemon's live
// store-backed engine, concurrently with stdin ingest. The store is
// internally synchronized, so queries never block the feed beyond its
// RWMutex.
type api struct {
	eng      *stcps.Engine
	observer string
	events   int
	workers  int
	ingested *atomic.Uint64
	skipped  *atomic.Uint64
	emitted  *atomic.Uint64
	wire     *wireStats      // nil without -tcp
	cluster  *clusterRuntime // nil without -cluster
}

// handler builds the query API routes, all under the versioned /v1/
// prefix (the documented contract, see docs/http.md).
func (a *api) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", a.healthz)
	mux.HandleFunc("GET /v1/stats", a.stats)
	mux.HandleFunc("GET /v1/query", a.query)
	mux.HandleFunc("GET /v1/lineage/{entity}", a.lineage)
	mux.HandleFunc("GET /v1/subscribe", a.subscribe)
	mux.HandleFunc("GET /v1/subscriptions", a.subscriptions)
	return mux
}

func (a *api) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// detectStats is the /stats view of the detection planner's evaluation
// counters.
type detectStats struct {
	// BindingsProbed counts candidate bindings the detectors examined.
	BindingsProbed uint64 `json:"bindingsProbed"`
	// BindingsPruned counts window entries skipped without evaluation
	// (insertion-time filters and index probes).
	BindingsPruned uint64 `json:"bindingsPruned"`
	// Truncations counts evaluation rounds cut short by maxBindings.
	Truncations uint64 `json:"truncations"`
	// EvalErrors counts failed binding evaluations.
	EvalErrors uint64 `json:"evalErrors"`
}

// statsResponse is the /stats document: daemon counters, the detection
// planner's counters and plans, and the store's content counters.
type statsResponse struct {
	Observer      string                  `json:"observer"`
	Events        int                     `json:"events"`
	Workers       int                     `json:"workers"`
	Ingested      uint64                  `json:"ingested"`
	Skipped       uint64                  `json:"skipped"`
	Emitted       uint64                  `json:"emitted"`
	Detect        detectStats             `json:"detect"`
	Plans         []string                `json:"plans"`
	Store         stcps.StoreStats        `json:"store"`
	Durability    stcps.DurabilityStats   `json:"durability"`
	Subscriptions stcps.SubscriptionStats `json:"subscriptions"`
	Wire          *wireStatsView          `json:"wire,omitempty"`
	Cluster       *clusterStatsView       `json:"cluster,omitempty"`
}

func (a *api) stats(w http.ResponseWriter, _ *http.Request) {
	es := a.eng.Stats()
	var wv *wireStatsView
	if a.wire != nil {
		v := a.wire.view()
		wv = &v
	}
	var cv *clusterStatsView
	if a.cluster != nil {
		cv = a.cluster.statsView()
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Observer: a.observer,
		Events:   a.events,
		Workers:  a.workers,
		Ingested: a.ingested.Load(),
		Skipped:  a.skipped.Load(),
		Emitted:  a.emitted.Load(),
		Detect: detectStats{
			BindingsProbed: es.BindingsProbed,
			BindingsPruned: es.BindingsPruned,
			Truncations:    es.Truncations,
			EvalErrors:     es.EvalErrors,
		},
		Plans:         a.eng.PlanDescriptions(),
		Store:         a.eng.StoreStats(),
		Durability:    a.eng.DurabilityStats(),
		Subscriptions: a.eng.SubscriptionStats(),
		Wire:          wv,
		Cluster:       cv,
	})
}

// stPredicates is the event/region/window parameter triple shared by
// GET /query and GET /subscribe.
type stPredicates struct {
	event    string
	region   *stcps.Location
	hasTime  bool
	from, to stcps.Tick
}

// parseSTPredicates reads event=&x1=&y1=&x2=&y2=&from=&to=. The region
// is an axis-aligned rectangle (all four corners or none); from/to
// bound the occurrence window (either implies the other's extreme).
func parseSTPredicates(v url.Values) (stPredicates, error) {
	p := stPredicates{event: v.Get("event")}
	var corner [4]float64
	given := 0
	for i, name := range [...]string{"x1", "y1", "x2", "y2"} {
		s := v.Get(name)
		if s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return p, fmt.Errorf("bad %s: %w", name, err)
		}
		corner[i] = f
		given++
	}
	switch given {
	case 0:
	case 4:
		f, err := stcps.Rect(corner[0], corner[1], corner[2], corner[3])
		if err != nil {
			return p, fmt.Errorf("bad region: %w", err)
		}
		loc := stcps.InField(f)
		p.region = &loc
	default:
		return p, fmt.Errorf("region needs all of x1, y1, x2, y2")
	}
	fromS, toS := v.Get("from"), v.Get("to")
	if fromS != "" || toS != "" {
		p.hasTime = true
		p.from, p.to = stcps.Tick(math.MinInt64), stcps.Tick(math.MaxInt64)
		if fromS != "" {
			t, err := strconv.ParseInt(fromS, 10, 64)
			if err != nil {
				return p, fmt.Errorf("bad from: %w", err)
			}
			p.from = stcps.Tick(t)
		}
		if toS != "" {
			t, err := strconv.ParseInt(toS, 10, 64)
			if err != nil {
				return p, fmt.Errorf("bad to: %w", err)
			}
			p.to = stcps.Tick(t)
		}
	}
	return p, nil
}

// query answers
// GET /v1/query?event=&x1=&y1=&x2=&y2=&from=&to=&limit=&cursor=&tier=&strict=,
// reading all storage tiers unless tier= narrows it.
func (a *api) query(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	p, err := parseSTPredicates(v)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := stcps.QuerySpec{
		Event: p.event, Region: p.region,
		Cursor: v.Get("cursor"),
	}
	if p.hasTime {
		spec.Window = &stcps.TimeWindow{From: p.from, To: p.to}
	}
	if s := v.Get("tier"); s != "" {
		t, err := db.ParseTier(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec.Tier = t
	}
	if s := v.Get("strict"); s != "" {
		b, err := strconv.ParseBool(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad strict %q", s)
			return
		}
		spec.Strict = b
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", s)
			return
		}
		spec.Limit = n
	}

	if a.cluster != nil {
		// Clustered query: partition=N serves one local partition page
		// for peer gateways; otherwise scatter-gather across the
		// cluster, merged in HLC order under one composite cursor.
		if ps := v.Get("partition"); ps != "" {
			a.cluster.partitionPage(w, spec, ps)
			return
		}
		a.cluster.gather(w, v, spec)
		return
	}

	res, err := a.eng.QueryST(spec)
	switch {
	case errors.Is(err, db.ErrBadCursor):
		httpErrorCode(w, http.StatusBadRequest, "bad_cursor", "%v", err)
		return
	case errors.Is(err, db.ErrStaleCursor):
		httpError(w, http.StatusGone, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	respond(w, http.StatusOK, func(dst []byte) ([]byte, error) { return appendQueryPage(dst, &res) })
}

// appendQueryPage renders one single-node /v1/query page: instances
// (null when none matched), nextCursor when more remain, and the cold
// section, under its Go field names, when segments were read.
func appendQueryPage(dst []byte, res *stcps.QueryResult) ([]byte, error) {
	dst, err := appendPage(dst, res.Instances, true)
	if err != nil {
		return dst, err
	}
	if res.NextCursor != "" {
		dst = jsonenc.AppendString(append(dst, `,"nextCursor":`...), res.NextCursor)
	}
	dst = jsonenc.AppendString(append(dst, `,"index":`...), res.Index)
	dst = strconv.AppendInt(append(dst, `,"scanned":`...), int64(res.Scanned), 10)
	if c := res.Cold; c.Segments > 0 {
		dst = strconv.AppendInt(append(dst, `,"cold":{"Segments":`...), int64(c.Segments), 10)
		dst = strconv.AppendInt(append(dst, `,"BlocksRead":`...), int64(c.BlocksRead), 10)
		dst = strconv.AppendInt(append(dst, `,"BlocksPruned":`...), int64(c.BlocksPruned), 10)
		dst = append(strconv.AppendInt(append(dst, `,"Records":`...), int64(c.Records), 10), '}')
	}
	return append(dst, '}'), nil
}

// appendPage opens all three page shapes: the count and the instance
// array, each row through Instance.AppendJSON. A nil slice is null when
// nullIfNil (the single-node page), [] on the cluster pages. On error
// (a non-finite float) dst holds a partial page.
func appendPage(dst []byte, ins []stcps.Instance, nullIfNil bool) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"count":`...), int64(len(ins)), 10)
	if ins == nil && nullIfNil {
		return append(dst, `,"instances":null`...), nil
	}
	dst = append(dst, `,"instances":[`...)
	for i := range ins {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = ins[i].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendDecimals appends key and vs as an array of decimal strings:
// seqs and stamps are uint64, which JSON numbers hold exactly only up
// to 2^53.
func appendDecimals[T ~uint64](dst []byte, key string, vs []T) []byte {
	dst = append(dst, key...)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(strconv.AppendUint(append(dst, '"'), uint64(v), 10), '"')
	}
	return append(dst, ']')
}

// lineageResponse is the /lineage/{entity} document.
type lineageResponse struct {
	Entity string   `json:"entity"`
	Chain  []string `json:"chain"`
}

func (a *api) lineage(w http.ResponseWriter, r *http.Request) {
	entity := r.PathValue("entity")
	chain, err := a.eng.Lineage(entity)
	switch {
	case errors.Is(err, db.ErrNotFound):
		httpError(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, lineageResponse{Entity: entity, Chain: chain})
}

// pageBufs holds response buffers between requests. A buffer that grew
// past maxPooledBuf (a limit=0 page) is dropped rather than pooled, so
// one huge page cannot pin its memory.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

// respond is the one way a JSON response leaves the daemon: fill
// appends the document to a pooled buffer, and it goes out with its
// Content-Length in a single Write. When fill fails nothing it appended
// is sent; the client gets a 500 envelope instead.
func respond(w http.ResponseWriter, status int, fill func([]byte) ([]byte, error)) {
	bp := pageBufs.Get().(*[]byte)
	body, err := fill((*bp)[:0])
	if err == nil {
		body = append(body, '\n')
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		_, _ = w.Write(body) // a client gone mid-response has nothing to be told
	}
	if cap(body) <= maxPooledBuf {
		*bp = body[:0]
		pageBufs.Put(bp)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// writeJSON sends the documents that carry no instances (stats,
// subscriptions, lineage, error envelopes) through encoding/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	respond(w, status, func(dst []byte) ([]byte, error) {
		b, err := json.Marshal(v)
		return append(dst, b...), err
	})
}

// errorResponse is the uniform error envelope of every endpoint:
// a human-readable message plus a stable machine-readable code.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// defaultCode maps a status to its envelope code when the handler has
// no more specific one (e.g. bad_cursor refines 400).
func defaultCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusGone:
		return "stale_cursor"
	default:
		return "internal"
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCode(w, status, defaultCode(status), format, args...)
}

func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}
