package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"net/url"
	"path"
	"sort"
	"strconv"

	"github.com/stcps/stcps"
)

// The workload definitions and the pinned seed-1 counts ship inside the
// binary, so the benchmark reads nothing outside its own package.
//
//go:embed workloads/*.json golden.json
var files embed.FS

// Workload is one named traffic mix: which daemon configuration it
// runs against, which stream it sends, how the load is shaped, and
// what reads run beside it. The JSON files in workloads/ are the
// frozen configuration; nothing here is tuned per run.
type Workload struct {
	Name string `json:"name"`
	// Why records the reason the workload exists: which layers do the
	// work, so which change must (or must not) move its numbers.
	Why    string    `json:"why"`
	Daemon DaemonCfg `json:"daemon"`
	Stream StreamCfg `json:"stream"`
	Load   LoadCfg   `json:"load"`
	// Subscribe is the SSE subscription: attached for the whole run
	// when Load.SSE is set, otherwise only around the probe.
	Subscribe RegionCfg `json:"subscribe"`
	// Probe is the quiesced, paced tail that measures detection latency
	// on workloads whose timed window carries no subscriber. Zero
	// records means the window itself is the measurement.
	Probe ProbeCfg `json:"probe"`
	// Queries are the page shapes the closed-loop pager cycles during
	// the window (query_retained only).
	Queries []QueryCfg `json:"queries,omitempty"`
	// Walk is the quiesced cursor walk hashed against the reference.
	Walk QueryCfg `json:"walk"`
	// Restarts is how many times the daemon is restarted on the run's
	// directories to time recovery; the median is reported.
	Restarts int `json:"restarts"`
}

// DaemonCfg is the part of the stcpsd command line a workload owns;
// flags() renders it and the reference engine is configured from the
// same fields, so the two cannot drift.
type DaemonCfg struct {
	DBMaxInstances int  `json:"db_max_instances"`
	WAL            bool `json:"wal"`
	SnapshotEvery  int  `json:"snapshot_every"`
	Spill          bool `json:"spill"`
}

// StreamCfg selects and parameterizes the generated stream.
type StreamCfg struct {
	// Kind is "join" (64 two-role window-8 distance joins over fixed
	// sites) or "imu" (10-attribute observations against 8 filters).
	Kind string `json:"kind"`
	// Sites is the join stream's site distribution: "uniform" or
	// "zipf" (exponent 1, site 0 hottest).
	Sites string `json:"sites,omitempty"`
	// Jitter is the half-width of the per-observation location jitter
	// around a join site; it sets the emission rate.
	Jitter float64 `json:"jitter,omitempty"`
}

// LoadCfg shapes the timed window.
type LoadCfg struct {
	// Shape is "flatout" (closed loop: the credit window is the only
	// brake) or "paced" (open loop: one burst per BurstMs on a schedule
	// that does not slow when the daemon does).
	Shape string `json:"shape"`
	// RecordsPerS sizes the window: N = RecordsPerS × seconds. For a
	// paced load it is the schedule; for a flat-out load it is the
	// reference box's sustained rate, so the window lasts about
	// `seconds` there and the record count repeats exactly everywhere.
	RecordsPerS int `json:"records_per_s"`
	BurstMs     int `json:"burst_ms,omitempty"`
	// WarmupShare is the untimed warm-up as a share of N; Preload, when
	// set, replaces it with a fixed flat-out record count.
	WarmupShare float64 `json:"warmup_share,omitempty"`
	Preload     int     `json:"preload,omitempty"`
	// SSE attaches the subscriber before the warm-up and times every
	// delivery of the window.
	SSE bool `json:"sse,omitempty"`
}

// ProbeCfg is the paced tail sent after the window.
type ProbeCfg struct {
	Records int `json:"records"`
	Rate    int `json:"rate"`
	BurstMs int `json:"burst_ms"`
}

// RegionCfg is an optional axis-aligned rectangle plus the SSE ring
// size. All of X1..Y2 zero means "everywhere".
type RegionCfg struct {
	X1     float64 `json:"x1"`
	Y1     float64 `json:"y1"`
	X2     float64 `json:"x2"`
	Y2     float64 `json:"y2"`
	Buffer int     `json:"buffer,omitempty"`
}

func (r RegionCfg) set() bool { return r.X1 != 0 || r.Y1 != 0 || r.X2 != 0 || r.Y2 != 0 }

// addTo renders the rectangle as the API's x1/y1/x2/y2 parameters.
func (r RegionCfg) addTo(v url.Values) {
	if !r.set() {
		return
	}
	for k, f := range map[string]float64{"x1": r.X1, "y1": r.Y1, "x2": r.X2, "y2": r.Y2} {
		v.Set(k, strconv.FormatFloat(f, 'g', -1, 64))
	}
}

// QueryCfg is one /v1/query shape. From/To are offsets: negative
// values count back from the first tick of the window, so "recent" and
// "old" stay meaningful at any N.
type QueryCfg struct {
	Name   string    `json:"name"`
	Event  string    `json:"event,omitempty"`
	Region RegionCfg `json:"region"`
	// HasWindow gates From/To.
	HasWindow bool   `json:"has_window,omitempty"`
	From      int64  `json:"from,omitempty"`
	To        int64  `json:"to,omitempty"`
	Tier      string `json:"tier,omitempty"`
	Limit     int    `json:"limit"`
	// Pages is how many pages the pager follows by cursor (default 1).
	Pages int `json:"pages,omitempty"`
}

// flags renders the daemon command line below -events/-tcp/-http.
func (d DaemonCfg) flags(tmp string) []string {
	var f []string
	if d.DBMaxInstances > 0 {
		f = append(f, "-db-max-instances", strconv.Itoa(d.DBMaxInstances))
	}
	if d.WAL {
		f = append(f, "-wal-dir", path.Join(tmp, "wal"), "-fsync", "interval",
			"-snapshot-every", strconv.Itoa(d.SnapshotEvery))
	}
	if d.Spill {
		f = append(f, "-spill-dir", path.Join(tmp, "spill"))
	}
	return f
}

// sizes returns the record counts of the run's three phases.
func (w *Workload) sizes(seconds float64) (warm, n, probe int) {
	n = int(float64(w.Load.RecordsPerS) * seconds)
	if n < 1 {
		n = 1
	}
	warm = w.Load.Preload
	if warm == 0 {
		warm = int(float64(n) * w.Load.WarmupShare)
	}
	return warm, n, w.Probe.Records
}

func (w *Workload) validate() error {
	switch {
	case w.Name == "" || w.Why == "":
		return fmt.Errorf("needs name and why")
	case w.Stream.Kind != "join" && w.Stream.Kind != "imu":
		return fmt.Errorf("unknown stream kind %q", w.Stream.Kind)
	case w.Load.Shape != "flatout" && w.Load.Shape != "paced":
		return fmt.Errorf("unknown load shape %q", w.Load.Shape)
	case w.Load.RecordsPerS <= 0:
		return fmt.Errorf("records_per_s must be positive")
	case w.Load.Shape == "paced" && w.Load.BurstMs <= 0:
		return fmt.Errorf("paced load needs burst_ms")
	case !w.Load.SSE && (w.Probe.Records <= 0 || w.Probe.Rate <= 0 || w.Probe.BurstMs <= 0):
		return fmt.Errorf("a window without a subscriber needs a probe")
	case w.Load.SSE && w.Probe.Records != 0:
		return fmt.Errorf("a window with a subscriber takes no probe")
	case w.Walk.Limit <= 0:
		return fmt.Errorf("walk needs a limit")
	case w.Restarts <= 0:
		return fmt.Errorf("restarts must be positive")
	}
	return nil
}

// loadWorkloads reads every embedded definition, sorted by name.
func loadWorkloads() ([]*Workload, error) {
	ents, err := files.ReadDir("workloads")
	if err != nil {
		return nil, err
	}
	var out []*Workload
	for _, e := range ents {
		data, err := files.ReadFile(path.Join("workloads", e.Name()))
		if err != nil {
			return nil, err
		}
		w := new(Workload)
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(w); err != nil {
			return nil, fmt.Errorf("workloads/%s: %w", e.Name(), err)
		}
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("workloads/%s: %w", e.Name(), err)
		}
		if w.Name+".json" != e.Name() {
			return nil, fmt.Errorf("workloads/%s: name %q does not match the file", e.Name(), w.Name)
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func findWorkload(ws []*Workload, name string) (*Workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// region converts a RegionCfg to the engine's location form (nil when
// unset).
func (r RegionCfg) region() (*stcps.Location, error) {
	if !r.set() {
		return nil, nil
	}
	f, err := stcps.Rect(r.X1, r.Y1, r.X2, r.Y2)
	if err != nil {
		return nil, err
	}
	loc := stcps.InField(f)
	return &loc, nil
}
