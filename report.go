package stcps

import (
	"fmt"
	"sort"
	"strings"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/latency"
	"github.com/stcps/stcps/internal/metrics"
	"github.com/stcps/stcps/internal/network"
	"github.com/stcps/stcps/internal/wsn"
)

// Report is the outcome of a System run: the ground truth, the database
// of event instances, and transport statistics.
type Report struct {
	// Truth is the ground-truth physical event log.
	Truth []PhysicalEvent
	// Horizon is the nominal run length in ticks.
	Horizon Tick

	store    storeView
	wsnStats wsn.Stats
	busStats network.Stats
	actions  uint64
	executed int
}

// storeView is the minimal store interface the report needs (kept small
// for tests).
type storeView interface {
	All() []event.Instance
	Lineage(string) ([]string, error)
}

func (s *System) buildReport() *Report {
	var actions uint64
	for _, c := range s.ccus {
		actions += c.Actions
	}
	executed := 0
	for _, a := range s.actors {
		executed += len(a.Executed)
	}
	return &Report{
		Truth:    s.world.Truth(),
		Horizon:  s.sched.Now(),
		store:    s.store,
		wsnStats: s.sensNet.Stats(),
		busStats: s.bus.Stats(),
		actions:  actions,
		executed: executed,
	}
}

// Instances returns every logged instance in arrival order.
func (r *Report) Instances() []Instance { return r.store.All() }

// AtLayer returns the logged instances at one hierarchy layer.
func (r *Report) AtLayer(l Layer) []Instance {
	var out []Instance
	for _, in := range r.store.All() {
		if in.Layer == l {
			out = append(out, in)
		}
	}
	return out
}

// OfEvent returns the logged instances of one event id, ordered by
// estimated occurrence start.
func (r *Report) OfEvent(id string) []Instance {
	var out []Instance
	for _, in := range r.store.All() {
		if in.Event == id {
			out = append(out, in)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Occ.Start() < out[j].Occ.Start()
	})
	return out
}

// Lineage returns the provenance chain of an instance entity id.
func (r *Report) Lineage(entityID string) ([]string, error) {
	return r.store.Lineage(entityID)
}

// Actions returns the number of event–action rule firings.
func (r *Report) Actions() uint64 { return r.actions }

// Executed returns the number of actuator commands applied to the world.
func (r *Report) Executed() int { return r.executed }

// Score matches instances of detectedID against ground-truth events named
// truthID, with the given time tolerance.
func (r *Report) Score(truthID, detectedID string, tol Tick) metrics.Result {
	return metrics.Score(r.Truth, r.OfEvent(detectedID), metrics.MatchOptions{
		EventID:       truthID,
		MapEvent:      func(string) string { return truthID },
		TimeTolerance: tol,
	})
}

// EDL measures detection latency of detectedID instances against
// ground-truth events named truthID.
func (r *Report) EDL(truthID, detectedID string, tol Tick) *metrics.Histogram {
	var truth []PhysicalEvent
	for _, tr := range r.Truth {
		if tr.ID == truthID {
			truth = append(truth, tr)
		}
	}
	return latency.MeasureEDL(truth, r.OfEvent(detectedID), metrics.MatchOptions{
		MapEvent:      func(string) string { return truthID },
		TimeTolerance: tol,
	})
}

// Summary renders a per-layer, per-event table of instance counts plus
// transport statistics — the textual rendering of the Figure-2 hierarchy
// for one run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run horizon: %d ticks\n", r.Horizon)
	fmt.Fprintf(&b, "ground-truth physical events: %d\n", len(r.Truth))
	layers := []Layer{LayerSensor, LayerCyberPhysical, LayerCyber}
	counts := make(map[Layer]map[string]int)
	for _, in := range r.store.All() {
		if counts[in.Layer] == nil {
			counts[in.Layer] = make(map[string]int)
		}
		counts[in.Layer][in.Event]++
	}
	for _, l := range layers {
		fmt.Fprintf(&b, "%s layer:\n", l)
		ids := make([]string, 0, len(counts[l]))
		for id := range counts[l] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if len(ids) == 0 {
			b.WriteString("  (none)\n")
		}
		for _, id := range ids {
			fmt.Fprintf(&b, "  %-24s %6d instances\n", id, counts[l][id])
		}
	}
	fmt.Fprintf(&b, "wsn: sent=%d delivered=%d dropped=%d hops=%d\n",
		r.wsnStats.Sent, r.wsnStats.Delivered, r.wsnStats.Dropped, r.wsnStats.HopsTraveled)
	fmt.Fprintf(&b, "bus: published=%d delivered=%d\n", r.busStats.Published, r.busStats.Delivered)
	fmt.Fprintf(&b, "actions fired: %d, actuations executed: %d\n", r.actions, r.executed)
	return b.String()
}
