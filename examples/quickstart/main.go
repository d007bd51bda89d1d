// Command quickstart is the minimal ST-CPS example: one temperature mote,
// one sink, one CCU, one event per layer. It shows the three observer
// levels of the event model (sensor event → cyber-physical event → cyber
// event) reacting to a step stimulus.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	stcps "github.com/stcps/stcps"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds and runs the seeded system and writes its report to w.
func run(w io.Writer) error {
	sys, err := stcps.NewSystem(stcps.Config{Seed: 42})
	if err != nil {
		return err
	}

	// Physical world: ambient temperature that jumps at tick 500.
	world := sys.World()
	if err := world.AddPhenomenon("heat", stcps.Step{
		Name: "temp", Before: 21, After: 75, At: 500,
	}); err != nil {
		return err
	}

	// One mote sampling temperature every 20 ticks, one sink, one CCU.
	if err := sys.AddSensorMote("MT1", stcps.Pt(10, 0), []stcps.SensorConfig{
		{ID: "SRtemp", Attr: "temp", Period: 20, Noise: 0.2},
	}); err != nil {
		return err
	}
	if err := sys.AddSink("sink1", stcps.Pt(0, 0)); err != nil {
		return err
	}
	if err := sys.AddCCU("CCU1", stcps.Pt(0, 10)); err != nil {
		return err
	}

	// Layered events: the same physical change abstracted per observer.
	if err := sys.OnMote("MT1", stcps.EventSpec{
		ID:    "S.hot",
		Roles: []stcps.Role{{Name: "x", Source: "SRtemp", Window: 1}},
		When:  "x.temp > 50",
	}); err != nil {
		return err
	}
	if err := sys.OnSink("sink1", stcps.EventSpec{
		ID:    "CP.hot",
		Roles: []stcps.Role{{Name: "x", Source: "S.hot", Window: 1}},
		When:  "x.temp > 50",
	}); err != nil {
		return err
	}
	if err := sys.OnCCU("CCU1", stcps.EventSpec{
		ID:    "E.overheat",
		Roles: []stcps.Role{{Name: "x", Source: "CP.hot", Window: 1}},
		When:  "true",
	}); err != nil {
		return err
	}

	report, err := sys.Run(1000)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "=== quickstart: step stimulus through the event hierarchy ===")
	fmt.Fprint(w, report.Summary())

	// Show the first cyber event and its full provenance chain.
	cyber := report.OfEvent("E.overheat")
	if len(cyber) == 0 {
		return fmt.Errorf("no cyber events detected")
	}
	first := cyber[0]
	fmt.Fprintf(w, "\nfirst cyber event: %s\n", first.EntityID())
	fmt.Fprintf(w, "  t^g=%d  t^eo=%v  ρ=%.2f\n", first.Gen, first.Occ, first.Confidence)
	chain, err := report.Lineage(first.EntityID())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  provenance (cyber → physical observation):")
	for _, id := range chain {
		fmt.Fprintf(w, "    %s\n", id)
	}
	fmt.Fprintf(w, "\ndetection latency vs. ground truth step at 500: %d ticks\n",
		first.Gen-500)
	return nil
}
