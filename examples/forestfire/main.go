// Command forestfire reproduces the paper's field-event example
// (Section 4.2: "a field event refers to a physical phenomena, which
// occurs in an area, e.g., a forest fire"). A fire ignites and spreads; a
// grid of temperature motes detects it; the sink fuses three motes'
// sensor events into a cyber-physical *field* event whose estimated
// occurrence location is the convex hull of the reporting motes; the CCU
// dispatches an extinguish command to an actor mote, stopping the spread
// — the full closed loop of Figure 1.
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
	sys, err := stcps.NewSystem(stcps.Config{
		Seed:  3,
		Radio: stcps.Radio{Range: 60, HopDelay: 2},
	})
	if err != nil {
		return err
	}
	world := sys.World()

	fire := &stcps.Fire{
		Name: "temp", Base: 18, Peak: 420,
		Origin: stcps.Pt(50, 50), Ignite: 300, Rate: 0.15,
	}
	if err := world.AddPhenomenon("fire1", fire); err != nil {
		return err
	}
	if err := world.AddPhenomenon("ambient", stcps.Uniform{Name: "temp", Value: 18}); err != nil {
		return err
	}

	// A 3×3 grid of temperature motes around the ignition point.
	moteIDs := make([]string, 0, 9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			id := fmt.Sprintf("MT%d%d", i, j)
			moteIDs = append(moteIDs, id)
			pos := stcps.Pt(35+float64(i)*15, 35+float64(j)*15)
			if err := sys.AddSensorMote(id, pos, []stcps.SensorConfig{
				{ID: "SRtemp", Attr: "temp", Period: 25, Noise: 0.5},
			}); err != nil {
				return err
			}
			if err := sys.OnMote(id, stcps.EventSpec{
				ID:    "S.hot." + id,
				Roles: []stcps.Role{{Name: "x", Source: "SRtemp", Window: 1}},
				When:  "x.temp > 80",
			}); err != nil {
				return err
			}
		}
	}
	if err := sys.AddSink("sink1", stcps.Pt(50, 95)); err != nil {
		return err
	}
	if err := sys.AddCCU("CCU1", stcps.Pt(50, 110)); err != nil {
		return err
	}
	if err := sys.AddDispatch("disp1", stcps.Pt(50, 120)); err != nil {
		return err
	}
	if err := sys.AddActorMote("AR1", stcps.Pt(55, 95), 2); err != nil {
		return err
	}

	// Field event: three distinct hot motes seen within 60 ticks of each
	// other; l^eo is their convex hull — "a field occurrence location is
	// made of at least 2 or more point events" (Section 4.2).
	if err := sys.OnSink("sink1", stcps.EventSpec{
		ID: "CP.fireFront",
		Roles: []stcps.Role{
			{Name: "a", Source: "S.hot.MT11", Window: 1, MaxAge: 60},
			{Name: "b", Source: "S.hot.MT01", Window: 1, MaxAge: 60},
			{Name: "c", Source: "S.hot.MT10", Window: 1, MaxAge: 60},
		},
		When:        "avg(a.temp, b.temp, c.temp) > 80",
		EstimateLoc: "hull",
		Confidence:  "noisy-or",
	}); err != nil {
		return err
	}
	if err := sys.OnCCU("CCU1", stcps.EventSpec{
		ID:    "E.fireAlarm",
		Roles: []stcps.Role{{Name: "x", Source: "CP.fireFront", Window: 1}},
		When:  "area(x.loc) > 10",
	}); err != nil {
		return err
	}
	if err := sys.AddRule("CCU1", stcps.Rule{
		Event:         "E.fireAlarm",
		MinConfidence: 0.5,
		Dispatch:      "disp1",
		Actor:         "AR1",
		Cmd:           stcps.ActuatorCommand{Target: "fire1", Extinguish: true},
		Once:          true,
	}); err != nil {
		return err
	}

	report, err := sys.Run(3000)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "=== forest fire: field event detection and suppression ===")
	fmt.Fprint(w, report.Summary())

	fronts := report.OfEvent("CP.fireFront")
	if len(fronts) == 0 {
		return fmt.Errorf("fire front never detected")
	}
	first := fronts[0]
	fmt.Fprintf(w, "\nfirst fire-front instance: %s\n", first.EntityID())
	fmt.Fprintf(w, "  spatial class: %s (estimated extent %s)\n",
		first.SpatialClass(), first.OccLoc())
	fmt.Fprintf(w, "  t^g=%d  ρ=%.3f  inputs=%d motes\n",
		first.Gen, first.Confidence, len(first.Inputs))

	alarms := report.OfEvent("E.fireAlarm")
	if len(alarms) > 0 {
		fmt.Fprintf(w, "\nfire alarm raised at t=%d (fire ignited at 300, EDL=%d ticks)\n",
			alarms[0].Gen, alarms[0].Gen-300)
	}
	fmt.Fprintf(w, "fire burning at end of run: %v (radius frozen at %.1f)\n",
		fire.Burning(report.Horizon), fire.Radius(report.Horizon))
	if fire.Burning(report.Horizon) {
		return fmt.Errorf("suppression failed")
	}
	return nil
}
