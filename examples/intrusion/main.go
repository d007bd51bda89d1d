// Command intrusion demonstrates the paper's S1 composite condition
// (Section 4.1): a spatio-temporal sequence — motion at the door strictly
// before motion at the vault, with the two sightings within 12 meters —
// distinguishes a break-in path from benign activity. A patrol guard who
// trips sensors in the opposite order (or far apart) must not raise the
// alarm; an intruder following door → vault must.
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
		Seed:  5,
		Radio: stcps.Radio{Range: 50, HopDelay: 2},
	})
	if err != nil {
		return err
	}
	world := sys.World()

	// The intruder enters by the door (x=10) at t≈1000 and reaches the
	// vault (x=18) shortly after — a true door→vault sequence.
	if err := world.AddObject(&stcps.Object{ID: "intruder", Traj: stcps.NewWaypoints([]stcps.Waypoint{
		{T: 0, P: stcps.Pt(-60, 0)},
		{T: 950, P: stcps.Pt(-60, 0)}, // outside until night
		{T: 1000, P: stcps.Pt(10, 0)}, // at the door
		{T: 1100, P: stcps.Pt(18, 0)}, // at the vault
		{T: 1400, P: stcps.Pt(18, 0)},
	})}); err != nil {
		return err
	}
	// The guard patrols the far wing only (never near door or vault).
	if err := world.AddObject(&stcps.Object{ID: "guard", Traj: stcps.NewWaypoints([]stcps.Waypoint{
		{T: 0, P: stcps.Pt(200, 0)},
		{T: 700, P: stcps.Pt(260, 0)},
		{T: 1400, P: stcps.Pt(200, 0)},
	})}); err != nil {
		return err
	}
	if err := world.AddObject(&stcps.Object{ID: "siren"}); err != nil {
		return err
	}

	// Motion motes at the door and the vault (range sensors on the
	// intruder and the guard — a real motion sensor sees anyone).
	type moteDef struct {
		id  string
		pos stcps.Point
	}
	for _, m := range []moteDef{{"MTdoor", stcps.Pt(10, 2)}, {"MTvault", stcps.Pt(18, 2)}} {
		if err := sys.AddSensorMote(m.id, m.pos, []stcps.SensorConfig{
			{ID: "SRintruder", Object: "intruder", Period: 10},
			{ID: "SRguard", Object: "guard", Period: 10},
		}); err != nil {
			return err
		}
		// Motion = any tracked body within 5 meters.
		if err := sys.OnMote(m.id, stcps.EventSpec{
			ID: "S.motion." + m.id,
			Roles: []stcps.Role{
				{Name: "i", Source: "SRintruder", Window: 1},
				{Name: "g", Source: "SRguard", Window: 1},
			},
			When: "min(i.range, g.range) < 5",
		}); err != nil {
			return err
		}
	}
	if err := sys.AddSink("sink1", stcps.Pt(14, 30)); err != nil {
		return err
	}
	if err := sys.AddCCU("CCU1", stcps.Pt(14, 40)); err != nil {
		return err
	}
	if err := sys.AddDispatch("disp1", stcps.Pt(14, 50)); err != nil {
		return err
	}
	if err := sys.AddActorMote("AR1", stcps.Pt(20, 30), 1); err != nil {
		return err
	}

	// S1-style composite at the sink: door motion strictly before vault
	// motion, locations within 12 meters, within a 150-tick window.
	if err := sys.OnSink("sink1", stcps.EventSpec{
		ID: "CP.breakin",
		Roles: []stcps.Role{
			{Name: "x", Source: "S.motion.MTdoor", Window: 4, MaxAge: 150},
			{Name: "y", Source: "S.motion.MTvault", Window: 4, MaxAge: 150},
		},
		When: "x.time before y.time and dist(x.loc, y.loc) < 12",
	}); err != nil {
		return err
	}
	if err := sys.OnCCU("CCU1", stcps.EventSpec{
		ID:    "E.intrusion",
		Roles: []stcps.Role{{Name: "x", Source: "CP.breakin", Window: 1}},
		When:  "true",
	}); err != nil {
		return err
	}
	if err := sys.AddRule("CCU1", stcps.Rule{
		Event:    "E.intrusion",
		Dispatch: "disp1",
		Actor:    "AR1",
		Cmd:      stcps.ActuatorCommand{Target: "siren", Attr: "on", Value: 1},
		Once:     true,
	}); err != nil {
		return err
	}

	report, err := sys.Run(1600)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "=== intrusion: the paper's S1 spatio-temporal sequence ===")
	fmt.Fprint(w, report.Summary())

	breakins := report.OfEvent("CP.breakin")
	fmt.Fprintf(w, "\nbreak-in detections: %d\n", len(breakins))
	if len(breakins) == 0 {
		return fmt.Errorf("intruder not detected")
	}
	first := breakins[0]
	fmt.Fprintf(w, "  first: %s  t^eo=%v  inputs=%v\n", first.EntityID(), first.Occ, first.Inputs)
	// Sanity: detection happens around the intruder's run (t ~1000-1150),
	// not during the guard's patrol.
	if first.Occ.Start() < 950 {
		return fmt.Errorf("false alarm before the intrusion: %v", first.Occ)
	}
	siren, err := world.Object("siren")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "siren on: %v\n", siren.Attrs["on"] == 1)
	if siren.Attrs["on"] != 1 {
		return fmt.Errorf("siren was not triggered")
	}
	return nil
}
