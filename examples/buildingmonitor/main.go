// Command buildingmonitor reproduces the paper's running example
// (Sections 1 and 4.2): the event "user A is nearby window B", detected
// both as a punctual event (the instant the user enters the nearby
// region) and as an interval event (the whole stay, opened on entry and
// closed on exit). Two range-sensing motes observe the user; the sink
// joins their sensor events; a CCU raises the cyber event and switches a
// light on through the actor network.
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
		Seed:  7,
		Radio: stcps.Radio{Range: 40, HopDelay: 2},
	})
	if err != nil {
		return err
	}
	world := sys.World()

	// User A walks along the corridor past window B (region
	// [40,60]×[0,10]) and back.
	if err := world.AddObject(&stcps.Object{ID: "userA", Traj: stcps.NewWaypoints([]stcps.Waypoint{
		{T: 0, P: stcps.Pt(0, 5)},
		{T: 400, P: stcps.Pt(100, 5)},
		{T: 800, P: stcps.Pt(0, 5)},
	})}); err != nil {
		return err
	}
	if err := world.AddObject(&stcps.Object{ID: "lightB"}); err != nil {
		return err
	}
	window, err := stcps.Rect(40, 0, 60, 10)
	if err != nil {
		return err
	}
	// Ground truth: the paper's interval-event reading of "nearby".
	if err := world.WatchRegion("P.nearby", "userA", window); err != nil {
		return err
	}

	// Two motes flank the window; both must be in range for "nearby".
	for _, m := range []struct {
		id string
		at stcps.Point
	}{{"MT1", stcps.Pt(40, 8)}, {"MT2", stcps.Pt(60, 8)}} {
		if err := sys.AddSensorMote(m.id, m.at, []stcps.SensorConfig{
			{ID: "SRrange", Object: "userA", Period: 10, Noise: 0.1},
		}); err != nil {
			return err
		}
		// Two sensor-level abstractions of the same physical situation
		// (the paper's point that different observers abstract one event
		// differently): a gated "near" event for punctual detection, and
		// an ungated range reading stream that lets the sink's interval
		// detector observe the condition turning false again.
		if err := sys.OnMote(m.id, stcps.EventSpec{
			ID:    "S.near." + m.id,
			Roles: []stcps.Role{{Name: "x", Source: "SRrange", Window: 1}},
			When:  "x.range < 15",
		}); err != nil {
			return err
		}
		if err := sys.OnMote(m.id, stcps.EventSpec{
			ID:    "S.range." + m.id,
			Roles: []stcps.Role{{Name: "x", Source: "SRrange", Window: 1}},
			When:  "true",
		}); err != nil {
			return err
		}
	}
	if err := sys.AddSink("sink1", stcps.Pt(50, 20)); err != nil {
		return err
	}
	if err := sys.AddCCU("CCU1", stcps.Pt(50, 30)); err != nil {
		return err
	}
	if err := sys.AddDispatch("disp1", stcps.Pt(50, 40)); err != nil {
		return err
	}
	if err := sys.AddActorMote("AR1", stcps.Pt(55, 40), 1); err != nil {
		return err
	}

	// Punctual variant: an instance per joint sighting.
	if err := sys.OnSink("sink1", stcps.EventSpec{
		ID: "CP.nearby",
		Roles: []stcps.Role{
			{Name: "x", Source: "S.near.MT1", Window: 1, MaxAge: 20},
			{Name: "y", Source: "S.near.MT2", Window: 1, MaxAge: 20},
		},
		When: "x.range < 15 and y.range < 15",
	}); err != nil {
		return err
	}
	// Interval variant: one instance per stay (Section 4.2: "the event
	// starts once the user is detected entering into the area and ends
	// once the user is detected leaving this area"). It watches the
	// ungated range stream so it can observe the exit.
	if err := sys.OnSink("sink1", stcps.EventSpec{
		ID: "CP.nearbyStay",
		Roles: []stcps.Role{
			{Name: "x", Source: "S.range.MT1", Window: 1, MaxAge: 40},
			{Name: "y", Source: "S.range.MT2", Window: 1, MaxAge: 40},
		},
		When:     "x.range < 15 and y.range < 15",
		Interval: true,
	}); err != nil {
		return err
	}
	if err := sys.OnCCU("CCU1", stcps.EventSpec{
		ID:    "E.presence",
		Roles: []stcps.Role{{Name: "x", Source: "CP.nearby", Window: 1}},
		When:  "true",
	}); err != nil {
		return err
	}
	if err := sys.AddRule("CCU1", stcps.Rule{
		Event:    "E.presence",
		Dispatch: "disp1",
		Actor:    "AR1",
		Cmd:      stcps.ActuatorCommand{Target: "lightB", Attr: "on", Value: 1},
		Once:     true,
	}); err != nil {
		return err
	}

	// The condition compiler decides per event how its condition will be
	// evaluated; printing the plans makes the example double as a
	// planner smoke test.
	fmt.Fprintln(w, "=== compiled detection plans ===")
	for _, p := range sys.PlanDescriptions() {
		fmt.Fprintln(w, "  "+p)
	}
	fmt.Fprintln(w)

	report, err := sys.Run(1000)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "=== building monitor: \"user A is nearby window B\" ===")
	fmt.Fprint(w, report.Summary())

	fmt.Fprintln(w, "\nground truth (interval physical events):")
	for _, tr := range report.Truth {
		fmt.Fprintf(w, "  %-12s occurred %v\n", tr.ID, tr.Time)
	}

	fmt.Fprintln(w, "\ninterval detections (CP.nearbyStay):")
	for _, in := range report.OfEvent("CP.nearbyStay") {
		fmt.Fprintf(w, "  %s  t^eo=%v  class=%s  ρ=%.2f\n",
			in.EntityID(), in.Occ, in.TemporalClass(), in.Confidence)
	}

	punctual := report.OfEvent("CP.nearby")
	fmt.Fprintf(w, "\npunctual detections (CP.nearby): %d instances", len(punctual))
	if len(punctual) > 0 {
		fmt.Fprintf(w, ", first at t^eo=%v", punctual[0].Occ)
	}
	fmt.Fprintln(w)

	score := report.Score("P.nearby", "CP.nearbyStay", 30)
	fmt.Fprintf(w, "\ninterval detection vs ground truth: %v\n", score)
	edl := report.EDL("P.nearby", "CP.nearby", 30)
	fmt.Fprintf(w, "event detection latency (punctual): %s\n", edl.Summary())

	// "Later retrieval" (Section 3): the database server answers
	// combined region×time queries over everything the observers
	// logged. Page through the punctual detections estimated inside the
	// window region during the first pass of the walk.
	nearWindow := stcps.InField(window)
	q := stcps.QuerySpec{
		Event:  "CP.nearby",
		Region: &nearWindow,
		Window: &stcps.TimeWindow{From: 0, To: 500},
		Limit:  3,
	}
	fmt.Fprintln(w, "\nquery: CP.nearby joint with the window region, t^eo ∈ [0, 500]:")
	queried := 0
	var first string
	for {
		page, err := sys.Store().QueryST(q)
		if err != nil {
			return err
		}
		for _, in := range page.Instances {
			if first == "" {
				first = in.EntityID()
			}
			queried++
			fmt.Fprintf(w, "  %s  t^eo=%v  l^eo=%v\n", in.EntityID(), in.Occ, in.Loc)
		}
		if page.NextCursor == "" {
			fmt.Fprintf(w, "  %d instances via the %q index (%d candidates verified)\n",
				queried, page.Index, page.Scanned)
			break
		}
		q.Cursor = page.NextCursor
	}

	// Provenance of the first retrieved detection, back to the raw
	// range observations.
	if first != "" {
		chain, err := sys.Store().Lineage(first)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "lineage of %s: %d entities deep\n", first, len(chain))
		for _, id := range chain {
			fmt.Fprintf(w, "  %s\n", id)
		}
	}

	light, err := world.Object("lightB")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "light B switched on by the control loop: %v\n", light.Attrs["on"] == 1)
	return nil
}
