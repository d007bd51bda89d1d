package node

import (
	"errors"
	"strings"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/network"
	"github.com/stcps/stcps/internal/phys"
	"github.com/stcps/stcps/internal/sim"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wsn"
)

// rig is a minimal end-to-end system: one world, one WSN with two motes
// and a sink, one actor network with one actor mote and a dispatch node,
// one CCU, one store.
type rig struct {
	sched    *sim.Scheduler
	world    *phys.World
	sensNet  *wsn.Network
	actorNet *wsn.Network
	bus      *network.SimBus
	store    *db.Store
	motes    []*MoteNode
	sink     *SinkNode
	ccu      *CCU
	dispatch *DispatchNode
	actor    *ActorMote
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{}
	r.sched = sim.New(11)
	var err error
	r.world, err = phys.NewWorld(r.sched, 5)
	if err != nil {
		t.Fatal(err)
	}
	// User A walks past window B (the paper's running example).
	_ = r.world.AddObject(&phys.Object{ID: "userA", Traj: phys.NewWaypoints([]phys.Waypoint{
		{T: 0, P: spatial.Pt(0, 5)},
		{T: 400, P: spatial.Pt(100, 5)},
	})})
	_ = r.world.AddObject(&phys.Object{ID: "alarm"})

	radio := wsn.Radio{Range: 40, HopDelay: 2, LossRate: 0}
	r.sensNet, err = wsn.New(r.sched, radio)
	if err != nil {
		t.Fatal(err)
	}
	r.actorNet, err = wsn.New(r.sched, radio)
	if err != nil {
		t.Fatal(err)
	}
	r.bus, err = network.NewSimBus(r.sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	r.store, err = db.New(0)
	if err != nil {
		t.Fatal(err)
	}

	// Sensor WSN: motes at x=30 and x=60 near the window, sink at x=45.
	if _, err := r.sensNet.AddMote("MT1", spatial.Pt(30, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sensNet.AddMote("MT2", spatial.Pt(60, 8)); err != nil {
		t.Fatal(err)
	}
	r.sink, err = NewSinkNode(r.sched, r.sensNet, r.bus, r.store, "sink1", spatial.Pt(45, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.sensNet.BuildRoutes(); err != nil {
		t.Fatal(err)
	}

	// Actor WSN: one actor mote and the dispatch gateway.
	if _, err := r.actorNet.AddMote("AR1", spatial.Pt(50, 30)); err != nil {
		t.Fatal(err)
	}
	r.dispatch, err = NewDispatchNode(r.bus, r.actorNet, "disp1", spatial.Pt(45, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.actorNet.BuildRoutes(); err != nil {
		t.Fatal(err)
	}
	r.actor, err = NewActorMote(r.sched, r.world, r.actorNet, "AR1", 1)
	if err != nil {
		t.Fatal(err)
	}

	r.ccu, err = NewCCU(r.sched, r.bus, r.store, "CCU1", spatial.Pt(45, 50), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Mote observers: range sensor on user A, detector "user nearby".
	for _, id := range []string{"MT1", "MT2"} {
		m, err := NewMoteNode(r.sched, r.world, r.sensNet, id, []SensorConfig{
			{ID: "SRrange", Object: "userA", Period: 10},
		}, r.store, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDetector(detect.Spec{
			EventID: "S.near",
			Roles:   []detect.RoleSpec{{Name: "x", Source: "SRrange", Window: 1}},
			Cond:    condition.MustParse("x.range < 25"),
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		r.motes = append(r.motes, m)
	}

	// Sink observer: cyber-physical presence event.
	if err := r.sink.AddDetector(detect.Spec{
		EventID: "CP.presence",
		Roles:   []detect.RoleSpec{{Name: "x", Source: "S.near", Window: 1}},
		Cond:    condition.MustParse("x.range < 25"),
	}); err != nil {
		t.Fatal(err)
	}

	// CCU observer: cyber alert event + action rule.
	if err := r.ccu.AddDetector(detect.Spec{
		EventID: "E.alert",
		Roles:   []detect.RoleSpec{{Name: "x", Source: "CP.presence", Window: 1}},
		Cond:    condition.MustParse("true"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ccu.AddRule(Rule{
		Event:    "E.alert",
		Dispatch: "disp1",
		Actor:    "AR1",
		Cmd:      phys.ActuatorCommand{Target: "alarm", Attr: "on", Value: 1},
		Once:     true,
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestF1ClosedLoop reproduces Figure 1: sensing -> sensor event ->
// cyber-physical event -> cyber event -> actuator command -> physical
// change.
func TestF1ClosedLoop(t *testing.T) {
	r := buildRig(t)
	r.sched.Run(500)

	if r.motes[0].Observations == 0 {
		t.Fatal("mote took no observations")
	}
	if r.motes[0].Sent == 0 && r.motes[1].Sent == 0 {
		t.Fatal("no sensor events sent")
	}
	if r.sink.Received == 0 {
		t.Fatal("sink received nothing")
	}
	if r.sink.Published == 0 {
		t.Fatal("sink published no cyber-physical events")
	}
	if r.ccu.Received == 0 {
		t.Fatal("CCU received nothing")
	}
	if r.ccu.Published == 0 {
		t.Fatal("CCU published no cyber events")
	}
	if r.ccu.Actions != 1 {
		t.Fatalf("CCU actions = %d, want 1 (Once rule)", r.ccu.Actions)
	}
	if r.dispatch.Dispatched != 1 {
		t.Fatalf("dispatched = %d, want 1", r.dispatch.Dispatched)
	}
	if len(r.actor.Executed) != 1 {
		t.Fatalf("executed = %d, want 1", len(r.actor.Executed))
	}
	// The physical world changed: the alarm is on.
	alarm, _ := r.world.Object("alarm")
	if alarm.Attrs["on"] != 1 {
		t.Fatal("control loop did not reach the physical world")
	}
	// Provenance of the command is a cyber event instance.
	if !strings.HasPrefix(r.actor.Executed[0].Cause, "E(CCU1,E.alert,") {
		t.Errorf("command cause = %q", r.actor.Executed[0].Cause)
	}
}

// TestF2LayerHierarchy reproduces Figure 2: an instance chain from cyber
// event down to the physical observation, with provenance intact at every
// layer.
func TestF2LayerHierarchy(t *testing.T) {
	r := buildRig(t)
	r.sched.Run(500)

	all := r.store.All()
	byLayer := make(map[event.Layer]int)
	for _, in := range all {
		byLayer[in.Layer]++
	}
	for _, l := range []event.Layer{event.LayerSensor, event.LayerCyberPhysical, event.LayerCyber} {
		if byLayer[l] == 0 {
			t.Fatalf("no instances at layer %v", l)
		}
	}

	// Find a cyber instance and walk its lineage to an observation.
	var cyber event.Instance
	for _, in := range all {
		if in.Layer == event.LayerCyber {
			cyber = in
			break
		}
	}
	chain, err := r.store.Lineage(cyber.EntityID())
	if err != nil {
		t.Fatal(err)
	}
	var hasSensor, hasCP, hasObs bool
	for _, id := range chain {
		switch {
		case strings.HasPrefix(id, "E(sink1,CP.presence"):
			hasCP = true
		case strings.HasPrefix(id, "E(MT") && strings.Contains(id, "S.near"):
			hasSensor = true
		case strings.HasPrefix(id, "O(MT"):
			hasObs = true
		}
	}
	if !hasCP || !hasSensor || !hasObs {
		t.Fatalf("lineage incomplete: %v", chain)
	}

	// Estimated occurrence times must stay close to the original
	// observation across layers (information kept intact).
	var first event.Instance
	for _, in := range r.store.All() {
		if in.EntityID() == chain[0] {
			first = in
		}
	}
	if first.Event == "" {
		t.Fatalf("cyber instance %s not in the store", chain[0])
	}
	if first.Occ.Start() == 0 && first.Occ.End() == 0 {
		t.Error("cyber instance lost its occurrence estimate")
	}
}

func TestMoteNodeValidation(t *testing.T) {
	s := sim.New(1)
	w, _ := phys.NewWorld(s, 5)
	n, _ := wsn.New(s, wsn.Radio{Range: 10, HopDelay: 1})
	_, _ = n.AddMote("m", spatial.Pt(0, 0))

	if _, err := NewMoteNode(s, w, n, "ghost", []SensorConfig{{ID: "a", Attr: "t", Period: 1}}, nil, 0); !errors.Is(err, wsn.ErrUnknownID) {
		t.Errorf("unknown mote err = %v", err)
	}
	if _, err := NewMoteNode(s, w, n, "m", nil, nil, 0); !errors.Is(err, ErrBadNode) {
		t.Errorf("no sensors err = %v", err)
	}
	bad := []SensorConfig{{ID: "", Attr: "t", Period: 1}}
	if _, err := NewMoteNode(s, w, n, "m", bad, nil, 0); !errors.Is(err, ErrBadSensor) {
		t.Errorf("bad sensor err = %v", err)
	}
	bad = []SensorConfig{{ID: "a", Attr: "t", Period: 0}}
	if _, err := NewMoteNode(s, w, n, "m", bad, nil, 0); !errors.Is(err, ErrBadSensor) {
		t.Errorf("zero period err = %v", err)
	}
	bad = []SensorConfig{{ID: "a", Period: 5}}
	if _, err := NewMoteNode(s, w, n, "m", bad, nil, 0); !errors.Is(err, ErrBadSensor) {
		t.Errorf("samples nothing err = %v", err)
	}

	good, err := NewMoteNode(s, w, n, "m", []SensorConfig{{ID: "a", Attr: "t", Period: 1}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.AddDetector(detect.Spec{
		EventID: "x", Layer: event.LayerCyber,
		Roles: []detect.RoleSpec{{Name: "x", Source: "a"}},
		Cond:  condition.MustParse("true"),
	}); !errors.Is(err, ErrBadNode) {
		t.Errorf("wrong layer err = %v", err)
	}
	if good.ID() != "m" {
		t.Error("ID accessor")
	}
}

func TestObjectAttrSensor(t *testing.T) {
	s := sim.New(1)
	w, _ := phys.NewWorld(s, 5)
	_ = w.AddObject(&phys.Object{ID: "light", Attrs: event.Attrs{"on": 1}})
	n, _ := wsn.New(s, wsn.Radio{Range: 50, HopDelay: 1})
	_, _ = n.AddMote("m", spatial.Pt(0, 0))

	var got []event.Instance
	err := n.AddSink("sink", spatial.Pt(10, 0), func(_ string, p any) {
		if in, ok := p.(event.Instance); ok {
			got = append(got, in)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = n.BuildRoutes()

	m, err := NewMoteNode(s, w, n, "m", []SensorConfig{
		{ID: "SRlight", Object: "light", Attr: "on", Period: 10},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.AddDetector(detect.Spec{
		EventID: "S.lightOn",
		Roles:   []detect.RoleSpec{{Name: "x", Source: "SRlight", Window: 1}},
		Cond:    condition.MustParse("x.on == 1"),
	})
	_ = m.Start()
	s.Run(50)
	if len(got) == 0 {
		t.Fatal("no light-on events detected")
	}
	if got[0].Attrs["on"] != 1 {
		t.Errorf("attrs = %v", got[0].Attrs)
	}
}

func TestIntervalFlushThroughPipeline(t *testing.T) {
	s := sim.New(2)
	w, _ := phys.NewWorld(s, 5)
	_ = w.AddObject(&phys.Object{ID: "u", Traj: phys.Stationary{P: spatial.Pt(5, 0)}})
	n, _ := wsn.New(s, wsn.Radio{Range: 50, HopDelay: 1})
	_, _ = n.AddMote("m", spatial.Pt(0, 0))
	var got []event.Instance
	_ = n.AddSink("sink", spatial.Pt(10, 0), func(_ string, p any) {
		if in, ok := p.(event.Instance); ok {
			got = append(got, in)
		}
	})
	_ = n.BuildRoutes()
	m, _ := NewMoteNode(s, w, n, "m", []SensorConfig{
		{ID: "SRr", Object: "u", Period: 10},
	}, nil, 0)
	_ = m.AddDetector(detect.Spec{
		EventID: "S.occupied",
		Roles:   []detect.RoleSpec{{Name: "x", Source: "SRr", Window: 1}},
		Cond:    condition.MustParse("x.range < 10"),
		Mode:    detect.ModeInterval,
	})
	_ = m.Start()
	s.Run(100)
	if len(got) != 0 {
		t.Fatal("interval should still be open")
	}
	m.FlushIntervals()
	s.Run(110)
	if len(got) != 1 {
		t.Fatalf("flushed instances = %d, want 1", len(got))
	}
	if got[0].TemporalClass() != event.Interval {
		t.Error("flushed instance should be interval")
	}
}

func TestSinkAndCCUValidation(t *testing.T) {
	s := sim.New(1)
	n, _ := wsn.New(s, wsn.Radio{Range: 10, HopDelay: 1})
	bus, _ := network.NewSimBus(s, 0)

	if _, err := NewSinkNode(s, n, bus, nil, "", spatial.Pt(0, 0), 0); !errors.Is(err, ErrBadNode) {
		t.Errorf("empty sink id err = %v", err)
	}
	sink, err := NewSinkNode(s, n, bus, nil, "sk", spatial.Pt(0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.AddDetector(detect.Spec{
		EventID: "x", Layer: event.LayerSensor,
		Roles: []detect.RoleSpec{{Name: "x", Source: "s"}},
		Cond:  condition.MustParse("true"),
	}); !errors.Is(err, ErrBadNode) {
		t.Errorf("wrong sink layer err = %v", err)
	}
	if sink.ID() != "sk" {
		t.Error("sink ID accessor")
	}

	if _, err := NewCCU(s, bus, nil, "", spatial.Pt(0, 0), 0); !errors.Is(err, ErrBadNode) {
		t.Errorf("empty ccu id err = %v", err)
	}
	ccu, err := NewCCU(s, bus, nil, "c", spatial.Pt(0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ccu.AddDetector(detect.Spec{
		EventID: "x", Layer: event.LayerSensor,
		Roles: []detect.RoleSpec{{Name: "x", Source: "s"}},
		Cond:  condition.MustParse("true"),
	}); !errors.Is(err, ErrBadNode) {
		t.Errorf("wrong ccu layer err = %v", err)
	}
	if err := ccu.AddRule(Rule{}); !errors.Is(err, ErrBadNode) {
		t.Errorf("empty rule err = %v", err)
	}
	if err := ccu.AddRule(Rule{Event: "e", Dispatch: "d", Actor: "a", MinConfidence: 2}); !errors.Is(err, ErrBadNode) {
		t.Errorf("bad confidence rule err = %v", err)
	}
	if ccu.ID() != "c" {
		t.Error("ccu ID accessor")
	}

	if _, err := NewDispatchNode(bus, n, "", spatial.Pt(0, 0)); !errors.Is(err, ErrBadNode) {
		t.Errorf("empty dispatch id err = %v", err)
	}
	w, _ := phys.NewWorld(s, 5)
	if _, err := NewActorMote(s, w, n, "ghost", 0); !errors.Is(err, wsn.ErrUnknownID) {
		t.Errorf("unknown actor mote err = %v", err)
	}
	_, _ = n.AddMote("am", spatial.Pt(1, 0))
	if _, err := NewActorMote(s, w, n, "am", -1); !errors.Is(err, ErrBadNode) {
		t.Errorf("negative delay err = %v", err)
	}
}

func TestRuleConfidenceGate(t *testing.T) {
	s := sim.New(1)
	bus, _ := network.NewSimBus(s, 0)
	actorNet, _ := wsn.New(s, wsn.Radio{Range: 50, HopDelay: 1})
	w, _ := phys.NewWorld(s, 5)
	_ = w.AddObject(&phys.Object{ID: "alarm"})
	_, _ = actorNet.AddMote("AR1", spatial.Pt(10, 0))
	dispatch, err := NewDispatchNode(bus, actorNet, "disp", spatial.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = actorNet.BuildRoutes()
	_, _ = NewActorMote(s, w, actorNet, "AR1", 0)

	ccu, _ := NewCCU(s, bus, nil, "C", spatial.Pt(0, 0), 0)
	_ = ccu.AddRule(Rule{
		Event: "E.x", Dispatch: "disp", Actor: "AR1", MinConfidence: 0.8,
		Cmd: phys.ActuatorCommand{Target: "alarm", Attr: "on", Value: 1},
	})

	low := event.Instance{
		Layer: event.LayerCyber, Observer: "other", Event: "E.x", Seq: 1,
		Gen: 0, Occ: timemodel.At(0), Confidence: 0.5,
	}
	_ = bus.Publish("other", "E.x", low)
	s.Run(50)
	if dispatch.Dispatched != 0 {
		t.Fatal("low-confidence event should not trigger the rule")
	}
	high := low
	high.Seq = 2
	high.Confidence = 0.9
	_ = bus.Publish("other", "E.x", high)
	s.Run(100)
	if dispatch.Dispatched != 1 {
		t.Fatalf("dispatched = %d, want 1", dispatch.Dispatched)
	}
	alarm, _ := w.Object("alarm")
	if alarm.Attrs["on"] != 1 {
		t.Fatal("actuation did not reach the world")
	}
}
