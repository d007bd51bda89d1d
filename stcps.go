// Package stcps is a Go implementation of the spatio-temporal event model
// for cyber-physical systems of Tan, Vuran, Goddard (ICDCS Workshops
// 2009), together with every substrate the paper's architecture depends
// on: a physical-world simulator, a sensor/actor network, a
// publish-subscribe CPS network, the layered observer hierarchy
// (motes → sinks → CCUs), a database server, and an event detection
// latency analysis.
//
// A System assembles the full Figure-1 architecture. Events are declared
// with EventSpec, whose When field uses the condition language — the
// textual form of the paper's composite event conditions:
//
//	sys, _ := stcps.NewSystem(stcps.Config{Seed: 1})
//	... add motes, sinks, CCUs ...
//	sys.OnMote("MT1", stcps.EventSpec{
//	    ID:    "S.near",
//	    Roles: []stcps.Role{{Name: "x", Source: "SRrange"}},
//	    When:  "x.range < 25",
//	})
//	report, _ := sys.Run(10_000)
package stcps

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/network"
	"github.com/stcps/stcps/internal/node"
	"github.com/stcps/stcps/internal/phys"
	"github.com/stcps/stcps/internal/sim"
	"github.com/stcps/stcps/internal/wsn"
)

// System errors.
var (
	// ErrStarted is returned when mutating a system after Run.
	ErrStarted = errors.New("stcps: system already ran")
	// ErrUnknownNode is returned when a node id cannot be resolved.
	ErrUnknownNode = errors.New("stcps: unknown node")
)

// Config parameterizes a System. The zero value of each field selects a
// sensible default.
type Config struct {
	// Seed drives all simulated randomness (default 1).
	Seed int64
	// Radio is the sensor-network channel model (default: range 30,
	// 2-tick hops, no loss).
	Radio Radio
	// ActorRadio is the actor-network channel model (default: Radio).
	ActorRadio Radio
	// BusDelay is the CPS-network delivery delay (default 3).
	BusDelay Tick
	// WorldResolution is the ground-truth sampling period (default 5).
	WorldResolution Tick
	// LogTTL is the delay before instances are auto-transferred to the
	// database server (default 10), per Section 3.
	LogTTL Tick
	// DBCell is the database spatial-index cell size (default 16).
	DBCell float64
	// DBRetention bounds the database server's memory (the zero value
	// retains everything).
	DBRetention Retention
}

func (c *Config) normalize() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Radio.Range == 0 {
		c.Radio = Radio{Range: 30, HopDelay: 2, LossRate: 0}
	}
	if c.ActorRadio.Range == 0 {
		c.ActorRadio = c.Radio
	}
	if c.BusDelay == 0 {
		c.BusDelay = 3
	}
	if c.WorldResolution == 0 {
		c.WorldResolution = 5
	}
	if c.LogTTL == 0 {
		c.LogTTL = 10
	}
}

// System is an assembled CPS: the Figure-1 architecture ready to run.
// It is not safe for concurrent use; build it, run it, read the report.
type System struct {
	cfg        Config
	sched      *sim.Scheduler
	world      *phys.World
	sensNet    *wsn.Network
	actorNet   *wsn.Network
	bus        *network.SimBus
	store      *db.Store
	motes      map[string]*node.MoteNode
	sinks      map[string]*node.SinkNode
	ccus       map[string]*node.CCU
	dispatches map[string]*node.DispatchNode
	actors     map[string]*node.ActorMote
	started    bool
}

// NewSystem creates an empty system.
func NewSystem(cfg Config) (*System, error) {
	cfg.normalize()
	sched := sim.New(cfg.Seed)
	world, err := phys.NewWorld(sched, cfg.WorldResolution)
	if err != nil {
		return nil, err
	}
	sensNet, err := wsn.New(sched, cfg.Radio)
	if err != nil {
		return nil, fmt.Errorf("stcps: sensor network: %w", err)
	}
	actorNet, err := wsn.New(sched, cfg.ActorRadio)
	if err != nil {
		return nil, fmt.Errorf("stcps: actor network: %w", err)
	}
	bus, err := network.NewSimBus(sched, cfg.BusDelay)
	if err != nil {
		return nil, err
	}
	store, err := db.New(cfg.DBCell)
	if err != nil {
		return nil, err
	}
	store.SetRetention(cfg.DBRetention)
	return &System{
		cfg:        cfg,
		sched:      sched,
		world:      world,
		sensNet:    sensNet,
		actorNet:   actorNet,
		bus:        bus,
		store:      store,
		motes:      make(map[string]*node.MoteNode),
		sinks:      make(map[string]*node.SinkNode),
		ccus:       make(map[string]*node.CCU),
		dispatches: make(map[string]*node.DispatchNode),
		actors:     make(map[string]*node.ActorMote),
	}, nil
}

// World exposes the simulated physical world for scenario setup (objects,
// phenomena, ground-truth watchers).
func (s *System) World() *phys.World { return s.world }

// Store exposes the database server.
func (s *System) Store() *db.Store { return s.store }

// Now returns the current virtual time.
func (s *System) Now() Tick { return s.sched.Now() }

// AddSensorMote registers a sensor mote observer with its sensors.
func (s *System) AddSensorMote(id string, pos Point, sensors []SensorConfig) error {
	if s.started {
		return ErrStarted
	}
	if _, err := s.sensNet.AddMote(id, pos); err != nil {
		return err
	}
	m, err := node.NewMoteNode(s.sched, s.world, s.sensNet, id, sensors, s.store, s.cfg.LogTTL)
	if err != nil {
		return err
	}
	s.motes[id] = m
	return nil
}

// AddSink registers a WSN sink node.
func (s *System) AddSink(id string, pos Point) error {
	if s.started {
		return ErrStarted
	}
	sk, err := node.NewSinkNode(s.sched, s.sensNet, s.bus, s.store, id, pos, s.cfg.LogTTL)
	if err != nil {
		return err
	}
	s.sinks[id] = sk
	return nil
}

// AddCCU registers a CPS control unit.
func (s *System) AddCCU(id string, pos Point) error {
	if s.started {
		return ErrStarted
	}
	c, err := node.NewCCU(s.sched, s.bus, s.store, id, pos, s.cfg.LogTTL)
	if err != nil {
		return err
	}
	s.ccus[id] = c
	return nil
}

// AddDispatch registers a dispatch node gateway into the actor network.
func (s *System) AddDispatch(id string, pos Point) error {
	if s.started {
		return ErrStarted
	}
	d, err := node.NewDispatchNode(s.bus, s.actorNet, id, pos)
	if err != nil {
		return err
	}
	s.dispatches[id] = d
	return nil
}

// AddActorMote registers an actor mote with its actuation delay.
func (s *System) AddActorMote(id string, pos Point, delay Tick) error {
	if s.started {
		return ErrStarted
	}
	if _, err := s.actorNet.AddMote(id, pos); err != nil {
		return err
	}
	a, err := node.NewActorMote(s.sched, s.world, s.actorNet, id, delay)
	if err != nil {
		return err
	}
	s.actors[id] = a
	return nil
}

// OnMote declares a sensor event detected at a mote (first observer
// level; Eq. 5.3). Role sources name the mote's sensor IDs.
func (s *System) OnMote(moteID string, spec EventSpec) error {
	m, ok := s.motes[moteID]
	if !ok {
		return fmt.Errorf("mote %q: %w", moteID, ErrUnknownNode)
	}
	ds, err := spec.toDetect(LayerSensor)
	if err != nil {
		return err
	}
	return m.AddDetector(ds)
}

// OnSink declares a cyber-physical event detected at a sink (second
// observer level; Eq. 5.4). Role sources name sensor event IDs.
func (s *System) OnSink(sinkID string, spec EventSpec) error {
	sk, ok := s.sinks[sinkID]
	if !ok {
		return fmt.Errorf("sink %q: %w", sinkID, ErrUnknownNode)
	}
	ds, err := spec.toDetect(LayerCyberPhysical)
	if err != nil {
		return err
	}
	return sk.AddDetector(ds)
}

// OnCCU declares a cyber event detected at a CCU (highest observer
// level; Eq. 5.5). Role sources name cyber-physical or cyber event IDs.
func (s *System) OnCCU(ccuID string, spec EventSpec) error {
	c, ok := s.ccus[ccuID]
	if !ok {
		return fmt.Errorf("ccu %q: %w", ccuID, ErrUnknownNode)
	}
	ds, err := spec.toDetect(LayerCyber)
	if err != nil {
		return err
	}
	return c.AddDetector(ds)
}

// AddRule installs an event–action rule on a CCU.
func (s *System) AddRule(ccuID string, r Rule) error {
	c, ok := s.ccus[ccuID]
	if !ok {
		return fmt.Errorf("ccu %q: %w", ccuID, ErrUnknownNode)
	}
	return c.AddRule(r)
}

// PlanDescriptions lists every declared event's compiled evaluation
// plan across the system's observers, as "node/eventID: plan", sorted —
// log it at startup to see how each condition will be evaluated.
func (s *System) PlanDescriptions() []string {
	var out []string
	for id, m := range s.motes {
		for _, p := range m.Bank().PlanDescriptions() {
			out = append(out, id+"/"+p)
		}
	}
	for id, sk := range s.sinks {
		for _, p := range sk.Bank().PlanDescriptions() {
			out = append(out, id+"/"+p)
		}
	}
	for id, c := range s.ccus {
		for _, p := range c.Bank().PlanDescriptions() {
			out = append(out, id+"/"+p)
		}
	}
	sort.Strings(out)
	return out
}

// drainSlack is how long Run lets the system settle after the nominal
// horizon so in-flight messages and flushed intervals reach the store.
func (s *System) drainSlack() Tick {
	slack := 20*s.cfg.Radio.HopDelay + 20*s.cfg.ActorRadio.HopDelay + 10*s.cfg.BusDelay + s.cfg.LogTTL + 100
	return slack
}

// Run builds routes, starts sampling, runs the simulation to the horizon,
// flushes open interval detections, lets in-flight traffic drain, and
// returns the report. Run can be called once.
func (s *System) Run(until Tick) (*Report, error) {
	if s.started {
		return nil, ErrStarted
	}
	s.started = true
	if len(s.motes) > 0 {
		if err := s.sensNet.BuildRoutes(); err != nil {
			return nil, err
		}
	}
	if len(s.actors) > 0 {
		if err := s.actorNet.BuildRoutes(); err != nil {
			return nil, err
		}
	}
	if err := s.world.Start(); err != nil {
		return nil, err
	}
	// Nodes start and flush in id order: events scheduled for the same
	// tick run in the order they were queued, so a map-ordered walk would
	// make a seeded run differ from the next.
	for _, id := range slices.Sorted(maps.Keys(s.motes)) {
		if err := s.motes[id].Start(); err != nil {
			return nil, err
		}
	}
	s.sched.Run(until)

	// Close open intervals bottom-up so flushed sensor events can still
	// complete cyber-physical and cyber detections during the drain.
	for _, id := range slices.Sorted(maps.Keys(s.motes)) {
		s.motes[id].FlushIntervals()
	}
	s.sched.Run(until + s.drainSlack()/2)
	for _, id := range slices.Sorted(maps.Keys(s.sinks)) {
		s.sinks[id].FlushIntervals()
	}
	for _, id := range slices.Sorted(maps.Keys(s.ccus)) {
		s.ccus[id].FlushIntervals()
	}
	s.world.Finish()
	s.sched.Run(until + s.drainSlack())

	return s.buildReport(), nil
}
