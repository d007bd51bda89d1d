// Package node implements the observer hierarchy of the CPS architecture
// (Tan, Vuran, Goddard, ICDCSW 2009, Sections 3 and 5, Figs. 1 and 2):
//
//   - MoteNode — a sensor mote, the first level of observers: samples its
//     sensors into physical observations (Eq. 5.2) and evaluates sensor
//     event conditions into sensor event instances (Eq. 5.3), which it
//     sends over the WSN to its sink;
//   - SinkNode — a WSN sink, the second level: collects sensor event
//     instances and generates cyber-physical event instances (Eq. 5.4),
//     publishing them on the CPS network;
//   - CCU — a CPS control unit, the highest level: combines cyber-physical
//     and cyber event instances into cyber events (Eq. 5.5) and associates
//     actions with them (event–action rules);
//   - DispatchNode — disseminates actuator commands to actor motes;
//   - ActorMote — executes actuator commands against the physical world,
//     closing the control loop.
package node

import (
	"errors"
	"fmt"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/phys"
	"github.com/stcps/stcps/internal/sim"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wsn"
)

// logAfter builds the engine LogBatch hook shared by all observer
// nodes: the paper's "automatically transferred to the database server
// after a certain time" — each instance of an emission round is
// appended to the store ttl ticks after its generation. A nil store
// disables logging.
func logAfter(sched *sim.Scheduler, store *db.Store, ttl timemodel.Tick) engine.BatchFunc {
	if store == nil {
		return nil
	}
	return func(ins []event.Instance) {
		for _, in := range ins {
			sched.After(ttl, func() { _ = store.Log(in) })
		}
	}
}

// Node errors.
var (
	// ErrBadSensor is returned for invalid sensor configurations.
	ErrBadSensor = errors.New("node: invalid sensor config")
	// ErrBadNode is returned for invalid node configurations.
	ErrBadNode = errors.New("node: invalid node config")
)

// SensorConfig describes one sensor SR installed on a mote. A sensor
// measures exactly one physical property (Section 3): a phenomenon
// attribute (Attr set, Object empty), the distance to a physical object
// (Object set, Attr empty — producing the "range" attribute, as in the
// paper's "range measurement of user A" example), or an object's own
// attribute (both set, e.g. a light sensor reading the light's "on"
// state).
type SensorConfig struct {
	// ID is the sensor identifier SR_id; also the detector source key.
	ID string
	// Attr is the sampled attribute name.
	Attr string
	// Object is the physical object the sensor observes, when not
	// sampling a phenomenon.
	Object string
	// Period is the sampling period in ticks.
	Period timemodel.Tick
	// Offset delays the first sample (phase), defaulting to 0.
	Offset timemodel.Tick
	// Noise is the standard deviation of additive Gaussian measurement
	// noise.
	Noise float64
}

// RangeAttr is the attribute name produced by range sensors.
const RangeAttr = "range"

func (c SensorConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("sensor needs an id: %w", ErrBadSensor)
	}
	if c.Period <= 0 {
		return fmt.Errorf("sensor %q period %d: %w", c.ID, c.Period, ErrBadSensor)
	}
	if c.Attr == "" && c.Object == "" {
		return fmt.Errorf("sensor %q samples nothing: %w", c.ID, ErrBadSensor)
	}
	return nil
}

// attrName returns the attribute the sensor reports.
func (c SensorConfig) attrName() string {
	if c.Object != "" && c.Attr == "" {
		return RangeAttr
	}
	return c.Attr
}

// MoteNode is a sensor mote observer. It is driven entirely by the
// simulation scheduler.
type MoteNode struct {
	id      string
	mote    *wsn.Mote
	world   *phys.World
	net     *wsn.Network
	sched   *sim.Scheduler
	sensors []SensorConfig
	bank    *engine.Bank
	store   *db.Store
	logTTL  timemodel.Tick
	seq     map[string]uint64

	// Observations counts samples taken; Sent counts instances sent
	// upstream.
	Observations uint64
	Sent         uint64
}

// NewMoteNode creates a mote observer for an already-registered WSN mote.
// store may be nil (no observation logging); logTTL is the paper's
// "automatically transferred to the database server after a certain time".
func NewMoteNode(sched *sim.Scheduler, world *phys.World, net *wsn.Network, moteID string, sensors []SensorConfig, store *db.Store, logTTL timemodel.Tick) (*MoteNode, error) {
	m, err := net.Mote(moteID)
	if err != nil {
		return nil, err
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("mote %q has no sensors: %w", moteID, ErrBadNode)
	}
	for _, sc := range sensors {
		if err := sc.validate(); err != nil {
			return nil, err
		}
	}
	mn := &MoteNode{
		id:      moteID,
		mote:    m,
		world:   world,
		net:     net,
		sched:   sched,
		sensors: append([]SensorConfig(nil), sensors...),
		store:   store,
		logTTL:  logTTL,
		seq:     make(map[string]uint64, len(sensors)),
	}
	mn.bank, err = engine.NewBank(engine.Config{
		Observer: moteID,
		Loc:      spatial.AtPt(m.Pos),
		LogBatch: logAfter(sched, store, logTTL),
		Emit:     mn.send,
	})
	if err != nil {
		return nil, err
	}
	return mn, nil
}

// ID returns the mote identifier.
func (m *MoteNode) ID() string { return m.id }

// AddDetector installs a sensor-event detector on the mote. The spec's
// layer must be LayerSensor; role sources refer to sensor IDs.
func (m *MoteNode) AddDetector(spec detect.Spec) error {
	if spec.Layer == 0 {
		spec.Layer = event.LayerSensor
	}
	if spec.Layer != event.LayerSensor {
		return fmt.Errorf("mote detector layer %v: %w", spec.Layer, ErrBadNode)
	}
	_, err := m.bank.AddDetector(spec)
	return err
}

// Bank exposes the mote's detection engine bank (tracing, stats).
func (m *MoteNode) Bank() *engine.Bank { return m.bank }

// Start schedules periodic sampling for every sensor.
func (m *MoteNode) Start() error {
	for i := range m.sensors {
		sc := m.sensors[i]
		if _, err := m.sched.Every(sc.Offset, sc.Period, func() { m.sample(sc) }); err != nil {
			return fmt.Errorf("mote %q: %w", m.id, err)
		}
	}
	return nil
}

// sample takes one observation from a sensor and runs the mote's
// detectors.
func (m *MoteNode) sample(sc SensorConfig) {
	val, ok := m.measure(sc)
	if !ok {
		return
	}
	m.seq[sc.ID]++
	m.Observations++
	obs := event.Observation{
		Mote:   m.id,
		Sensor: sc.ID,
		Seq:    m.seq[sc.ID],
		Time:   timemodel.At(m.sched.Now()),
		Loc:    spatial.AtPt(m.mote.Pos),
		Attrs:  event.Attrs{sc.attrName(): val},
	}
	if m.store != nil {
		o := obs
		m.sched.After(m.logTTL, func() { m.store.LogObservation(o) })
	}
	m.bank.Ingest(sc.ID, obs, 1, m.sched.Now(), spatial.AtPt(m.mote.Pos))
}

// measure resolves the sensor's physical value at the current time.
func (m *MoteNode) measure(sc SensorConfig) (float64, bool) {
	var (
		v  float64
		ok bool
	)
	switch {
	case sc.Object != "" && sc.Attr == "":
		pos, err := m.world.ObjectPos(sc.Object)
		if err != nil {
			return 0, false
		}
		v, ok = m.mote.Pos.Dist(pos), true
	case sc.Object != "":
		obj, err := m.world.Object(sc.Object)
		if err != nil {
			return 0, false
		}
		v, ok = obj.Attrs[sc.Attr], true
	default:
		v, ok = m.world.SampleAttr(sc.Attr, m.mote.Pos)
	}
	if !ok {
		return 0, false
	}
	if sc.Noise > 0 {
		v += m.sched.RNG().NormFloat64() * sc.Noise
	}
	return v, true
}

// send is the bank's emit hook: sensor event instances go up the WSN
// (the bank's LogBatch hook already scheduled the round's logging).
func (m *MoteNode) send(inst event.Instance) {
	m.Sent++
	// Radio loss is part of the model; routing errors are programming
	// errors surfaced by tests via Stats.
	_ = m.net.SendUp(m.id, inst)
}

// FlushIntervals closes any open interval detections at the current time
// (end of run).
func (m *MoteNode) FlushIntervals() {
	m.bank.Flush(m.sched.Now(), spatial.AtPt(m.mote.Pos))
}
