package node

import (
	"fmt"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/network"
	"github.com/stcps/stcps/internal/sim"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wsn"
)

// SinkNode is a WSN sink — the second level of observers. It receives
// sensor event instances from motes over the WSN, evaluates cyber-physical
// event conditions, and publishes the resulting cyber-physical event
// instances on the CPS network (Fig. 1: "Publish Cyber-Physical Event
// Instances").
type SinkNode struct {
	id     string
	pos    spatial.Point
	sched  *sim.Scheduler
	bus    network.Bus
	store  *db.Store
	bank   *engine.Bank
	logTTL timemodel.Tick

	// Received counts instances arriving from motes; Published counts
	// cyber-physical instances published.
	Received  uint64
	Published uint64
}

// NewSinkNode creates a sink observer and registers it in the WSN at pos.
// store may be nil.
func NewSinkNode(sched *sim.Scheduler, net *wsn.Network, bus network.Bus, store *db.Store, id string, pos spatial.Point, logTTL timemodel.Tick) (*SinkNode, error) {
	if id == "" {
		return nil, fmt.Errorf("sink needs an id: %w", ErrBadNode)
	}
	s := &SinkNode{
		id:     id,
		pos:    pos,
		sched:  sched,
		bus:    bus,
		store:  store,
		logTTL: logTTL,
	}
	bank, err := engine.NewBank(engine.Config{
		Observer: id,
		Loc:      spatial.AtPt(pos),
		LogBatch: logAfter(sched, store, logTTL),
		Emit:     s.publish,
	})
	if err != nil {
		return nil, err
	}
	s.bank = bank
	if err := net.AddSink(id, pos, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// ID returns the sink identifier.
func (s *SinkNode) ID() string { return s.id }

// AddDetector installs a cyber-physical event detector. Role sources
// refer to sensor event ids.
func (s *SinkNode) AddDetector(spec detect.Spec) error {
	if spec.Layer == 0 {
		spec.Layer = event.LayerCyberPhysical
	}
	if spec.Layer != event.LayerCyberPhysical {
		return fmt.Errorf("sink detector layer %v: %w", spec.Layer, ErrBadNode)
	}
	_, err := s.bank.AddDetector(spec)
	return err
}

// Bank exposes the sink's detection engine bank (tracing, stats).
func (s *SinkNode) Bank() *engine.Bank { return s.bank }

// handle is the WSN uplink handler: sensor event instances arrive here.
func (s *SinkNode) handle(from string, payload any) {
	inst, ok := payload.(event.Instance)
	if !ok {
		return
	}
	s.Received++
	if s.store != nil {
		in := inst
		s.sched.After(s.logTTL, func() { _ = s.store.Log(in) })
	}
	s.bank.Ingest(inst.Event, inst, inst.Confidence, s.sched.Now(), spatial.AtPt(s.pos))
}

// publish is the bank's emit hook: cyber-physical instances go onto the
// CPS network (the bank's LogBatch hook already scheduled the round's
// logging).
func (s *SinkNode) publish(inst event.Instance) {
	s.Published++
	// Topic is the event id; subscription errors are configuration
	// errors caught in tests.
	_ = s.bus.Publish(s.id, inst.Event, inst)
}

// FlushIntervals closes open interval detections (end of run).
func (s *SinkNode) FlushIntervals() {
	s.bank.Flush(s.sched.Now(), spatial.AtPt(s.pos))
}
