package node

import (
	"fmt"

	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/engine"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/network"
	"github.com/stcps/stcps/internal/phys"
	"github.com/stcps/stcps/internal/sim"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// CommandMsg is an actuator command routed from a CCU through a dispatch
// node to an actor mote (Fig. 1: "Publish ... Actuator Commands" /
// "Dispatch Nodes ... Receive Actuator Commands").
type CommandMsg struct {
	// Actor is the destination actor mote id.
	Actor string
	// Cmd is the physical actuation to execute.
	Cmd phys.ActuatorCommand
	// Cause is the entity id of the cyber event instance that triggered
	// the command (provenance for the control loop).
	Cause string
}

// cmdTopic returns the bus topic a dispatch node listens on.
func cmdTopic(dispatchID string) string { return "cmd/" + dispatchID }

// Rule is an event–action association: "at this level, actions are
// associated with certain cyber-events" (Section 3, CCU). When an
// instance of Event with confidence at least MinConfidence is generated
// or received by the CCU, the command is published toward the dispatch
// node.
type Rule struct {
	// Event is the triggering event id.
	Event string
	// MinConfidence gates low-confidence triggers (0 = always).
	MinConfidence float64
	// Dispatch is the dispatch node id to route the command through.
	Dispatch string
	// Actor is the actor mote to execute the command.
	Actor string
	// Cmd is the actuation.
	Cmd phys.ActuatorCommand
	// Once fires the rule at most one time when set.
	Once bool

	fired bool
}

// CCU is a CPS control unit — the highest level of observers. It
// subscribes to cyber-physical events from sinks and cyber events from
// other CCUs, evaluates cyber event conditions, publishes new cyber event
// instances, and executes event–action rules.
type CCU struct {
	id    string
	pos   spatial.Point
	sched *sim.Scheduler
	bus   network.Bus
	bank  *engine.Bank
	rules []*Rule

	// Received counts bus instances consumed; Published counts cyber
	// instances published; Actions counts rule firings.
	Received  uint64
	Published uint64
	Actions   uint64
}

// NewCCU creates a control unit. It subscribes to topics lazily: call
// SubscribeTo for each event id of interest (sink outputs and peer CCU
// outputs). store may be nil.
func NewCCU(sched *sim.Scheduler, bus network.Bus, store *db.Store, id string, pos spatial.Point, logTTL timemodel.Tick) (*CCU, error) {
	if id == "" {
		return nil, fmt.Errorf("ccu needs an id: %w", ErrBadNode)
	}
	c := &CCU{
		id:    id,
		pos:   pos,
		sched: sched,
		bus:   bus,
	}
	bank, err := engine.NewBank(engine.Config{
		Observer: id,
		Loc:      spatial.AtPt(pos),
		LogBatch: logAfter(sched, store, logTTL),
		Emit:     c.publish,
	})
	if err != nil {
		return nil, err
	}
	c.bank = bank
	return c, nil
}

// ID returns the CCU identifier.
func (c *CCU) ID() string { return c.id }

// AddDetector installs a cyber event detector. Role sources refer to
// cyber-physical or cyber event ids.
func (c *CCU) AddDetector(spec detect.Spec) error {
	if spec.Layer == 0 {
		spec.Layer = event.LayerCyber
	}
	if spec.Layer != event.LayerCyber {
		return fmt.Errorf("ccu detector layer %v: %w", spec.Layer, ErrBadNode)
	}
	d, err := c.bank.AddDetector(spec)
	if err != nil {
		return err
	}
	// Subscribe to every source the detector needs.
	for _, src := range d.Sources() {
		if err := c.SubscribeTo(src); err != nil {
			return err
		}
	}
	return nil
}

// Bank exposes the CCU's detection engine bank (tracing, stats).
func (c *CCU) Bank() *engine.Bank { return c.bank }

// SubscribeTo subscribes the CCU to an event topic on the CPS network
// (Fig. 1: "Subscribe Interested Cyber-Physical Events and Cyber
// Events").
func (c *CCU) SubscribeTo(eventID string) error {
	return c.bus.Subscribe(c.id, eventID, c.onMessage)
}

// AddRule installs an event–action rule and subscribes to its trigger.
func (c *CCU) AddRule(r Rule) error {
	if r.Event == "" || r.Dispatch == "" || r.Actor == "" {
		return fmt.Errorf("rule needs event, dispatch and actor: %w", ErrBadNode)
	}
	if r.MinConfidence < 0 || r.MinConfidence > 1 {
		return fmt.Errorf("rule confidence %g: %w", r.MinConfidence, ErrBadNode)
	}
	c.rules = append(c.rules, &r)
	// Rules can trigger on received events too, so subscribe.
	return c.SubscribeTo(r.Event)
}

// onMessage consumes a published instance from the CPS network.
func (c *CCU) onMessage(msg network.Message) {
	inst, ok := msg.Payload.(event.Instance)
	if !ok {
		return
	}
	if inst.Observer == c.id {
		return // ignore own publications echoed by the bus
	}
	c.Received++
	c.consume(inst)
}

// consume runs detectors and rules on one instance.
func (c *CCU) consume(inst event.Instance) {
	c.bank.Ingest(inst.Event, inst, inst.Confidence, c.sched.Now(), spatial.AtPt(c.pos))
	c.fireRules(inst)
}

// publish is the bank's emit hook for generated cyber event instances:
// onto the bus and through the CCU's own rules (actions associate with
// generated cyber events; logging already happened via the bank's log
// hook).
func (c *CCU) publish(inst event.Instance) {
	c.Published++
	_ = c.bus.Publish(c.id, inst.Event, inst)
	c.fireRules(inst)
}

// fireRules executes matching event–action rules.
func (c *CCU) fireRules(inst event.Instance) {
	for _, r := range c.rules {
		if r.Event != inst.Event {
			continue
		}
		if r.Once && r.fired {
			continue
		}
		if inst.Confidence < r.MinConfidence {
			continue
		}
		r.fired = true
		c.Actions++
		_ = c.bus.Publish(c.id, cmdTopic(r.Dispatch), CommandMsg{
			Actor: r.Actor,
			Cmd:   r.Cmd,
			Cause: inst.EntityID(),
		})
	}
}

// FlushIntervals closes open interval detections (end of run).
func (c *CCU) FlushIntervals() {
	c.bank.Flush(c.sched.Now(), spatial.AtPt(c.pos))
}
