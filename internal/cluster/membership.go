package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stcps/stcps/internal/frame"
)

// Node health states. Routing treats only Alive nodes (and self) as
// routable; Suspect already drops a node out of ownership so a single
// failed probe triggers failover, and Down is the confirmed state that
// replication permanently skips until the node probes healthy again.
type State int32

const (
	Alive State = iota
	Suspect
	Down
)

// String names a state for stats and logs.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// ProbeFunc checks one peer's health; nil error means healthy. The
// default dials the peer's wire listener and completes a Hello/Welcome
// handshake, so "healthy" means the full protocol stack answers, not
// just the TCP accept queue.
type ProbeFunc func(spec NodeSpec, timeout time.Duration) error

// Membership tracks the health of the static node list with periodic
// probes. State reads are lock-free (the router consults them on the
// ingest hot path); the probe loops run on background goroutines
// between Start and Stop.
type Membership struct {
	cfg    Config
	probe  ProbeFunc
	states []atomic.Int32

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup

	// probes counts completed probe attempts, for stats and tests.
	probes atomic.Uint64
}

// NewMembership builds a membership view over cfg's node list. All
// nodes start Alive — the cluster boots optimistic and demotes on
// probe evidence, so a cold start does not reroute partitions before
// peers finish binding their listeners.
func NewMembership(cfg Config, probe ProbeFunc) *Membership {
	if probe == nil {
		probe = WireProbe
	}
	return &Membership{
		cfg:    cfg,
		probe:  probe,
		states: make([]atomic.Int32, len(cfg.Nodes)),
		stop:   make(chan struct{}),
	}
}

// State returns node i's current health.
func (m *Membership) State(i int) State { return State(m.states[i].Load()) }

// Routable reports whether node i may own partitions: it is this node,
// or it is Alive. Suspect and Down nodes are excluded, which is what
// makes failover deterministic — every healthy node demotes the same
// peer after its own probe evidence.
//
//stcps:hotpath
func (m *Membership) Routable(i int) bool {
	return i == m.cfg.Self || State(m.states[i].Load()) == Alive
}

// Probes returns the number of completed probe attempts.
func (m *Membership) Probes() uint64 { return m.probes.Load() }

// ReportFailure demotes a node to Suspect immediately on first-hand
// evidence (a broken forward or replication link), without waiting for
// the next probe tick. A node already Down stays Down.
func (m *Membership) ReportFailure(i int) {
	if i == m.cfg.Self {
		return
	}
	m.states[i].CompareAndSwap(int32(Alive), int32(Suspect))
}

// Start launches one probe loop per peer. Idempotent.
func (m *Membership) Start() {
	m.startOnce.Do(func() {
		for i := range m.cfg.Nodes {
			if i == m.cfg.Self {
				continue
			}
			m.wg.Add(1)
			go m.probeLoop(i)
		}
	})
}

// Stop terminates the probe loops and waits for them. Idempotent.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

// probeWaitCap caps one probe's dial+handshake; below it a probe may
// take up to ProbeInterval.
const probeWaitCap = 2 * time.Second

// probeLoop probes one peer every ProbeInterval: success → Alive,
// first failure → Suspect, DownAfter consecutive failures → Down.
func (m *Membership) probeLoop(i int) {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	fails := 0
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		err := m.probe(m.cfg.Nodes[i], min(m.cfg.ProbeInterval, probeWaitCap))
		m.probes.Add(1)
		if err == nil {
			fails = 0
			m.states[i].Store(int32(Alive))
			continue
		}
		fails++
		if fails >= m.cfg.DownAfter {
			m.states[i].Store(int32(Down))
		} else {
			m.states[i].CompareAndSwap(int32(Alive), int32(Suspect))
		}
	}
}

// WireProbe is the default ProbeFunc: dial the peer's wire listener
// and complete a Hello/Welcome handshake within timeout.
func WireProbe(spec NodeSpec, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", spec.Wire, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	_ = conn.SetDeadline(deadline)
	if err := frame.WriteFrame(conn, frame.AppendHello(nil)); err != nil {
		return err
	}
	r := frame.NewReader(conn, 1<<16)
	p, _, err := r.Next()
	if err != nil {
		return err
	}
	_, _, err = frame.ParseWelcome(p)
	return err
}
