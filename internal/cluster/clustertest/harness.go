// Package clustertest is the in-process multi-node harness: N cluster
// nodes, each a real engine behind a real wire listener with a real
// coordinator, plus a single-node oracle engine fed the same stream.
// The differential tests drive it; nothing in the production tree
// imports it.
package clustertest

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	stcps "github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/frame"
)

// ErrKilled is returned by the harness fetcher for a killed node.
var ErrKilled = errors.New("clustertest: node killed")

// Config sizes a harness cluster.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Replicas is the follower count per partition (default 1).
	Replicas int
	// Cell is the partition cell size (default sub.DefaultCell).
	Cell float64
	// ProbeInterval / DownAfter / ForwardTimeout tune failure
	// detection; the defaults are scaled for tests (20ms probes).
	ProbeInterval  time.Duration
	DownAfter      int
	ForwardTimeout time.Duration
	// Observer is the shared observer id (default "cluster"). Every
	// node and the oracle must stamp the same observer for the
	// differential to be byte-identical.
	Observer string
}

// Node is one in-process cluster member.
type Node struct {
	Idx  int
	Eng  *stcps.Engine
	CL   *cluster.Node
	Addr string

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{} //stcps:guardedby mu
	stop   bool                  //stcps:guardedby mu
	wg     sync.WaitGroup
	killed atomic.Bool
}

// Harness is the assembled cluster plus its single-node oracle.
type Harness struct {
	Cfg    Config
	Nodes  []*Node
	Oracle *stcps.Engine
}

// New binds the wire listeners, builds the engines and cluster
// runtimes, and starts serving and probing. Register detectors with
// Detect before feeding.
func New(cfg Config) (*Harness, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("clustertest: need at least 2 nodes")
	}
	if cfg.Observer == "" {
		cfg.Observer = "cluster"
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 2
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 15 * time.Second
	}

	h := &Harness{Cfg: cfg}
	specs := make([]cluster.NodeSpec, cfg.Nodes)
	lns := make([]net.Listener, cfg.Nodes)
	for i := range specs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		lns[i] = ln
		// The harness fetches pages in-process; HTTP is unused but
		// must parse.
		specs[i] = cluster.NodeSpec{Wire: ln.Addr().String(), HTTP: ln.Addr().String()}
	}

	oracle, err := stcps.NewEngine(stcps.EngineConfig{Observer: cfg.Observer, WithStore: true})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.Oracle = oracle

	for i := 0; i < cfg.Nodes; i++ {
		eng, err := stcps.NewEngine(stcps.EngineConfig{Observer: cfg.Observer, WithStore: true})
		if err != nil {
			h.Close()
			return nil, err
		}
		n := &Node{Idx: i, Eng: eng, ln: lns[i], Addr: lns[i].Addr().String(), conns: make(map[net.Conn]struct{})}
		cn, err := cluster.New(cluster.Config{
			Nodes:          specs,
			Self:           i,
			Replicas:       cfg.Replicas,
			Cell:           cfg.Cell,
			ProbeInterval:  cfg.ProbeInterval,
			DownAfter:      cfg.DownAfter,
			ForwardTimeout: cfg.ForwardTimeout,
		}, nil, cluster.Hooks{
			Guard: func(fn func() error) (bool, error) {
				n.mu.Lock()
				defer n.mu.Unlock()
				if n.stop {
					return false, nil
				}
				return true, fn()
			},
			Apply: eng.Ingest,
			SeqOf: eng.Store().SeqOf,
			Query: eng.QueryST,
		})
		if err != nil {
			h.Close()
			return nil, err
		}
		n.CL = cn
		h.Nodes = append(h.Nodes, n)
	}
	for _, n := range h.Nodes {
		n.wg.Add(1)
		go n.serve()
		n.CL.Membership.Start()
	}
	return h, nil
}

// serve accepts wire connections into the node's coordinator.
func (n *Node) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.stop {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.mu.Lock()
				delete(n.conns, conn)
				n.mu.Unlock()
				conn.Close()
			}()
			_, _ = frame.ServeConn(conn, frame.ServerConfig{
				Offer:       func(b *frame.Batch) error { return n.CL.Coord.OfferBatch(b) },
				Materialize: true,
			})
		}()
	}
}

// Detect registers spec on every node and the oracle.
func (h *Harness) Detect(layer stcps.Layer, spec stcps.EventSpec) error {
	if err := h.Oracle.Detect(layer, spec); err != nil {
		return err
	}
	for _, n := range h.Nodes {
		if err := n.Eng.Detect(layer, spec); err != nil {
			return err
		}
	}
	return nil
}

// Router exposes a node's router (node 0 by default callers) for
// partition planning in tests.
func (h *Harness) Router(i int) *cluster.Router { return h.Nodes[i].CL.Router }

// Kill hard-stops node i: listener and live connections close without
// goodbyes, the engine guard latches shut, probes and links stop. A
// SIGKILL stand-in.
func (h *Harness) Kill(i int) {
	n := h.Nodes[i]
	if !n.killed.CompareAndSwap(false, true) {
		return
	}
	n.mu.Lock()
	n.stop = true
	n.ln.Close()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.CL.Membership.Stop()
	n.CL.Coord.Close()
}

// Killed reports whether node i was killed.
func (h *Harness) Killed(i int) bool { return h.Nodes[i].killed.Load() }

// Fetch is the in-process page fetcher for Gather: a direct LocalPage
// call, failing for killed nodes the way a dead HTTP peer would.
func (h *Harness) Fetch(node int, req cluster.PageReq) (cluster.PageResp, error) {
	n := h.Nodes[node]
	if n.killed.Load() {
		return cluster.PageResp{}, ErrKilled
	}
	return n.CL.Coord.LocalPage(req)
}

// Gather runs a scatter-gather query through node i's coordinator.
func (h *Harness) Gather(i int, spec stcps.QuerySpec) (cluster.Result, error) {
	return h.Nodes[i].CL.Coord.Gather(spec, h.Fetch)
}

// Close tears down every non-killed node.
func (h *Harness) Close() {
	for _, n := range h.Nodes {
		h.Kill(n.Idx)
	}
	for _, n := range h.Nodes {
		n.wg.Wait()
	}
}
