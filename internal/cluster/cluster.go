// Package cluster is the multi-node tier of the detection engine: a
// static-membership cluster that partitions the world by the same
// coarse grid cells internal/sub and spatial.Grid use, forwards ingest
// to partition owners over the binary wire protocol, synchronously
// replicates each owner's applied records to R followers, stamps every
// record with a hybrid logical clock (internal/cluster/hlc), and
// scatter-gathers queries across owners into one HLC-ordered page
// stream with a bounded staleness report.
//
// Topology. The node list is static (the -cluster flag); node i's
// partition chain is nodes [i, i+1, …, i+R] mod N. The acting owner of
// a partition is the first routable chain member, so a killed owner
// fails over deterministically to its first follower — which holds
// every record the owner ever acknowledged, because owners ack only
// after their followers do (cumulative wire acks).
//
// Ordering. The ingress node stamps each record with its HLC and a
// dense per-(partition, origin) sequence number; both travel in the
// RecForward envelope through every forward and replica hop. Receivers
// deduplicate on the sequence window (redial resends and post-failover
// re-routes are at-least-once) and the stamp gives cross-node queries
// a total order: pages merge by (stamp, partition, seq).
//
// See docs/cluster.md for the full design and its failure semantics.
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/stcps/stcps/internal/sub"
	"github.com/stcps/stcps/wireclient"
)

// Configuration errors.
var (
	// ErrConfig marks an invalid cluster configuration.
	ErrConfig = errors.New("cluster: invalid configuration")
	// ErrNoOwner is returned when no chain member of a partition is
	// routable.
	ErrNoOwner = errors.New("cluster: partition has no routable owner")
	// ErrBadCursor marks a malformed composite gather cursor.
	ErrBadCursor = errors.New("cluster: malformed cluster cursor")
	// ErrStaleCursor is returned when a composite cursor names a
	// serving node that is no longer the partition's acting owner:
	// store sequence numbers are node-local, so the pagination state
	// cannot be transplanted onto the failover target.
	ErrStaleCursor = errors.New("cluster: cursor invalidated by partition failover")
	// ErrShutdown is returned by ingest once the local engine guard
	// reports teardown.
	ErrShutdown = errors.New("cluster: node shutting down")
)

// NodeSpec locates one cluster member.
type NodeSpec struct {
	// Wire is the binary wire-protocol listener address (ingest
	// forwarding, replication, health probes).
	Wire string `json:"wire"`
	// HTTP is the query API address (scatter-gather fan-out).
	HTTP string `json:"http"`
}

// ParseNodes parses a -cluster flag value: comma-separated
// "wireaddr/httpaddr" entries, e.g.
//
//	10.0.0.1:9090/10.0.0.1:8080,10.0.0.2:9090/10.0.0.2:8080
func ParseNodes(s string) ([]NodeSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty node list", ErrConfig)
	}
	parts := strings.Split(s, ",")
	nodes := make([]NodeSpec, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		wire, http, ok := strings.Cut(p, "/")
		if !ok || wire == "" || http == "" {
			return nil, fmt.Errorf("%w: node %q is not wireaddr/httpaddr", ErrConfig, p)
		}
		nodes = append(nodes, NodeSpec{Wire: wire, HTTP: http})
	}
	return nodes, nil
}

// Config parameterizes one cluster node.
type Config struct {
	// Nodes is the static member list, identical on every node.
	Nodes []NodeSpec
	// Self is this node's index into Nodes.
	Self int
	// Replicas is the number of followers each partition replicates
	// to (default 1; clamped to len(Nodes)-1).
	Replicas int
	// Cell is the partition grid cell size (default sub.DefaultCell,
	// the same coarse cell scheme the subscription index uses).
	Cell float64
	// ProbeInterval is the health probe period (default 1s). One probe
	// dial+handshake is bounded by the same interval, capped at 2s.
	ProbeInterval time.Duration
	// DownAfter is the number of consecutive probe failures that
	// demote a suspect node to down (default 3). The first failure
	// already makes it suspect, which removes it from routing.
	DownAfter int
	// ForwardTimeout bounds how long an ingest offer retries
	// forwarding a record whose partition has no reachable owner
	// before failing the connection (default 30s).
	ForwardTimeout time.Duration
	// LinkRetry tunes the per-peer wire client's reconnect policy.
	// Defaults to a short burst (4 attempts from 20ms to 200ms): a
	// transient blip is ridden out on the link, a real failure
	// surfaces fast so the coordinator can re-route.
	LinkRetry wireclient.ReconnectOptions
}

// normalize validates cfg and fills defaults.
func (cfg Config) normalize() (Config, error) {
	if len(cfg.Nodes) == 0 {
		return cfg, fmt.Errorf("%w: no nodes", ErrConfig)
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Nodes) {
		return cfg, fmt.Errorf("%w: self index %d outside 0..%d", ErrConfig, cfg.Self, len(cfg.Nodes)-1)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Nodes)-1 {
		cfg.Replicas = len(cfg.Nodes) - 1
	}
	if cfg.Cell <= 0 {
		cfg.Cell = sub.DefaultCell
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if !cfg.LinkRetry.Enabled {
		cfg.LinkRetry = wireclient.ReconnectOptions{
			Enabled:     true,
			MaxAttempts: 4,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    200 * time.Millisecond,
		}
	}
	return cfg, nil
}
