package cluster

import (
	"github.com/stcps/stcps/internal/spatial"
)

// Router maps ingest records to partitions and partitions to nodes.
// The world is cut into the same coarse grid cells internal/sub
// indexes by (Config.Cell, default sub.DefaultCell): a record routes
// by its occurrence location's cell, so co-located sensor streams —
// the ones a spatio-temporal detector joins — land on one node and
// detection stays local. There are exactly len(Nodes) partitions;
// partition p's replica chain is nodes [p, p+1, …, p+Replicas] mod N
// (chained declustering), and the acting owner is the chain's first
// routable member, so every healthy node resolves the same owner from
// the same membership evidence and failover needs no coordination.
type Router struct {
	cfg Config
	m   *Membership
}

// NewRouter builds a router over a normalized config and membership.
func NewRouter(cfg Config, m *Membership) *Router {
	return &Router{cfg: cfg, m: m}
}

// Partitions returns the partition count (== node count).
func (r *Router) Partitions() int { return len(r.cfg.Nodes) }

// FNV-1a 64-bit constants, inlined so routing never allocates.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// PartitionOf routes an occurrence location to its partition: the
// location's centroid cell, FNV-1a hashed over its two cell coordinates
// (spatial.ClampCell: a NaN coordinate routes to cell 0 rather than
// poisoning the hash). Field locations route by centroid — a field
// spanning cells still has exactly one routing cell, which is what
// keeps a record on exactly one owner.
//
//stcps:hotpath
func (r *Router) PartitionOf(loc spatial.Location) int {
	p := loc.Point()
	cx := spatial.ClampCell(p.X / r.cfg.Cell)
	cy := spatial.ClampCell(p.Y / r.cfg.Cell)
	h := fnvOffset64
	for _, c := range [2]int{cx, cy} {
		v := uint64(int64(c))
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= fnvPrime64
		}
	}
	return int(h % uint64(len(r.cfg.Nodes)))
}

// Chain returns partition p's replica chain: the owner followed by its
// Replicas followers, in failover order.
func (r *Router) Chain(p int) []int {
	n := len(r.cfg.Nodes)
	chain := make([]int, 0, r.cfg.Replicas+1)
	for k := 0; k <= r.cfg.Replicas; k++ {
		chain = append(chain, (p+k)%n)
	}
	return chain
}

// ActingOwner resolves partition p's current owner: the first routable
// chain member. ok is false when the whole chain is unreachable.
//
//stcps:hotpath
func (r *Router) ActingOwner(p int) (node int, ok bool) {
	n := len(r.cfg.Nodes)
	for k := 0; k <= r.cfg.Replicas; k++ {
		c := (p + k) % n
		if r.m.Routable(c) {
			return c, true
		}
	}
	return -1, false
}

// Followers returns the routable chain members of partition p other
// than node `owner` — the replication targets for records `owner`
// applies. Down or suspect followers are skipped: the chain trades
// replica count for availability under failure (docs/cluster.md).
func (r *Router) Followers(p, owner int) []int {
	n := len(r.cfg.Nodes)
	var out []int
	for k := 0; k <= r.cfg.Replicas; k++ {
		c := (p + k) % n
		if c != owner && r.m.Routable(c) {
			out = append(out, c)
		}
	}
	return out
}

// Owner is one row of the /v1/stats owners table: a partition and the
// node currently serving it.
type Owner struct {
	// Shard is the partition index.
	Shard int `json:"shard"`
	// Node is the acting owner's wire address, or "down" when the whole
	// replica chain is unreachable.
	Node string `json:"node"`
}

// Owners snapshots the acting owner of every partition.
func (r *Router) Owners() []Owner {
	out := make([]Owner, len(r.cfg.Nodes))
	for p := range out {
		node := "down"
		if o, ok := r.ActingOwner(p); ok {
			node = r.cfg.Nodes[o].Wire
		}
		out[p] = Owner{Shard: p, Node: node}
	}
	return out
}
