package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes("10.0.0.1:9090/10.0.0.1:8080, 10.0.0.2:9090/10.0.0.2:8080")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Wire != "10.0.0.1:9090" || nodes[1].HTTP != "10.0.0.2:8080" {
		t.Fatalf("parsed %+v", nodes)
	}
	for _, bad := range []string{"", "hostonly", "a/,b/c", "/x"} {
		if _, err := ParseNodes(bad); !errors.Is(err, ErrConfig) {
			t.Fatalf("ParseNodes(%q) = %v, want ErrConfig", bad, err)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	nodes := []NodeSpec{{Wire: "a", HTTP: "b"}, {Wire: "c", HTTP: "d"}, {Wire: "e", HTTP: "f"}}
	cfg, err := Config{Nodes: nodes, Self: 1, Replicas: 99}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 2 {
		t.Fatalf("Replicas clamped to %d, want 2", cfg.Replicas)
	}
	if cfg.Cell <= 0 || cfg.ProbeInterval <= 0 || cfg.DownAfter <= 0 || !cfg.LinkRetry.Enabled {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if _, err := (Config{Nodes: nodes, Self: 3}).normalize(); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range self accepted: %v", err)
	}
	if _, err := (Config{}).normalize(); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty node list accepted: %v", err)
	}
}

// testRouter builds a 3-node router with all peers alive and no probe
// goroutines.
func testRouter(t *testing.T, self int) (*Router, *Membership) {
	t.Helper()
	cfg, err := Config{
		Nodes: []NodeSpec{{Wire: "n0", HTTP: "h0"}, {Wire: "n1", HTTP: "h1"}, {Wire: "n2", HTTP: "h2"}},
		Self:  self,
	}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMembership(cfg, func(NodeSpec, time.Duration) error { return nil })
	return NewRouter(cfg, m), m
}

func TestPartitionOfRoutesByCell(t *testing.T) {
	r, _ := testRouter(t, 0)
	// Points inside one default cell (64.0) route identically.
	a := r.PartitionOf(spatial.AtPoint(10, 10))
	b := r.PartitionOf(spatial.AtPoint(63, 0.5))
	if a != b {
		t.Fatalf("same-cell points split: %d vs %d", a, b)
	}
	if a < 0 || a >= r.Partitions() {
		t.Fatalf("partition %d out of range", a)
	}
	// A field routes by its centroid, same as the equivalent point.
	f, err := spatial.NewField([]spatial.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 20, Y: 20}, {X: 0, Y: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PartitionOf(spatial.InField(f)); got != r.PartitionOf(spatial.AtPt(f.Centroid())) {
		t.Fatalf("field does not route by centroid: %d", got)
	}
	// Distinct cells spread across partitions.
	seen := map[int]bool{}
	for i := 0; i < 32; i++ {
		seen[r.PartitionOf(spatial.AtPoint(float64(i)*64, float64(i)*128))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct cells landed on %d partitions", len(seen))
	}
}

func TestChainAndFailover(t *testing.T) {
	r, m := testRouter(t, 0)
	chain := r.Chain(2)
	if len(chain) != 2 || chain[0] != 2 || chain[1] != 0 {
		t.Fatalf("Chain(2) = %v, want [2 0]", chain)
	}
	if o, ok := r.ActingOwner(2); !ok || o != 2 {
		t.Fatalf("ActingOwner(2) = %d,%v want 2", o, ok)
	}
	// Suspect drops the owner out; the first follower takes over.
	m.ReportFailure(2)
	if m.State(2) != Suspect {
		t.Fatalf("state after ReportFailure = %v", m.State(2))
	}
	if o, ok := r.ActingOwner(2); !ok || o != 0 {
		t.Fatalf("failover ActingOwner(2) = %d,%v want 0 (self)", o, ok)
	}
	// Followers of partition 2 for acting owner 0: only node 2 remains
	// in the chain and it is not routable — no targets.
	if fo := r.Followers(2, 0); len(fo) != 0 {
		t.Fatalf("Followers(2,0) with node2 down = %v", fo)
	}
	if fo := r.Followers(0, 0); len(fo) != 1 || fo[0] != 1 {
		t.Fatalf("Followers(0,0) = %v, want [1]", fo)
	}
	// Whole chain gone: partition 1's chain is [1 2], both dead.
	m.states[1].Store(int32(Down))
	m.states[2].Store(int32(Down))
	if _, ok := r.ActingOwner(1); ok {
		t.Fatal("ActingOwner(1) resolved with the whole chain down")
	}
	owners := r.Owners()
	if owners[1].Node != "down" {
		t.Fatalf("Owners()[1].Node = %q, want down", owners[1].Node)
	}
	if owners[0].Node != "n0" {
		t.Fatalf("Owners()[0].Node = %q, want n0 (self alive)", owners[0].Node)
	}
}

func TestDedupWindow(t *testing.T) {
	d := NewDedup()
	// In-order admits.
	for i := uint64(0); i < 5; i++ {
		if !d.Admit(1, 0, i) {
			t.Fatalf("seq %d rejected", i)
		}
	}
	// Exact duplicates rejected, below and at the window base.
	for i := uint64(0); i < 5; i++ {
		if d.Admit(1, 0, i) {
			t.Fatalf("dup seq %d admitted", i)
		}
	}
	// Out-of-order first deliveries admit and collapse into the base.
	if !d.Admit(1, 0, 7) || d.Pending() != 1 {
		t.Fatalf("out-of-order admit failed, pending=%d", d.Pending())
	}
	if !d.Admit(1, 0, 6) || d.Admit(1, 0, 7) || d.Admit(1, 0, 6) {
		t.Fatal("window dedup failed around the gap")
	}
	if !d.Admit(1, 0, 5) || d.Pending() != 0 {
		t.Fatalf("gap fill did not collapse the window, pending=%d", d.Pending())
	}
	if !d.Admit(1, 0, 8) {
		t.Fatal("base did not advance past the collapsed window")
	}
	if !d.Seen(1, 0, 3) || !d.Seen(1, 0, 8) || d.Seen(1, 0, 10) || d.Seen(3, 0, 0) {
		t.Fatal("Seen disagrees with the admitted set")
	}
	// Streams are independent per (partition, origin).
	if !d.Admit(2, 0, 0) || !d.Admit(1, 1, 0) {
		t.Fatal("distinct streams share a window")
	}
}

// TestFailedApplyIsRetried: an apply that fails (a WAL append on a
// full disk, say) must not mark the record applied, or its redelivery
// would be dropped as a duplicate and the record lost.
func TestFailedApplyIsRetried(t *testing.T) {
	fail := true
	applied := 0
	node, err := New(Config{Nodes: []NodeSpec{{Wire: "n0", HTTP: "h0"}}}, nil, Hooks{
		Guard: func(fn func() error) (bool, error) { return true, fn() },
		Apply: func(string, event.Entity, float64, timemodel.Tick) ([]event.Instance, error) {
			if fail {
				fail = false
				return nil, errors.New("disk full")
			}
			applied++
			return nil, nil
		},
		SeqOf: func(*event.Instance) (uint64, bool) { return 0, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	co := node.Coord
	defer co.Close()
	item := localItem{
		source: "SR1", ent: event.Observation{Mote: "MT1", Sensor: "SR1", Seq: 1},
		conf: 1, f: frame.Forward{Origin: 1, Seq: 0, Replica: true},
	}
	if _, err := co.applyLocal([]localItem{item}); err == nil {
		t.Fatal("failing apply reported success")
	}
	if _, err := co.applyLocal([]localItem{item}); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	if st := co.Stats(); applied != 1 || st.Applied != 1 || st.Duplicates != 0 {
		t.Fatalf("after fail + redelivery: applied %d, stats %+v; want 1 applied, 0 duplicates", applied, st)
	}
}

func TestStampIndex(t *testing.T) {
	var x StampIndex
	x.Record(0, 100, 2)
	x.Record(1, 101, 0)
	if s, p, ok := x.Lookup(1); !ok || s != 101 || p != 0 {
		t.Fatalf("Lookup(1) = %v %v %v", s, p, ok)
	}
	// First write wins: a deduplicated re-apply cannot restamp.
	x.Record(1, 999, 1)
	if s, _, _ := x.Lookup(1); s != 101 {
		t.Fatalf("restamped: %v", s)
	}
	// Gaps (seqs logged outside the cluster path) read as misses.
	x.Record(5, 105, 1)
	if _, _, ok := x.Lookup(3); ok {
		t.Fatal("gap seq resolved")
	}
	if s, p, ok := x.Lookup(5); !ok || s != 105 || p != 1 {
		t.Fatalf("Lookup(5) = %v %v %v", s, p, ok)
	}
	if _, _, ok := x.Lookup(99); ok {
		t.Fatal("unrecorded seq resolved")
	}
}

func TestCursorRoundTrip(t *testing.T) {
	states := []partCursor{{node: 0, cursor: "15"}, {node: 2, cursor: ""}, {node: 1, cursor: "7"}}
	enc := encodeCursor(states)
	got, err := parseCursor(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := range states {
		if got[p] != states[p] {
			t.Fatalf("partition %d: %+v != %+v", p, got[p], states[p])
		}
	}
	if fresh, err := parseCursor("", 3); err != nil || fresh[0].node != -1 {
		t.Fatalf("empty cursor: %+v, %v", fresh, err)
	}
	for _, bad := range []string{"v9~0:0:", "c1~x:0:", "c1~0:9:", "c1~0:0", "c1~9:0:"} {
		if _, err := parseCursor(bad, 3); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("parseCursor(%q) = %v, want ErrBadCursor", bad, err)
		}
	}
}

// TestPartitionOfPinned pins PartitionOf's routing on a 3- and a 7-node
// cluster over points, fields, NaN and ±1e21 coordinates. The expected
// partitions were computed with the router's own clamp before the cell
// conversion moved to spatial.ClampCell; a change to the clamp, the
// flooring or the hash shows up here.
func TestPartitionOfPinned(t *testing.T) {
	r3, _ := testRouter(t, 0)
	nodes := make([]NodeSpec, 7)
	for i := range nodes {
		nodes[i] = NodeSpec{Wire: fmt.Sprint("n", i), HTTP: fmt.Sprint("h", i)}
	}
	cfg7, err := Config{Nodes: nodes}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	r7 := NewRouter(cfg7, NewMembership(cfg7, nil))
	rect := func(x0, y0, x1, y1 float64) spatial.Location {
		f, err := spatial.Rect(x0, y0, x1, y1)
		if err != nil {
			t.Fatal(err)
		}
		return spatial.InField(f)
	}
	nan := math.NaN()
	for _, tt := range []struct {
		name   string
		loc    spatial.Location
		p3, p7 int
	}{
		{"origin", spatial.AtPoint(0, 0), 0, 0},
		{"cell 0 interior", spatial.AtPoint(63.9, 0.5), 0, 0},
		{"cell edge", spatial.AtPoint(64, 0), 2, 1},
		{"negative", spatial.AtPoint(-1, -1), 0, 5},
		{"mixed", spatial.AtPoint(-64.5, 300), 2, 1},
		{"far", spatial.AtPoint(1e6, -1e6), 2, 2},
		{"grid walk 1", spatial.AtPoint(128, 256), 1, 3},
		{"grid walk 2", spatial.AtPoint(640, 1280), 2, 0},
		{"grid walk 3", spatial.AtPoint(-1984, 3968), 1, 2},
		{"field", rect(0, 0, 20, 20), 0, 0},
		{"field spanning cells", rect(-100, -100, 300, 50), 0, 2},
		{"wide field", rect(-1e6, -1e6, 3e6, 1e6), 1, 6},
		{"NaN x", spatial.AtPoint(nan, 5), 0, 0},
		{"NaN y", spatial.AtPoint(700, nan), 1, 5},
		{"NaN both", spatial.AtPoint(nan, nan), 0, 0},
		{"+1e21", spatial.AtPoint(1e21, 1e21), 1, 3},
		{"-1e21", spatial.AtPoint(-1e21, -1e21), 2, 2},
		{"+1e21 -1e21", spatial.AtPoint(1e21, -1e21), 0, 6},
		{"-1e21 y", spatial.AtPoint(10, -1e21), 0, 6},
	} {
		if got := r3.PartitionOf(tt.loc); got != tt.p3 {
			t.Errorf("%s: 3-node PartitionOf = %d, want %d", tt.name, got, tt.p3)
		}
		if got := r7.PartitionOf(tt.loc); got != tt.p7 {
			t.Errorf("%s: 7-node PartitionOf = %d, want %d", tt.name, got, tt.p7)
		}
	}
}
