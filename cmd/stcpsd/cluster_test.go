package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/wireclient"
)

// reservePorts binds n ephemeral listeners and returns their addresses
// after closing them — the cluster flag needs every member's address
// before any daemon starts.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

const clusterEvents = `[
  {"id": "E.high", "layer": "sensor",
   "roles": [{"name": "x", "source": "SR1", "window": 1}],
   "when": "x.v > 5"}
]`

// TestDaemonClusterFlagValidation covers the cluster-mode flag
// contract without starting any listener.
func TestDaemonClusterFlagValidation(t *testing.T) {
	events := writeEvents(t)
	for _, args := range [][]string{
		{"-events", events, "-cluster", "a:1/a:2,b:1/b:2"},                                               // no -tcp/-http
		{"-events", events, "-cluster", "a:1/a:2,b:1/b:2", "-tcp", ":0"},                                 // no -http
		{"-events", events, "-cluster", "a:1/a:2,b:1/b:2", "-tcp", ":0", "-http", ":0", "-workers", "4"}, // sharded
		{"-events", events, "-cluster", "garbage", "-tcp", ":0", "-http", ":0"},                          // bad list
	} {
		var out, errw strings.Builder
		if err := run(args, strings.NewReader(""), &out, &errw); err == nil {
			t.Errorf("run(%v) accepted an invalid cluster config", args)
		}
	}
}

// TestDaemonClusterEndToEnd boots a real 3-daemon cluster in-process:
// wire ingest through node 0 fans records out to their owners, and the
// gateway /v1/query merges every partition in HLC order.
func TestDaemonClusterEndToEnd(t *testing.T) {
	const n = 3
	eventsPath := filepath.Join(t.TempDir(), "events.json")
	if err := os.WriteFile(eventsPath, []byte(clusterEvents), 0o644); err != nil {
		t.Fatal(err)
	}

	wire := reservePorts(t, n)
	httpa := reservePorts(t, n)
	var members []string
	for i := 0; i < n; i++ {
		members = append(members, wire[i]+"/"+httpa[i])
	}
	clusterArg := strings.Join(members, ",")

	type daemon struct {
		stdin io.WriteCloser
		done  chan error
		errw  *strings.Builder
	}
	daemons := make([]*daemon, n)
	for i := 0; i < n; i++ {
		pr, pw := io.Pipe()
		d := &daemon{stdin: pw, done: make(chan error, 1), errw: &strings.Builder{}}
		daemons[i] = d
		var out strings.Builder
		args := []string{
			"-events", eventsPath, "-observer", "cluster",
			"-tcp", wire[i], "-http", httpa[i],
			"-cluster", clusterArg, "-node-id", strconv.Itoa(i),
			"-replicas", "1",
		}
		go func() { d.done <- run(args, pr, &out, d.errw) }()
	}
	defer func() {
		for i, d := range daemons {
			d.stdin.Close()
			if err := <-d.done; err != nil {
				t.Errorf("daemon %d: %v (stderr: %s)", i, err, d.errw.String())
			}
		}
	}()

	// Wait for every member to serve.
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + httpa[i] + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d never served (stderr: %s)", i, daemons[i].errw.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Feed through node 0: observations scattered over many grid cells
	// so every node owns a share.
	c, err := wireclient.Dial(wire[0], wireclient.Options{BatchRecords: 8, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	const total = 90
	for i := 0; i < total; i++ {
		o := event.Observation{
			Mote: "MT", Sensor: "SR1", Seq: uint64(i + 1),
			Time:  timemodel.At(timemodel.Tick(i + 1)),
			Loc:   spatial.AtPoint(float64(i%9)*64+5, 5),
			Attrs: event.Attrs{"v": float64(i % 10)},
		}
		if err := c.SendObservation(&o); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// v in 6..9 fires E.high: 4 of every 10 records.
	wantHits := 0
	for i := 0; i < total; i++ {
		if float64(i%10) > 5 {
			wantHits++
		}
	}

	// The gateway merge must return every emission, in HLC order, from
	// any member.
	for gw := 0; gw < n; gw++ {
		var res gatherResponse
		getJSON(t, "http://"+httpa[gw]+"/v1/query", &res)
		if res.Count != wantHits {
			t.Fatalf("gateway %d returned %d instances, want %d (stderr: %s)",
				gw, res.Count, wantHits, daemons[gw].errw.String())
		}
		if res.Partitions != n {
			t.Errorf("gateway %d consulted %d partitions, want %d", gw, res.Partitions, n)
		}
		if !sort.SliceIsSorted(res.Stamps, func(a, b int) bool {
			x, _ := strconv.ParseUint(res.Stamps[a], 10, 64)
			y, _ := strconv.ParseUint(res.Stamps[b], 10, 64)
			return x < y
		}) {
			t.Errorf("gateway %d page not in HLC order", gw)
		}
	}

	// Paged gather through the composite cursor concatenates to the
	// same stream.
	var paged int
	cursor := ""
	for {
		u := "http://" + httpa[0] + "/v1/query?limit=7"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		var res gatherResponse
		getJSON(t, u, &res)
		paged += res.Count
		if res.NextCursor == "" {
			break
		}
		cursor = res.NextCursor
		if paged > wantHits {
			t.Fatalf("paged gather overran: %d > %d", paged, wantHits)
		}
	}
	if paged != wantHits {
		t.Fatalf("paged gather returned %d, want %d", paged, wantHits)
	}

	// A partition page is served directly for peer gateways.
	var page partitionPageResponse
	getJSON(t, "http://"+httpa[1]+"/v1/query?partition=0", &page)
	if len(page.Instances) != page.Count || len(page.Seqs) != page.Count || len(page.Stamps) != page.Count {
		t.Fatalf("partition page arrays not parallel: %+v", page)
	}

	// /stats exposes the cluster section, and the ingress node must
	// have forwarded remote-owned records.
	var stats statsResponse
	getJSON(t, "http://"+httpa[0]+"/v1/stats", &stats)
	if stats.Cluster == nil {
		t.Fatal("stats has no cluster section")
	}
	if stats.Cluster.Self != 0 || len(stats.Cluster.Nodes) != n {
		t.Fatalf("cluster stats: %+v", stats.Cluster)
	}
	if stats.Cluster.Coordinator.Forwarded == 0 {
		t.Errorf("ingress node forwarded nothing: %+v", stats.Cluster.Coordinator)
	}
	if stats.Cluster.Coordinator.Replicated == 0 {
		t.Errorf("ingress node replicated nothing: %+v", stats.Cluster.Coordinator)
	}

	// Every owners row names its partition and the node serving it, and
	// nothing else: every node registers the full detector set, which the
	// top-level events field already counts.
	var raw struct {
		Cluster struct {
			Owners []map[string]any `json:"owners"`
		} `json:"cluster"`
	}
	getJSON(t, "http://"+httpa[0]+"/v1/stats", &raw)
	if len(raw.Cluster.Owners) != n {
		t.Fatalf("owners has %d rows, want %d", len(raw.Cluster.Owners), n)
	}
	for i, row := range raw.Cluster.Owners {
		if shard, ok := row["shard"].(float64); !ok || int(shard) != i {
			t.Errorf("owners row %d: shard = %v, want %d", i, row["shard"], i)
		}
		if node, _ := row["node"].(string); node == "" {
			t.Errorf("owners row %d has no node: %v", i, row)
		}
		if len(row) != 2 {
			t.Errorf("owners row %d = %v, want only shard and node", i, row)
		}
	}
}

func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", u, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", u, body, err)
	}
}
