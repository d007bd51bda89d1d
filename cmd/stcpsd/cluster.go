package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/jsonenc"
)

// clusterRuntime bundles the daemon's cluster-mode state for the HTTP
// layer: the cluster node itself and the client used to fetch peer
// partition pages during scatter-gather.
type clusterRuntime struct {
	node  *cluster.Node
	httpc *http.Client
}

func newClusterRuntime(node *cluster.Node) *clusterRuntime {
	return &clusterRuntime{
		node: node,
		// Page fetches are small; a stuck peer must not pin a gather
		// forever — the chain fallback needs the failure promptly.
		httpc: &http.Client{Timeout: 10 * time.Second},
	}
}

// partitionPageResponse is the JSON form of one partition page —
// what /v1/query?partition=N serves to peer gateways (rendered by
// appendPartitionPage, decoded by the gather fetcher). Seqs, stamps and
// the frontier are decimal strings: they are uint64 and JSON numbers
// lose precision past 2^53.
type partitionPageResponse struct {
	Count     int              `json:"count"`
	Instances []stcps.Instance `json:"instances"`
	Seqs      []string         `json:"seqs"`
	Stamps    []string         `json:"stamps"`
	More      bool             `json:"more"`
	Frontier  string           `json:"frontier"`
}

// predicateParams are the spatio-temporal predicate parameters a
// gateway forwards verbatim to peer partition pages.
var predicateParams = []string{"event", "x1", "y1", "x2", "y2", "from", "to", "strict"}

// fetcher builds the HTTP page fetcher for one gather: it re-issues
// the caller's predicate parameters against the peer's versioned query
// endpoint with the partition pin, per-partition cursor and page limit
// swapped in.
func (c *clusterRuntime) fetcher(base url.Values, tier db.Tier) cluster.Fetcher {
	return func(node int, req cluster.PageReq) (cluster.PageResp, error) {
		v := url.Values{}
		for _, k := range predicateParams {
			if s := base.Get(k); s != "" {
				v.Set(k, s)
			}
		}
		v.Set("tier", tier.String())
		v.Set("partition", strconv.Itoa(req.Partition))
		if req.Spec.Cursor != "" {
			v.Set("cursor", req.Spec.Cursor)
		}
		if req.Spec.Limit > 0 {
			v.Set("limit", strconv.Itoa(req.Spec.Limit))
		}
		u := "http://" + c.node.Cfg.Nodes[node].HTTP + "/v1/query?" + v.Encode()
		resp, err := c.httpc.Get(u)
		if err != nil {
			return cluster.PageResp{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return cluster.PageResp{}, fmt.Errorf("node %d: %s", node, resp.Status)
		}
		var page partitionPageResponse
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			return cluster.PageResp{}, fmt.Errorf("node %d: %w", node, err)
		}
		return decodePage(page)
	}
}

// decodePage converts the wire page back into the coordinator's form.
func decodePage(page partitionPageResponse) (cluster.PageResp, error) {
	if len(page.Seqs) != len(page.Instances) || len(page.Stamps) != len(page.Instances) {
		return cluster.PageResp{}, fmt.Errorf("page arrays not parallel: %d/%d/%d",
			len(page.Instances), len(page.Seqs), len(page.Stamps))
	}
	out := cluster.PageResp{
		Instances: page.Instances,
		More:      page.More,
	}
	var err error
	if page.Frontier != "" {
		if out.Frontier, err = strconv.ParseUint(page.Frontier, 10, 64); err != nil {
			return cluster.PageResp{}, fmt.Errorf("bad frontier %q", page.Frontier)
		}
	}
	out.Seqs = make([]uint64, len(page.Seqs))
	out.Stamps = make([]uint64, len(page.Stamps))
	for i := range page.Seqs {
		if out.Seqs[i], err = strconv.ParseUint(page.Seqs[i], 10, 64); err != nil {
			return cluster.PageResp{}, fmt.Errorf("bad seq %q", page.Seqs[i])
		}
		if out.Stamps[i], err = strconv.ParseUint(page.Stamps[i], 10, 64); err != nil {
			return cluster.PageResp{}, fmt.Errorf("bad stamp %q", page.Stamps[i])
		}
	}
	return out, nil
}

// partitionPage serves GET /v1/query?partition=N: one local partition
// page in the store's seq space, for peer gateways (and debugging).
func (c *clusterRuntime) partitionPage(w http.ResponseWriter, spec stcps.QuerySpec, ps string) {
	p, err := strconv.Atoi(ps)
	if err != nil || p < 0 || p >= c.node.Router.Partitions() {
		httpError(w, http.StatusBadRequest, "bad partition %q", ps)
		return
	}
	resp, err := c.node.Coord.LocalPage(cluster.PageReq{Spec: spec, Partition: p})
	switch {
	case errors.Is(err, db.ErrBadCursor):
		httpErrorCode(w, http.StatusBadRequest, "bad_cursor", "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	respond(w, http.StatusOK, func(dst []byte) ([]byte, error) { return appendPartitionPage(dst, &resp) })
}

// appendPartitionPage renders one partitionPageResponse.
func appendPartitionPage(dst []byte, resp *cluster.PageResp) ([]byte, error) {
	dst, err := appendPage(dst, resp.Instances, false)
	if err != nil {
		return dst, err
	}
	dst = appendDecimals(dst, `,"seqs":[`, resp.Seqs)
	dst = appendDecimals(dst, `,"stamps":[`, resp.Stamps)
	dst = strconv.AppendBool(append(dst, `,"more":`...), resp.More)
	dst = strconv.AppendUint(append(dst, `,"frontier":"`...), resp.Frontier, 10)
	return append(dst, `"}`...), nil
}

// gather serves the clustered GET /v1/query: scatter the spec to every
// partition's acting owner, merge in HLC order, one composite cursor.
func (c *clusterRuntime) gather(w http.ResponseWriter, base url.Values, spec stcps.QuerySpec) {
	res, err := c.node.Coord.Gather(spec, c.fetcher(base, spec.Tier))
	switch {
	case errors.Is(err, cluster.ErrBadCursor):
		httpErrorCode(w, http.StatusBadRequest, "bad_cursor", "%v", err)
		return
	case errors.Is(err, cluster.ErrStaleCursor):
		httpError(w, http.StatusGone, "%v", err)
		return
	case err != nil:
		// A partition with no reachable chain member is a service
		// availability problem, not a caller mistake.
		httpErrorCode(w, http.StatusServiceUnavailable, "unavailable", "%v", err)
		return
	}
	respond(w, http.StatusOK, func(dst []byte) ([]byte, error) { return appendGatherPage(dst, &res) })
}

// appendGatherPage renders one merged scatter-gather /v1/query page.
// staleness bounds, in ticks, how far the laggiest consulted
// partition's applied frontier trails the gateway's clock.
func appendGatherPage(dst []byte, res *cluster.Result) ([]byte, error) {
	dst, err := appendPage(dst, res.Instances, false)
	if err != nil {
		return dst, err
	}
	dst = appendDecimals(dst, `,"stamps":[`, res.Stamps)
	if res.NextCursor != "" {
		dst = jsonenc.AppendString(append(dst, `,"nextCursor":`...), res.NextCursor)
	}
	dst = strconv.AppendInt(append(dst, `,"staleness":`...), int64(res.Staleness), 10)
	dst = strconv.AppendInt(append(dst, `,"partitions":`...), int64(res.Partitions), 10)
	return append(dst, '}'), nil
}

// clusterNodeView is one member's /stats row.
type clusterNodeView struct {
	Wire  string `json:"wire"`
	HTTP  string `json:"http"`
	State string `json:"state"`
}

// clusterStatsView is the /stats cluster section.
type clusterStatsView struct {
	Self        int               `json:"self"`
	Replicas    int               `json:"replicas"`
	Nodes       []clusterNodeView `json:"nodes"`
	Owners      []cluster.Owner   `json:"owners"`
	Coordinator cluster.Stats     `json:"coordinator"`
	Frontier    string            `json:"frontier"`
	Probes      uint64            `json:"probes"`
}

// statsView snapshots the cluster section for /stats.
func (c *clusterRuntime) statsView() *clusterStatsView {
	cfg := c.node.Cfg
	nodes := make([]clusterNodeView, len(cfg.Nodes))
	for i, spec := range cfg.Nodes {
		nodes[i] = clusterNodeView{
			Wire:  spec.Wire,
			HTTP:  spec.HTTP,
			State: c.node.Membership.State(i).String(),
		}
	}
	return &clusterStatsView{
		Self:        cfg.Self,
		Replicas:    cfg.Replicas,
		Nodes:       nodes,
		Owners:      c.node.Router.Owners(),
		Coordinator: c.node.Coord.Stats(),
		Frontier:    strconv.FormatUint(uint64(c.node.Coord.Frontier()), 10),
		Probes:      c.node.Membership.Probes(),
	}
}
