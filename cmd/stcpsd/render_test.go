package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/cluster"
	"github.com/stcps/stcps/internal/cluster/hlc"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// queryResponse is one single-node /v1/query page: the shape the HTTP
// tests decode, and through encoding/json the oracle appendQueryPage
// must match byte for byte.
type queryResponse struct {
	Count      int              `json:"count"`
	Instances  []stcps.Instance `json:"instances"`
	NextCursor string           `json:"nextCursor,omitempty"`
	Index      string           `json:"index"`
	Scanned    int              `json:"scanned"`
	Cold       *db.ColdScan     `json:"cold,omitempty"`
}

// gatherResponse is one merged scatter-gather /v1/query page, the
// decode shape and oracle of appendGatherPage.
type gatherResponse struct {
	Count      int              `json:"count"`
	Instances  []stcps.Instance `json:"instances"`
	Stamps     []string         `json:"stamps"`
	NextCursor string           `json:"nextCursor,omitempty"`
	Staleness  int64            `json:"staleness"`
	Partitions int              `json:"partitions"`
}

// The oracles convert a result to its page struct the way the handlers
// did when every page went through json.Encoder.
func queryOracle(res stcps.QueryResult) queryResponse {
	out := queryResponse{Count: len(res.Instances), Instances: res.Instances,
		NextCursor: res.NextCursor, Index: res.Index, Scanned: res.Scanned}
	if res.Cold.Segments > 0 {
		cold := res.Cold
		out.Cold = &cold
	}
	return out
}

func partitionOracle(resp cluster.PageResp) partitionPageResponse {
	out := partitionPageResponse{Count: len(resp.Instances), Instances: resp.Instances,
		Seqs: []string{}, Stamps: []string{}, More: resp.More,
		Frontier: strconv.FormatUint(resp.Frontier, 10)}
	if out.Instances == nil {
		out.Instances = []stcps.Instance{}
	}
	for i := range resp.Seqs {
		out.Seqs = append(out.Seqs, strconv.FormatUint(resp.Seqs[i], 10))
		out.Stamps = append(out.Stamps, strconv.FormatUint(resp.Stamps[i], 10))
	}
	return out
}

func gatherOracle(res cluster.Result) gatherResponse {
	out := gatherResponse{Count: len(res.Instances), Instances: res.Instances,
		Stamps: []string{}, NextCursor: res.NextCursor,
		Staleness: int64(res.Staleness), Partitions: res.Partitions}
	if out.Instances == nil {
		out.Instances = []stcps.Instance{}
	}
	for _, s := range res.Stamps {
		out.Stamps = append(out.Stamps, strconv.FormatUint(uint64(s), 10))
	}
	return out
}

func encoderBytes(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// awkward holds every string class the escaper must get right: the
// HTML characters, a quote, a control byte, U+2028 and invalid UTF-8.
var awkward = []string{"<b>&amp;", `say "hi"`, "bell\x01", "line\u2028sep", "bad\xffutf8", "plain"}

// pageInstances covers point and field locations, punctual and
// interval occurrences, nil/empty/filled attrs and inputs, and the
// awkward strings in every string field.
func pageInstances() []event.Instance {
	field := spatial.InField(spatial.MustField(spatial.Pt(0, 0), spatial.Pt(4.5, 0), spatial.Pt(4.5, 1e-7)))
	var out []event.Instance
	for i, s := range awkward {
		in := tempInstance(uint64(i+1), timemodel.Tick(10*i), 21.25)
		in.Layer = event.LayerCyber
		in.Observer, in.Event = s, s+".e"
		in.Inputs = []string{s, "O(S,1)"}
		in.Attrs[s] = -3e-9
		switch i % 3 {
		case 0:
			in.Loc, in.Occ = field, timemodel.MustBetween(5, 9)
			in.Attrs, in.Inputs = nil, nil
		case 1:
			in.GenLoc = spatial.AtPoint(1e21, -0.5)
			in.Attrs, in.Inputs = event.Attrs{}, []string{}
		}
		out = append(out, in)
	}
	return out
}

// TestPagesMatchEncodingJSON renders every page shape through respond
// and compares it with json.Encoder's rendering of the page struct:
// same bytes, trailing newline included, sent with its length.
func TestPagesMatchEncodingJSON(t *testing.T) {
	ins := pageInstances()
	type pageCase struct {
		name   string
		fill   func([]byte) ([]byte, error)
		oracle any
	}
	query := func(name string, res stcps.QueryResult) pageCase {
		return pageCase{name, func(dst []byte) ([]byte, error) { return appendQueryPage(dst, &res) }, queryOracle(res)}
	}
	partition := func(name string, resp cluster.PageResp) pageCase {
		return pageCase{name, func(dst []byte) ([]byte, error) { return appendPartitionPage(dst, &resp) }, partitionOracle(resp)}
	}
	gather := func(name string, res cluster.Result) pageCase {
		return pageCase{name, func(dst []byte) ([]byte, error) { return appendGatherPage(dst, &res) }, gatherOracle(res)}
	}
	seqs := make([]uint64, len(ins))
	stamps := make([]hlc.Stamp, len(ins))
	for i := range ins {
		seqs[i] = math.MaxUint64 - uint64(i)
		stamps[i] = hlc.Stamp(1<<62 + i)
	}
	cases := []pageCase{
		query("query nil", stcps.QueryResult{Index: "log"}),
		query("query empty", stcps.QueryResult{Instances: []event.Instance{}, Index: "time", Scanned: 7}),
		query("query cursor and cold", stcps.QueryResult{Instances: ins, NextCursor: "12", Index: "region", Scanned: 40,
			Cold: db.ColdScan{Segments: 2, BlocksRead: 3, BlocksPruned: 4, Records: 5}}),
		query("query cold unused", stcps.QueryResult{Instances: ins[:1], Index: "time", Cold: db.ColdScan{Records: 9}}),
		partition("partition", cluster.PageResp{Instances: ins, Seqs: seqs, Stamps: seqs, More: true, Frontier: math.MaxUint64}),
		partition("partition nil", cluster.PageResp{Frontier: 3}),
		gather("gather", cluster.Result{Instances: ins, Stamps: stamps, NextCursor: "p0:<&>", Staleness: -4, Partitions: 3}),
		gather("gather nil", cluster.Result{Partitions: 1}),
	}
	for i, s := range awkward {
		cases = append(cases, query("query "+strconv.Quote(s), stcps.QueryResult{Instances: ins[i : i+1], NextCursor: s, Index: s, Scanned: i}))
	}
	for _, c := range cases {
		want, err := encoderBytes(c.oracle)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		rec := httptest.NewRecorder()
		respond(rec, http.StatusOK, c.fill)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: %d\n got %s\nwant %s", c.name, rec.Code, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %q, want %d", c.name, cl, len(want))
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}
}

// TestUnencodablePageAnswers500: an instance holding a non-finite float
// cannot be rendered (json.Encoder fails on it too); every page shape
// answers a 500 envelope instead of a 200 with an empty body.
func TestUnencodablePageAnswers500(t *testing.T) {
	in := pageInstances()[1]
	in.Attrs = event.Attrs{"v": math.NaN()}
	ins := []event.Instance{in}
	if _, err := encoderBytes(queryOracle(stcps.QueryResult{Instances: ins})); err == nil {
		t.Fatal("oracle encoded a NaN")
	}
	fills := map[string]func([]byte) ([]byte, error){
		"query": func(dst []byte) ([]byte, error) {
			return appendQueryPage(dst, &stcps.QueryResult{Instances: ins})
		},
		"partition": func(dst []byte) ([]byte, error) {
			return appendPartitionPage(dst, &cluster.PageResp{Instances: ins, Seqs: []uint64{1}, Stamps: []uint64{1}})
		},
		"gather": func(dst []byte) ([]byte, error) {
			return appendGatherPage(dst, &cluster.Result{Instances: ins, Stamps: []hlc.Stamp{1}})
		},
	}
	for name, fill := range fills {
		rec := httptest.NewRecorder()
		respond(rec, http.StatusOK, fill)
		var env errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Code != "internal" {
			t.Errorf("%s: %d %q (%v), want a 500 internal envelope", name, rec.Code, rec.Body.Bytes(), err)
		}
	}
}

// TestPageRenderAllocs: a 100-instance page renders into a warm buffer
// without allocating.
func TestPageRenderAllocs(t *testing.T) {
	ins := make([]event.Instance, 100)
	for i := range ins {
		ins[i] = tempInstance(uint64(i), timemodel.Tick(i), 35)
		ins[i].Inputs = []string{"O(SR1,1)", "O(SR2,1)"}
	}
	res := stcps.QueryResult{Instances: ins, NextCursor: "100", Index: "time", Scanned: 100}
	buf, err := appendQueryPage(nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf, _ = appendQueryPage(buf[:0], &res) }); n != 0 {
		t.Fatalf("rendering a warm 100-instance page: %v allocs, want 0", n)
	}
}

// TestSSEFrames pins the event-stream bytes: instance and gap frames as
// the fmt-based writer rendered them, and error frames whose data is
// JSON for any message (%q emitted \x01 and \xff escapes JSON lacks).
func TestSSEFrames(t *testing.T) {
	in := pageInstances()[2]
	data, err := event.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []stcps.SubDelivery{{Inst: in, Cursor: 42, HasCursor: true}, {Inst: in}} {
		want := fmt.Sprintf("event: instance\ndata: %s\n\n", data)
		if d.HasCursor {
			want = fmt.Sprintf("id: %d\n", d.Cursor) + want
		}
		var b bytes.Buffer
		if _, encErr, err := writeSSEInstance(&b, []byte("stale"), &d); encErr != nil || err != nil || b.String() != want {
			t.Errorf("instance frame = %q (%v, %v), want %q", b.String(), encErr, err, want)
		}
	}
	var b bytes.Buffer
	bad := stcps.SubDelivery{Inst: in, HasCursor: true}
	bad.Inst.Observer = ""
	if _, encErr, err := writeSSEInstance(&b, nil, &bad); encErr == nil || err != nil || b.Len() != 0 {
		t.Errorf("invalid instance: wrote %q, errors %v, %v", b.String(), encErr, err)
	}
	if got, want := string(appendSSEGap(nil, 7)), "event: gap\ndata: {\"dropped\":7}\n\n"; got != want {
		t.Errorf("gap frame = %q, want %q", got, want)
	}
	msg := "db: cursor 5 precedes retained history"
	if got, want := string(appendSSEError(nil, msg)), fmt.Sprintf("event: error\ndata: {\"error\":%q}\n\n", msg); got != want {
		t.Errorf("error frame = %q, want %q", got, want)
	}
	for _, msg := range awkward {
		frame := string(appendSSEError(nil, msg))
		payload, ok := strings.CutPrefix(frame, "event: error\ndata: ")
		var v struct{ Error string }
		if err := json.Unmarshal([]byte(strings.TrimSuffix(payload, "\n\n")), &v); !ok || err != nil ||
			v.Error != strings.ToValidUTF8(msg, "\uFFFD") || strings.Count(frame, "\n") != 3 {
			t.Errorf("error frame %q: data is not the message as JSON (%v)", frame, err)
		}
	}
}

// FuzzQueryPage: arbitrary instance fields render to exactly
// json.Encoder's bytes, or fail where it fails (a non-finite float).
func FuzzQueryPage(f *testing.F) {
	f.Add(3, "MT1", "E.hot", "O(S,1)", "temp", uint64(7), int64(10), int64(0), 0.5, 21.5, 1.0, 2.0, true)
	f.Add(2, "<&>\x01", " \xff", `"\`, "", uint64(math.MaxUint64), int64(-5), int64(9), 1e-7, 1e21, -0.0, 3e300, false)
	f.Add(1, "a", "b", "c", "d", uint64(0), int64(0), int64(1), math.NaN(), math.Inf(-1), 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, layer int, obs, ev, input, attr string, seq uint64, gen, dur int64,
		conf, v, x, y float64, field bool) {
		in := event.Instance{Layer: event.Layer(layer), Observer: obs, Event: ev, Seq: seq,
			Gen: timemodel.Tick(gen), GenLoc: spatial.AtPoint(x, y), Occ: timemodel.At(timemodel.Tick(gen)),
			Loc: spatial.AtPoint(y, x), Attrs: event.Attrs{attr: v}, Confidence: conf, Inputs: []string{input, obs}}
		if occ, err := timemodel.Between(timemodel.Tick(gen), timemodel.Tick(gen+dur)); err == nil {
			in.Occ = occ
		}
		if f, err := spatial.Rect(x, y, x+1, y+2); field && err == nil {
			in.Loc = spatial.InField(f)
		}
		res := stcps.QueryResult{Instances: []event.Instance{in, in}, NextCursor: input, Index: attr, Scanned: int(seq % 1000)}
		got, err := appendQueryPage(nil, &res)
		want, werr := encoderBytes(queryOracle(res))
		if (err != nil) != (werr != nil) {
			t.Fatalf("render error %v, encoding/json error %v", err, werr)
		}
		if err == nil && !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("got  %s\nwant %s", got, want)
		}
	})
}
