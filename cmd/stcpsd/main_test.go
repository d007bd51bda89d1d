package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

const testEvents = `[
  {"id": "E.hot", "layer": "cyber",
   "roles": [{"name": "x", "source": "S.temp", "window": 2, "maxAge": 100}],
   "when": "x.temp > 30"},
  {"id": "E.warm", "layer": "cyber",
   "roles": [{"name": "x", "source": "S.temp", "window": 2}],
   "when": "x.temp > 20", "interval": true},
  {"id": "E.obsHigh", "layer": "sensor",
   "roles": [{"name": "x", "source": "SR1", "window": 1}],
   "when": "x.v > 5"}
]`

func writeEvents(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.json")
	if err := os.WriteFile(path, []byte(testEvents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func feedLines(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 6; i++ {
		line, err := event.EncodeInstance(event.Instance{
			Layer: event.LayerSensor, Observer: "MT1", Event: "S.temp",
			Seq: uint64(i + 1), Gen: timemodel.Tick(i * 10),
			GenLoc:     spatial.AtPoint(0, 0),
			Occ:        timemodel.At(timemodel.Tick(i * 10)),
			Loc:        spatial.AtPoint(0, 0),
			Attrs:      event.Attrs{"temp": 22 + float64(i)*3}, // 22..37: crosses both thresholds
			Confidence: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	// One raw observation for the sensor-layer event.
	obs, err := json.Marshal(event.Observation{
		Mote: "MT1", Sensor: "SR1", Seq: 1,
		Time: timemodel.At(60), Loc: spatial.AtPoint(1, 1),
		Attrs: event.Attrs{"v": 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(obs)
	sb.WriteByte('\n')
	// Garbage and unknown lines are skipped, not fatal.
	sb.WriteString("{not json}\n")
	sb.WriteString(`{"neither":"kind"}` + "\n")
	return sb.String()
}

// runDaemon runs stcpsd and decodes its emitted instances.
func runDaemon(t *testing.T, args []string, stdin string) ([]event.Instance, string) {
	t.Helper()
	var out, errw strings.Builder
	if err := run(args, strings.NewReader(stdin), &out, &errw); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	var insts []event.Instance
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		insts = append(insts, mustInstance(t, line))
	}
	return insts, errw.String()
}

func TestDaemonSynchronous(t *testing.T) {
	events := writeEvents(t)
	insts, stderr := runDaemon(t, []string{"-events", events, "-observer", "edge-1"}, feedLines(t))

	byEvent := make(map[string]int)
	for _, in := range insts {
		if in.Observer != "edge-1" {
			t.Errorf("observer = %q", in.Observer)
		}
		byEvent[in.Event]++
	}
	// temps 22,25,28,31,34,37: three cross 30 (punctual E.hot), the warm
	// interval opens at 22 and flushes at EOF, and the observation fires
	// E.obsHigh once.
	if byEvent["E.hot"] != 3 {
		t.Errorf("E.hot fired %d times, want 3 (stderr: %s)", byEvent["E.hot"], stderr)
	}
	if byEvent["E.warm"] != 1 {
		t.Errorf("E.warm fired %d times, want 1", byEvent["E.warm"])
	}
	if byEvent["E.obsHigh"] != 1 {
		t.Errorf("E.obsHigh fired %d times, want 1", byEvent["E.obsHigh"])
	}
	if !strings.Contains(stderr, "ingested=7 skipped=2") {
		t.Errorf("stderr summary = %q", stderr)
	}
}

func TestDaemonSharded(t *testing.T) {
	events := writeEvents(t)
	insts, _ := runDaemon(t, []string{"-events", events, "-workers", "4"}, feedLines(t))
	byEvent := make(map[string]int)
	for _, in := range insts {
		byEvent[in.Event]++
	}
	if byEvent["E.hot"] != 3 || byEvent["E.warm"] != 1 || byEvent["E.obsHigh"] != 1 {
		t.Errorf("sharded run emitted %v, want map[E.hot:3 E.obsHigh:1 E.warm:1]", byEvent)
	}
}

// tempLine encodes one S.temp instance at the given tick.
func tempLine(t *testing.T, seq uint64, tick timemodel.Tick, temp float64) string {
	t.Helper()
	line, err := event.EncodeInstance(event.Instance{
		Layer: event.LayerSensor, Observer: "MT1", Event: "S.temp",
		Seq: seq, Gen: tick,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        timemodel.At(tick),
		Loc:        spatial.AtPoint(0, 0),
		Attrs:      event.Attrs{"temp": temp},
		Confidence: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(line) + "\n"
}

// TestDaemonFlushAtMaxTick feeds out of order: the open E.warm interval
// must flush at the MAX ingested tick (100), not the last line's tick
// (50) — a last-line tracker would stamp the flushed instance's
// generation time in the past.
func TestDaemonFlushAtMaxTick(t *testing.T) {
	events := writeEvents(t)
	stdin := tempLine(t, 1, 100, 25) + tempLine(t, 2, 50, 25) // warm, never hot
	insts, stderr := runDaemon(t, []string{"-events", events}, stdin)
	var warm []event.Instance
	for _, in := range insts {
		if in.Event == "E.warm" {
			warm = append(warm, in)
		}
	}
	if len(warm) != 1 {
		t.Fatalf("E.warm fired %d times, want 1 (stderr: %s)", len(warm), stderr)
	}
	if warm[0].Gen != 100 {
		t.Errorf("flushed at tick %d, want max ingested tick 100", warm[0].Gen)
	}
}

// TestDaemonEmptyInput: nothing ingested, nothing flushed, clean exit.
func TestDaemonEmptyInput(t *testing.T) {
	events := writeEvents(t)
	insts, stderr := runDaemon(t, []string{"-events", events}, "")
	if len(insts) != 0 {
		t.Errorf("empty input emitted %v", insts)
	}
	if !strings.Contains(stderr, "ingested=0 skipped=0 emitted=0") {
		t.Errorf("stderr summary = %q", stderr)
	}
}

// mustInstance decodes one emitted JSON line with the daemon's own feed
// decoder and fails the test unless it is a valid instance.
func mustInstance(t *testing.T, line string) event.Instance {
	t.Helper()
	in, _, kind, err := event.DecodeEntityJSON([]byte(line))
	if err != nil || kind != event.KindInstance {
		t.Fatalf("bad instance line %q: kind %d, %v", line, kind, err)
	}
	return in
}

// httpGetJSON fetches a URL and decodes the JSON body into out,
// returning the status code.
func httpGetJSON(t *testing.T, rawURL string, out any) int {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", rawURL, body, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonHTTPQueryAPI runs the daemon with -http against a pipe held
// open, queries the live store mid-ingest, then closes stdin and checks
// the normal teardown.
func TestDaemonHTTPQueryAPI(t *testing.T) {
	events := writeEvents(t)
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	httpReady = func(addr string) { addrCh <- addr }
	defer func() { httpReady = nil }()

	var out, errw strings.Builder
	done := make(chan error, 1)
	// Synchronous engine: emissions (and store logging) happen inline
	// with each fed line, so the mid-ingest queries below see them. With
	// -workers >1 offers batch toward the shards and small feeds only
	// land at Drain/Close.
	go func() {
		done <- run([]string{"-events", events, "-http", "127.0.0.1:0"}, pr, &out, &errw)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("query API never came up")
	}
	base := "http://" + addr

	if _, err := io.WriteString(pw, feedLines(t)); err != nil {
		t.Fatal(err)
	}

	// The feed is async to the HTTP server: poll /v1/stats until the
	// three E.hot and one E.obsHigh emissions are logged and the last
	// feed lines are counted (the snapshot reads the counters first).
	var st statsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := httpGetJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("/v1/stats = %d", code)
		}
		if st.Store.Instances >= 4 && st.Ingested >= 7 && st.Skipped >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never filled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Ingested != 7 || st.Skipped != 2 {
		t.Errorf("stats = %+v, want ingested=7 skipped=2", st)
	}
	if len(st.Plans) == 0 {
		t.Errorf("stats carry no plan descriptions: %+v", st)
	}
	if st.Detect.BindingsProbed == 0 {
		t.Errorf("stats carry no probed-bindings counter: %+v", st.Detect)
	}

	if code := httpGetJSON(t, base+"/v1/healthz", nil); code != http.StatusOK {
		t.Errorf("/v1/healthz = %d", code)
	}

	// Combined event×time query: hot crossings at ticks 30, 40, 50.
	var qr queryResponse
	if code := httpGetJSON(t, base+"/v1/query?event=E.hot&from=0&to=45", &qr); code != http.StatusOK {
		t.Fatalf("/v1/query = %d", code)
	}
	if qr.Count != 2 || qr.Index != "time" {
		t.Errorf("time query = %+v, want 2 hits via time index", qr)
	}

	// Region query: only E.obsHigh sits at (1,1).
	if code := httpGetJSON(t, base+"/v1/query?x1=0.5&y1=0.5&x2=2&y2=2", &qr); code != http.StatusOK {
		t.Fatalf("region /query = %d", code)
	}
	if qr.Count != 1 || qr.Instances[0].Event != "E.obsHigh" {
		t.Errorf("region query = %+v, want the E.obsHigh instance", qr)
	}

	// Pagination.
	qr = queryResponse{}
	if httpGetJSON(t, base+"/v1/query?event=E.hot&limit=2", &qr); qr.Count != 2 || qr.NextCursor == "" {
		t.Fatalf("page 1 = %+v", qr)
	}
	page2 := queryResponse{}
	if httpGetJSON(t, base+"/v1/query?event=E.hot&limit=2&cursor="+qr.NextCursor, &page2); page2.Count != 1 || page2.NextCursor != "" {
		t.Errorf("page 2 = %+v", page2)
	}
	qr = page2

	// Lineage of an emitted instance reaches its (unlogged) input leaf.
	var lr lineageResponse
	id := url.PathEscape(qr.Instances[0].EntityID())
	if code := httpGetJSON(t, base+"/v1/lineage/"+id, &lr); code != http.StatusOK {
		t.Fatalf("/v1/lineage = %d", code)
	}
	if len(lr.Chain) != 2 {
		t.Errorf("lineage chain = %v", lr.Chain)
	}

	// Error paths.
	var errBody map[string]string
	if code := httpGetJSON(t, base+"/v1/query?x1=3", &errBody); code != http.StatusBadRequest {
		t.Errorf("partial region = %d (%v)", code, errBody)
	}
	if code := httpGetJSON(t, base+"/v1/query?cursor=bogus", &errBody); code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d", code)
	}
	if code := httpGetJSON(t, base+"/v1/query?limit=nope", &errBody); code != http.StatusBadRequest {
		t.Errorf("bad limit = %d", code)
	}
	if code := httpGetJSON(t, base+"/v1/lineage/"+url.PathEscape("E(none,none,0)"), &errBody); code != http.StatusNotFound {
		t.Errorf("missing lineage = %d", code)
	}
	// The unversioned pre-/v1 paths are gone.
	if code := httpGetJSON(t, base+"/query", nil); code != http.StatusNotFound {
		t.Errorf("unversioned /query = %d, want 404", code)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "query API on http://") {
		t.Errorf("stderr missing listen line: %q", errw.String())
	}
}

// TestDaemonHTTPRetention bounds the store from the command line, reads
// the eviction counters back through /v1/stats, and — with a cold tier
// attached — checks that evicted history stays queryable per tier.
func TestDaemonHTTPRetention(t *testing.T) {
	events := writeEvents(t)
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	httpReady = func(addr string) { addrCh <- addr }
	defer func() { httpReady = nil }()

	var out, errw strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-events", events, "-http", "127.0.0.1:0", "-db-max-instances", "2",
			"-spill-dir", filepath.Join(t.TempDir(), "cold")}, pr, &out, &errw)
	}()
	addr := <-addrCh
	base := "http://" + addr

	// 10 hot readings -> 10 E.hot emissions, store capped at 2.
	var feed strings.Builder
	for i := 0; i < 10; i++ {
		feed.WriteString(tempLine(t, uint64(i+1), timemodel.Tick(i*10), 35))
	}
	if _, err := io.WriteString(pw, feed.String()); err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		httpGetJSON(t, base+"/v1/stats", &st)
		if st.Store.Evicted >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no eviction: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Store.Instances != 2 {
		t.Errorf("store holds %d instances, want 2", st.Store.Instances)
	}
	var qr queryResponse
	httpGetJSON(t, base+"/v1/query?event=E.hot&tier=hot", &qr)
	if qr.Count != 2 {
		t.Errorf("query over bounded store = %d hits, want 2", qr.Count)
	}
	// A region over every instance is no more selective than the live
	// window: the page is the sequential walk of each tier's range, and
	// all tiers together return the whole history.
	for tier, want := range map[string]int{"all": 10, "hot": 2, "cold": 8} {
		qr = queryResponse{}
		httpGetJSON(t, base+"/v1/query?x1=-100&y1=-100&x2=100&y2=100&tier="+tier, &qr)
		if qr.Count != want || qr.Index != "log" {
			t.Errorf("all-covering region, tier=%s: %d hits via %q, want %d via log", tier, qr.Count, qr.Index, want)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDaemonErrors(t *testing.T) {
	var out, errw strings.Builder
	if err := run(nil, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("missing -events should error")
	}
	if err := run([]string{"-events", "/nonexistent.json"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("unreadable events file should error")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events", empty}, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("empty events file should error")
	}
	badLayer := filepath.Join(t.TempDir(), "bad.json")
	spec := `[{"id":"E","layer":"bogus","roles":[{"name":"x","source":"s"}],"when":"true"}]`
	if err := os.WriteFile(badLayer, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events", badLayer}, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("bad layer should error")
	}
}
