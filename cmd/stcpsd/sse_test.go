package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/timemodel"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses the next event (or keep-alive comment block) from an
// SSE stream.
func readSSE(r *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || ev.data != "" || ev.id != "" {
				return ev, nil
			}
			// Blank after a bare comment: keep reading.
		case strings.HasPrefix(line, ":"):
			// Keep-alive comment.
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		}
	}
}

// sseClient opens a /subscribe stream and returns a reader over it.
func sseClient(t *testing.T, ctx context.Context, url string) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

// TestDaemonSSESubscribe drives the full push pipeline end to end:
// live SSE push during ingest, per-event store cursors, the
// /subscriptions stats endpoint, and a gapless cursor reconnect.
func TestDaemonSSESubscribe(t *testing.T) {
	events := writeEvents(t)
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	httpReady = func(addr string) { addrCh <- addr }
	defer func() { httpReady = nil }()

	var out, errw strings.Builder
	done := make(chan error, 1)
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Live subscriber for E.hot, connected before anything is fed.
	r1, close1 := sseClient(t, ctx, base+"/v1/subscribe?event=E.hot")
	defer close1()

	// Two hot readings -> two E.hot emissions pushed live.
	if _, err := io.WriteString(pw, tempLine(t, 1, 10, 31)+tempLine(t, 2, 20, 34)); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		ev, err := readSSE(r1)
		if err != nil {
			t.Fatalf("live event %d: %v (stderr: %s)", i, err, errw.String())
		}
		if ev.event != "instance" || ev.id == "" {
			t.Fatalf("live event %d = %+v, want instance with id", i, ev)
		}
		if in := mustInstance(t, ev.data); in.Event != "E.hot" {
			t.Fatalf("live event %d is %q, want E.hot", i, in.Event)
		}
		ids = append(ids, ev.id)
	}

	// The subsystem's stats are visible on /subscriptions and /stats.
	var subs subscriptionsResponse
	if code := httpGetJSON(t, base+"/v1/subscriptions", &subs); code != http.StatusOK {
		t.Fatalf("/v1/subscriptions = %d", code)
	}
	if subs.Stats.Subscriptions != 1 || len(subs.Subscribers) != 1 {
		t.Fatalf("/v1/subscriptions = %+v, want one live subscriber", subs)
	}
	if subs.Subscribers[0].Event != "E.hot" || subs.Subscribers[0].Delivered != 2 {
		t.Fatalf("subscriber stats = %+v, want E.hot delivered=2", subs.Subscribers[0])
	}
	var st statsResponse
	if code := httpGetJSON(t, base+"/v1/stats", &st); code != http.StatusOK || st.Subscriptions.Subscriptions != 1 {
		t.Fatalf("/v1/stats subscriptions = %+v (code %d)", st.Subscriptions, code)
	}

	// Disconnect, miss an emission, reconnect with the last cursor: the
	// missed instance replays, then the live feed continues seamlessly.
	close1()
	if _, err := io.WriteString(pw, tempLine(t, 3, 30, 35)); err != nil {
		t.Fatal(err)
	}
	waitStoreInstances(t, base, 3)
	r2, close2 := sseClient(t, ctx, base+"/v1/subscribe?event=E.hot&cursor="+ids[len(ids)-1])
	defer close2()
	ev, err := readSSE(r2)
	if err != nil {
		t.Fatalf("replayed event: %v", err)
	}
	if in := mustInstance(t, ev.data); in.Event != "E.hot" || in.Gen != 30 {
		t.Fatalf("replayed event = %+v, want the missed E.hot at tick 30", in)
	}
	if _, err := io.WriteString(pw, tempLine(t, 4, 40, 36)); err != nil {
		t.Fatal(err)
	}
	ev, err = readSSE(r2)
	if err != nil || ev.event != "instance" {
		t.Fatalf("post-replay live event = %+v (%v)", ev, err)
	}

	// Bad requests fail cleanly rather than hanging a stream.
	if code := httpGetJSON(t, base+"/v1/subscribe?event=E.hot&cursor=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bogus cursor = %d, want 400", code)
	}
	if code := httpGetJSON(t, base+"/v1/subscribe?where=nope.temp>1", nil); code != http.StatusBadRequest {
		t.Errorf("bad condition = %d, want 400", code)
	}

	close2()
	pw.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon: %v (stderr: %s)", err, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
}

// waitStoreInstances polls /stats until the store holds at least n
// instances.
func waitStoreInstances(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st statsResponse
		if code := httpGetJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("/v1/stats = %d", code)
		}
		if st.Store.Instances >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store stuck at %d instances, want %d", st.Store.Instances, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonSlowClientTimeouts is the http.Server-timeout regression
// test: a client that never finishes its request header is disconnected
// by ReadHeaderTimeout, while an established SSE stream lives on far
// past that timeout (WriteTimeout must stay zero).
func TestDaemonSlowClientTimeouts(t *testing.T) {
	oldRead, oldIdle, oldPing := readHeaderTimeout, idleTimeout, ssePingEvery
	readHeaderTimeout, idleTimeout, ssePingEvery = 150*time.Millisecond, time.Second, 50*time.Millisecond
	defer func() { readHeaderTimeout, idleTimeout, ssePingEvery = oldRead, oldIdle, oldPing }()

	events := writeEvents(t)
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	httpReady = func(addr string) { addrCh <- addr }
	defer func() { httpReady = nil }()
	var out, errw strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-events", events, "-http", "127.0.0.1:0"}, pr, &out, &errw)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("query API never came up")
	}

	// Slow loris: open a connection, dribble half a request line, never
	// finish the header. The server must hang up within the timeout.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "GET /stats HT"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Once ReadHeaderTimeout fires the server rejects the truncated
	// header (4xx) and hangs up; without it this read would block until
	// the 5s deadline above trips. Reaching EOF quickly is the success
	// signal.
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server never disconnected the slow client (ReadHeaderTimeout missing)")
		}
		t.Fatalf("slow client read: %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("slow client disconnected only after %v", waited)
	}

	// An SSE stream must survive several ReadHeaderTimeout periods: the
	// keep-alive pings keep flowing because there is no WriteTimeout.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r, closeStream := sseClient(t, ctx, "http://"+addr+"/v1/subscribe?event=E.hot")
	defer closeStream()
	pingDeadline := time.Now().Add(5 * readHeaderTimeout)
	pings := 0
	for time.Now().Before(pingDeadline) {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream died after %d pings: %v", pings, err)
		}
		if strings.HasPrefix(line, ":") {
			pings++
		}
	}
	if pings < 3 {
		t.Fatalf("saw only %d keep-alive pings across 5 read-header-timeout periods", pings)
	}
	// A late emission still reaches the long-lived stream.
	if _, err := io.WriteString(pw, tempLine(t, 1, timemodel.Tick(10), 31)); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := readSSE(r)
		if err != nil {
			t.Fatalf("stream broke before delivering: %v", err)
		}
		if ev.event == "instance" {
			break
		}
	}

	closeStream()
	pw.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon: %v (stderr: %s)", err, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
}
