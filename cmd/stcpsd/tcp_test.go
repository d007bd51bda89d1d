package main

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/frame"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/wireclient"
)

// syncBuffer is a goroutine-safe strings.Builder: with -tcp, connection
// handlers log concurrently with the daemon's own stderr writes.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func tempInstance(seq uint64, tick timemodel.Tick, temp float64) event.Instance {
	return event.Instance{
		Layer: event.LayerSensor, Observer: "MT1", Event: "S.temp",
		Seq: seq, Gen: tick,
		GenLoc:     spatial.AtPoint(0, 0),
		Occ:        timemodel.At(tick),
		Loc:        spatial.AtPoint(0, 0),
		Attrs:      event.Attrs{"temp": temp},
		Confidence: 0.9,
	}
}

// startWireDaemon runs the daemon with -tcp against a stdin pipe held
// open and returns the wire address, the pipe's write end (close it to
// trigger the normal EOF teardown), the run result channel, and the
// output buffers.
func startWireDaemon(t *testing.T, extraArgs ...string) (string, *io.PipeWriter, <-chan error, *strings.Builder, *syncBuffer) {
	t.Helper()
	events := writeEvents(t)
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	tcpReady = func(addr string) { addrCh <- addr }
	t.Cleanup(func() { tcpReady = nil })

	var out strings.Builder
	errw := &syncBuffer{}
	done := make(chan error, 1)
	args := append([]string{"-events", events, "-tcp", "127.0.0.1:0"}, extraArgs...)
	go func() {
		done <- run(args, pr, &out, errw)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("wire listener never came up")
	}
	return addr, pw, done, &out, errw
}

// TestDaemonMaxLine is the ErrTooLong regression: an oversized stdin
// line must be skipped — not kill the feed and swallow everything after
// it, which is what bufio.Scanner did.
func TestDaemonMaxLine(t *testing.T) {
	events := writeEvents(t)
	big := `{"pad":"` + strings.Repeat("x", 1<<20+1024) + `"}`
	stdin := big + "\n" + tempLine(t, 1, 10, 35)
	insts, stderr := runDaemon(t, []string{"-events", events}, stdin)
	if !strings.Contains(stderr, "skipping line longer than") {
		t.Errorf("stderr missing too-long skip: %q", stderr)
	}
	if !strings.Contains(stderr, "ingested=1 skipped=1") {
		t.Errorf("stderr summary = %q, want ingested=1 skipped=1", stderr)
	}
	// The hot reading after the monster line still fired the detector.
	hot := 0
	for _, in := range insts {
		if in.Event == "E.hot" {
			hot++
		}
	}
	if hot != 1 {
		t.Errorf("E.hot fired %d times after oversized line, want 1", hot)
	}
}

// TestDaemonMaxLineFlag lowers the bound with -max-line.
func TestDaemonMaxLineFlag(t *testing.T) {
	events := writeEvents(t)
	big := `{"pad":"` + strings.Repeat("x", 2000) + `"}`
	stdin := big + "\n" + tempLine(t, 1, 10, 35)
	_, stderr := runDaemon(t, []string{"-events", events, "-max-line", "1024"}, stdin)
	if !strings.Contains(stderr, "skipping line longer than 1024 bytes") {
		t.Errorf("stderr = %q", stderr)
	}
	if !strings.Contains(stderr, "ingested=1 skipped=1") {
		t.Errorf("stderr summary = %q", stderr)
	}
}

// TestDaemonWireIngest is the wire end-to-end: a wireclient feeds
// observations and instances over TCP, detections fire, and the wire
// records land in the daemon's counters alongside stdin's.
func TestDaemonWireIngest(t *testing.T) {
	addr, pw, done, out, errw := startWireDaemon(t)

	c, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	// temps 22..37 step 3: three cross 30 (E.hot), the warm interval
	// opens and flushes at teardown.
	for i := 0; i < 6; i++ {
		in := tempInstance(uint64(i+1), timemodel.Tick(i*10), 22+float64(i)*3)
		if err := c.SendInstance(&in); err != nil {
			t.Fatalf("send instance %d: %v", i, err)
		}
	}
	// One raw observation for the sensor-layer event.
	o := wireclient.Observation{
		Mote: "MT1", Sensor: "SR1", Seq: 1,
		Time: timemodel.At(60), Loc: spatial.AtPoint(1, 1),
		Attrs: event.Attrs{"v": 9},
	}
	if err := c.SendObservation(&o); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := c.Stats(); st.Acked != 7 {
		t.Fatalf("client acked %d, want 7 (%+v)", st.Acked, st)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "ingested=7 skipped=0") {
		t.Errorf("stderr summary = %q", errw.String())
	}
	byEvent := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" {
			continue
		}
		byEvent[mustInstance(t, line).Event]++
	}
	if byEvent["E.hot"] != 3 || byEvent["E.warm"] != 1 || byEvent["E.obsHigh"] != 1 {
		t.Errorf("wire feed emitted %v, want map[E.hot:3 E.obsHigh:1 E.warm:1]", byEvent)
	}
}

// TestDaemonWireTornStream kills a wire client mid-frame: the daemon
// must reject the torn final frame without poisoning the batches it
// already acked, and keep serving new connections.
func TestDaemonWireTornStream(t *testing.T) {
	addr, pw, done, _, errw := startWireDaemon(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := frame.WriteFrame(conn, frame.AppendHello(nil)); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewReader(bufio.NewReader(conn), 0)
	welcome, _, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := frame.ParseWelcome(welcome); err != nil {
		t.Fatal(err)
	}
	// One full batch of five hot readings, acked.
	var bw frame.BatchWriter
	for i := 0; i < 5; i++ {
		in := tempInstance(uint64(i+1), timemodel.Tick(i*10), 35)
		if err := bw.AddInstance(&in); err != nil {
			t.Fatal(err)
		}
	}
	payload, _ := bw.Take(nil)
	if err := frame.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	ack, _, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := frame.ParseAck(ack); err != nil || n != 5 {
		t.Fatalf("ack: %d, %v", n, err)
	}
	// Kill mid-stream: half a frame, then drop the connection.
	for i := 0; i < 5; i++ {
		in := tempInstance(uint64(i+6), timemodel.Tick((i+5)*10), 35)
		if err := bw.AddInstance(&in); err != nil {
			t.Fatal(err)
		}
	}
	payload, _ = bw.Take(payload[:0])
	full := frame.AppendFrame(nil, payload)
	if _, err := conn.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The handler logs the torn stream when it unwinds.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(errw.String(), "torn=true") {
		if time.Now().After(deadline) {
			t.Fatalf("torn stream never reported: %q", errw.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The listener survived: a fresh client still ingests.
	c, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	in := tempInstance(100, 200, 35)
	if err := c.SendInstance(&in); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	// 5 acked + 1 after the tear; the torn batch's 5 never ingested.
	if !strings.Contains(errw.String(), "ingested=6 skipped=0") {
		t.Errorf("stderr summary = %q, want ingested=6", errw.String())
	}
}

// TestDaemonWireWithWAL exercises the materialize path: with -wal-dir
// the wire server decodes eagerly so the durability layer can log
// concrete entities, and the feed replays after a restart.
func TestDaemonWireWithWAL(t *testing.T) {
	dir := t.TempDir()
	addr, pw, done, _, errw := startWireDaemon(t, "-wal-dir", dir, "-fsync", "off")

	c, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in := tempInstance(uint64(i+1), timemodel.Tick(i*10), 35)
		if err := c.SendInstance(&in); err != nil {
			t.Fatal(err)
		}
	}
	o := wireclient.Observation{
		Mote: "MT1", Sensor: "SR1", Seq: 1,
		Time: timemodel.At(60), Loc: spatial.AtPoint(1, 1),
		Attrs: event.Attrs{"v": 9},
	}
	if err := c.SendObservation(&o); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	if !strings.Contains(errw.String(), "ingested=4 skipped=0") {
		t.Errorf("stderr summary = %q", errw.String())
	}

	// Restart over the same WAL: recovery replays the wire-fed records.
	events := writeEvents(t)
	var out strings.Builder
	errw2 := &syncBuffer{}
	if err := run([]string{"-events", events, "-wal-dir", dir, "-fsync", "off"},
		strings.NewReader(""), &out, errw2); err != nil {
		t.Fatalf("restart: %v (stderr: %s)", err, errw2.String())
	}
	if !strings.Contains(errw2.String(), "replayed=") || strings.Contains(errw2.String(), "replayed=0 ") {
		t.Errorf("restart stderr = %q, want a non-empty replay", errw2.String())
	}
}
