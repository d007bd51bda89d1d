package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/stcps/stcps/internal/timemodel"
	"github.com/stcps/stcps/internal/wal"
)

// TestMain doubles the test binary as the stcpsd helper process: with
// STCPSD_HELPER=1 it runs the daemon's run() on its own argv, so the
// crash tests can SIGKILL a real process mid-ingest without building a
// separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("STCPSD_HELPER") == "1" {
		if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "stcpsd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashFeed builds n temperature lines whose values cycle 15/25/35 so
// the warm interval opens and closes repeatedly and the hot event fires
// on every third line. Ticks are i*10.
func crashFeed(t *testing.T, n int) []string {
	t.Helper()
	lines := make([]string, n)
	for i := 0; i < n; i++ {
		temp := float64(15 + (i%3)*10)
		lines[i] = tempLine(t, uint64(i+1), timemodel.Tick(i*10), temp)
	}
	return lines
}

// walIngestCount opens the WAL directory (truncating any torn tail, as
// the daemon restart would) and counts the ingested-entity records —
// the feed prefix that survived the kill.
func walIngestCount(t *testing.T, dir string) int {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("open WAL after kill: %v", err)
	}
	defer l.Close()
	n := 0
	if err := l.Replay([]wal.Kind{wal.KindObservation, wal.KindIngest}, func(wal.Record) error {
		n++
		return nil
	}); err != nil {
		t.Fatalf("replay WAL after kill: %v", err)
	}
	return n
}

// walBytes sums the WAL segment sizes — the kill trigger watches it to
// know the daemon is really processing.
func walBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

// latestSnapshot reads the newest snapshot file in a WAL directory.
func latestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot-") && strings.HasSuffix(e.Name(), ".ndjson") {
			if best == "" || e.Name() > best {
				best = e.Name()
			}
		}
	}
	if best == "" {
		t.Fatalf("no snapshot in %s", dir)
	}
	data, err := os.ReadFile(filepath.Join(dir, best))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// helperCmd builds the stcpsd helper process invocation.
func helperCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STCPSD_HELPER=1")
	return cmd
}

// TestCrashRecovery SIGKILLs a real stcpsd mid-ingest and restarts it
// over the same WAL directory with the remaining feed: the final
// snapshot (the canonical full-window instance set) must be
// byte-identical to an uninterrupted run's.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak")
	}
	events := writeEvents(t)
	lines := crashFeed(t, 240)
	const killAt = 120

	// Uninterrupted reference run (in-process).
	cleanDir := t.TempDir()
	var cleanOut, cleanErr strings.Builder
	if err := run([]string{"-events", events, "-wal-dir", cleanDir, "-fsync", "always"},
		strings.NewReader(strings.Join(lines, "")), &cleanOut, &cleanErr); err != nil {
		t.Fatalf("clean run: %v (stderr: %s)", err, cleanErr.String())
	}
	wantSnap := latestSnapshot(t, cleanDir)
	if wantSnap == "" {
		t.Fatal("clean run produced an empty snapshot — the differential is vacuous")
	}

	// Crash run: real subprocess, killed mid-ingest.
	crashDir := t.TempDir()
	cmd := helperCmd(t, "-events", events, "-wal-dir", crashDir, "-fsync", "always")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var subErr bytes.Buffer
	cmd.Stderr = &subErr
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(stdin, strings.Join(lines[:killAt], "")); err != nil {
		t.Fatal(err)
	}
	// Wait until the daemon has demonstrably durably ingested a chunk,
	// then SIGKILL it — stdin stays open, so this is a genuine
	// mid-ingest kill, not an EOF shutdown.
	deadline := time.Now().Add(20 * time.Second)
	for walBytes(crashDir) < 4096 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never ingested (wal bytes %d, stderr %s)", walBytes(crashDir), subErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// While the daemon lives, its WAL directory is locked against other
	// processes (two appenders would corrupt the active segment).
	if l, err := wal.Open(wal.Options{Dir: crashDir, Fsync: wal.FsyncOff}); err == nil {
		l.Close()
		t.Fatal("opened a live daemon's WAL directory; expected the lock to refuse")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("lock refusal = %v, want a locked-directory error", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	stdin.Close()

	// Whatever prefix reached the WAL is what recovery will replay; the
	// restart is fed exactly the rest.
	processed := walIngestCount(t, crashDir)
	if processed == 0 || processed > killAt {
		t.Fatalf("WAL holds %d ingested records, want 1..%d", processed, killAt)
	}
	t.Logf("killed after %d/%d lines durably ingested", processed, killAt)

	var restartOut, restartErr strings.Builder
	if err := run([]string{"-events", events, "-wal-dir", crashDir, "-fsync", "always"},
		strings.NewReader(strings.Join(lines[processed:], "")), &restartOut, &restartErr); err != nil {
		t.Fatalf("restart: %v (stderr: %s)", err, restartErr.String())
	}
	if !strings.Contains(restartErr.String(), "stcpsd: wal") {
		t.Errorf("restart stderr missing recovery line: %q", restartErr.String())
	}

	if gotSnap := latestSnapshot(t, crashDir); gotSnap != wantSnap {
		t.Errorf("post-crash snapshot differs from uninterrupted run\n--- want (%d bytes) ---\n%s\n--- got (%d bytes) ---\n%s",
			len(wantSnap), wantSnap, len(gotSnap), gotSnap)
	}
}

// TestDaemonHTTPDurabilityStats: a durable daemon surfaces its WAL
// counters on /stats while the feed runs.
func TestDaemonHTTPDurabilityStats(t *testing.T) {
	events := writeEvents(t)
	dir := t.TempDir()
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	httpReady = func(addr string) { addrCh <- addr }
	defer func() { httpReady = nil }()

	var out, errw strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-events", events, "-http", "127.0.0.1:0",
			"-wal-dir", dir, "-fsync", "always", "-snapshot-every", "4"}, pr, &out, &errw)
	}()
	addr := <-addrCh
	base := "http://" + addr

	feed := ""
	for i := 0; i < 12; i++ {
		feed += tempLine(t, uint64(i+1), timemodel.Tick(i*10), 35)
	}
	if _, err := io.WriteString(pw, feed); err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		httpGetJSON(t, base+"/v1/stats", &st)
		if st.Durability.Enabled && st.Durability.Appended >= 12 && st.Durability.SnapshotSeq > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durability stats never filled: %+v", st.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Durability.Segments == 0 || st.Durability.Bytes == 0 {
		t.Errorf("durability stats = %+v, want live segment accounting", st.Durability)
	}
	if st.Durability.Syncs == 0 {
		t.Errorf("fsync always reported no syncs: %+v", st.Durability)
	}
	// The durability object's key set is part of the /v1/stats contract.
	var raw struct {
		Durability map[string]json.RawMessage `json:"durability"`
	}
	httpGetJSON(t, base+"/v1/stats", &raw)
	keys := slices.Sorted(maps.Keys(raw.Durability))
	wantKeys := []string{"appended", "bytes", "compactedSegments", "enabled", "hasTick",
		"lastSeq", "lastSyncUnixMs", "lastTick", "recoveredInstances", "reofferedEntities",
		"replayEmissions", "replaySuppressed", "replayedRecords", "segments", "snapshotSeq",
		"snapshots", "syncFailures", "syncs", "tornRecords", "walErrors"}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("durability keys = %v, want %v", keys, wantKeys)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
}

// TestDaemonSIGTERM: a real subprocess on a held-open pipe shuts down
// gracefully on SIGTERM — flushing open intervals, landing a final
// snapshot and exiting 0.
func TestDaemonSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak")
	}
	events := writeEvents(t)
	dir := t.TempDir()
	cmd := helperCmd(t, "-events", events, "-wal-dir", dir, "-fsync", "always")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var subOut, subErr bytes.Buffer
	cmd.Stdout = &subOut
	cmd.Stderr = &subErr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Two warm readings: the interval opens and stays open (stdin never
	// closes) — only the SIGTERM flush can emit it.
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(stdin, tempLine(t, uint64(i+1), timemodel.Tick(i*10), 25)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for walBytes(dir) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never ingested (stderr %s)", subErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v (stderr %s)", err, subErr.String())
		}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("daemon ignored SIGTERM (stderr %s)", subErr.String())
	}
	stdin.Close()
	if !strings.Contains(subErr.String(), "SIGTERM") {
		t.Errorf("stderr missing SIGTERM notice: %q", subErr.String())
	}
	// The open E.warm interval flushed on the way down...
	if !strings.Contains(subOut.String(), `"E.warm"`) {
		t.Errorf("SIGTERM did not flush the open interval: stdout %q", subOut.String())
	}
	// ...and the final snapshot holds it durably.
	if snap := latestSnapshot(t, dir); !strings.Contains(snap, `"E.warm"`) {
		t.Errorf("final snapshot missing flushed interval: %q", snap)
	}
}
