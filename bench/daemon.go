package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Per-operation deadlines: a hung daemon yields failed operations, not
// a hung benchmark.
const (
	readyTimeout = 20 * time.Second // spawn (or WAL recovery) → both listeners announced
	opTimeout    = 30 * time.Second // one send phase, one drain, one HTTP request
	stopTimeout  = 30 * time.Second // SIGTERM → exit (final snapshot included)
)

// moduleRoot returns the directory holding go.mod. The benchmark runs
// from the checkout root under `go run ./bench` and from bench/ under
// `go test`; both resolve here.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", errors.New("not inside the stcps module (no go.mod)")
	}
	return filepath.Dir(mod), nil
}

// buildDaemon compiles cmd/stcpsd into outDir, outside every clock.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "stcpsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stcpsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building stcpsd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned stcpsd. Every error path ends in kill, and kill
// waits for the process, so no daemon outlives the harness.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser // held open: EOF on stdin is a shutdown request
	wire  string
	http  string
	hc    *http.Client

	mu     sync.Mutex
	stderr []string //stcps:guardedby mu

	exited chan struct{} // closed once Wait returned
	exitMu sync.Mutex
	err    error //stcps:guardedby exitMu
}

// spawn starts the daemon and waits for both listeners. The returned
// daemon must be stopped or killed.
func spawn(bin, eventsPath string, flags []string) (*daemon, error) {
	args := append([]string{"-events", eventsPath, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-workers", "1"}, flags...)
	cmd := exec.Command(bin, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer null.Close() // the child holds its own descriptor after Start
	cmd.Stdout = null
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting stcpsd: %w", err)
	}
	d := &daemon{cmd: cmd, stdin: stdin, exited: make(chan struct{}),
		hc: &http.Client{Timeout: opTimeout}}

	type addrs struct{ wire, http string }
	ready := make(chan addrs, 1) // one send: both addresses, once
	go func() {
		var a addrs
		sent := false
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr = append(d.stderr, line)
			d.mu.Unlock()
			if s, ok := strings.CutPrefix(line, "stcpsd: query API on http://"); ok {
				a.http = s
			}
			if s, ok := strings.CutPrefix(line, "stcpsd: wire ingest on "); ok {
				a.wire = s
			}
			if !sent && a.http != "" && a.wire != "" {
				sent = true
				ready <- a
			}
		}
		// Wait only after stderr drained: Wait closes the pipe.
		werr := cmd.Wait()
		d.exitMu.Lock()
		d.err = werr
		d.exitMu.Unlock()
		close(d.exited)
	}()

	select {
	case a := <-ready:
		d.wire, d.http = a.wire, a.http
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("stcpsd exited before its listeners came up: %w\n%s", d.exitErr(), d.stderrTail(10))
	case <-time.After(readyTimeout):
		d.kill()
		return nil, fmt.Errorf("stcpsd listeners not up after %v\n%s", readyTimeout, d.stderrTail(10))
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) exitErr() error {
	d.exitMu.Lock()
	defer d.exitMu.Unlock()
	return d.err
}

func (d *daemon) stderrTail(n int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	lines := d.stderr
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// kill ends the daemon unconditionally and waits for it. Safe to call
// more than once and after stop.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = d.stdin.Close()
}

// summary is the daemon's SIGTERM line:
// "stcpsd: ingested=N skipped=N emitted=N events=N workers=N".
type summary struct {
	Ingested, Skipped, Emitted uint64
}

// stop sends SIGTERM, waits for a clean exit and parses the summary
// line. A daemon that does not exit in time is killed and reported.
func (d *daemon) stop() (summary, error) {
	var s summary
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return s, fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.kill()
		return s, fmt.Errorf("stcpsd still running %v after SIGTERM", stopTimeout)
	}
	_ = d.stdin.Close()
	if err := d.exitErr(); err != nil {
		return s, fmt.Errorf("stcpsd exit status: %w\n%s", err, d.stderrTail(5))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.stderr) - 1; i >= 0; i-- {
		if rest, ok := strings.CutPrefix(d.stderr[i], "stcpsd: ingested="); ok {
			_, err := fmt.Sscanf("ingested="+rest, "ingested=%d skipped=%d emitted=%d", &s.Ingested, &s.Skipped, &s.Emitted)
			return s, err
		}
	}
	return s, errors.New("stcpsd printed no summary line")
}

// getInto fetches one API path into buf (reset first); any status but
// 200 is an error. The page loops reuse one buffer, so reading a 40 KB
// body costs the harness no allocation beside the system under test.
func (d *daemon) getInto(buf *bytes.Buffer, path string) error {
	buf.Reset()
	resp, err := d.hc.Get("http://" + d.http + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// get is getInto with a buffer of its own.
func (d *daemon) get(path string) ([]byte, error) {
	var buf bytes.Buffer
	err := d.getInto(&buf, path)
	return buf.Bytes(), err
}

// daemonStats is the subset of /v1/stats the benchmark reads.
type daemonStats struct {
	Ingested uint64 `json:"ingested"`
	Emitted  uint64 `json:"emitted"`
	Detect   struct {
		BindingsProbed uint64 `json:"bindingsProbed"`
		BindingsPruned uint64 `json:"bindingsPruned"`
		Truncations    uint64 `json:"truncations"`
	} `json:"detect"`
	Store struct {
		Instances         int    `json:"instances"`
		Evicted           uint64 `json:"evicted"`
		Chunks            int    `json:"chunks"`
		StaleIndexEntries int    `json:"staleIndexEntries"`
		Reads             uint64 `json:"reads"`
		ReadLocks         uint64 `json:"readLocks"`
		Cold              *struct {
			Segments         int    `json:"segments"`
			SpilledInstances uint64 `json:"spilledInstances"`
			BlocksRead       uint64 `json:"blocksRead"`
			BlocksPruned     uint64 `json:"blocksPruned"`
		} `json:"cold"`
	} `json:"store"`
	Durability struct {
		Syncs             uint64 `json:"syncs"`
		Snapshots         uint64 `json:"snapshots"`
		CompactedSegments uint64 `json:"compactedSegments"`
		ReplayedRecords   uint64 `json:"replayedRecords"`
	} `json:"durability"`
	Subscriptions struct {
		Delivered uint64 `json:"delivered"`
		Dropped   uint64 `json:"dropped"`
	} `json:"subscriptions"`
	Wire *struct {
		Records   uint64 `json:"records"`
		Bytes     uint64 `json:"bytes"`
		SlowDowns uint64 `json:"slowDowns"`
		Torn      uint64 `json:"torn"`
	} `json:"wire"`
}

func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	body, err := d.get("/v1/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(body, &s)
}

// healthy polls /v1/healthz until it answers or ctx ends.
func (d *daemon) healthy(ctx context.Context) error {
	for {
		_, err := d.get("/v1/healthz")
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("/v1/healthz: %w (last: %w)", ctx.Err(), err)
		case <-time.After(time.Millisecond):
		}
	}
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux.
const clockTick = 100

// cpuSeconds reads the daemon's user+system CPU time from
// /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis, so utime and stime are 12th and 13th there.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", d.pid())
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", d.pid())
	}
	return float64(ut+st) / clockTick, nil
}

// rssMB reads one resident-set field (VmRSS, VmHWM) of the daemon's
// /proc status, in MB.
func (d *daemon) rssMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", d.pid(), field)
}
