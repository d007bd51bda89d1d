package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// On a small virtual machine an idle vCPU halts, and waking it costs a
// trip through the hypervisor whose price swings severalfold with the
// host's adaptive halt-polling. Every request/response exchange of the
// benchmark pays four such wake-ups, so page and detection latencies —
// and the daemon's CPU per observation — moved up to 2× between runs of
// the same commit. The keep-awake helper removes that: one thread per
// CPU spinning under SCHED_IDLE, the scheduling class that runs only
// when nothing else wants the CPU and is preempted at once when
// something does. It is the in-guest equivalent of booting with
// idle=poll. It runs as a child process (`bench -spin`) that exits when
// its stdin closes, so it cannot outlive the harness.

// spinReady is what the helper prints once every thread is spinning.
const spinReady = "spinning"

// spinMain is the body of `bench -spin`.
func spinMain() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	errc := make(chan error, n) // one result per spinner thread
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			err := setIdlePolicy()
			errc <- err
			if err != nil {
				return
			}
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			fmt.Fprintln(os.Stderr, "bench -spin:", err)
			return 1 // never spin at normal priority
		}
	}
	fmt.Println(spinReady)
	_, _ = io.Copy(io.Discard, os.Stdin) // until the parent closes the pipe, or dies
	return 0
}

// cpuQuota reports whether a cgroup CPU quota applies: spinning would
// then burn the quota the daemon needs.
func cpuQuota() bool {
	if data, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return !strings.HasPrefix(string(data), "max")
	}
	if data, err := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"); err == nil {
		return !strings.HasPrefix(string(data), "-1")
	}
	return false
}

// keepAwake starts the helper and returns the function that stops it
// and waits for it. When the helper cannot run (no SCHED_IDLE, a CPU
// quota) it returns nil and the reason; the benchmark then runs
// without, with noisier latencies.
func keepAwake() (stop func(), err error) {
	if cpuQuota() {
		return nil, fmt.Errorf("a cgroup CPU quota is set")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop = func() {
		_ = stdin.Close()
		_ = cmd.Wait()
	}
	ready := make(chan bool, 1) // the helper's single verdict
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- strings.TrimSpace(line) == spinReady
	}()
	select {
	case ok := <-ready:
		if ok {
			return stop, nil
		}
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
	}
	stop()
	return nil, fmt.Errorf("the helper could not enter SCHED_IDLE")
}
