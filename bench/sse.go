package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sseEvent is one received `event: instance` delivery: its arrival time
// and raw JSON, decoded after the clock stops.
type sseEvent struct {
	at   time.Time
	data []byte
}

// sseReader is one GET /v1/subscribe stream, read on its own goroutine.
type sseReader struct {
	cancel context.CancelFunc
	done   chan struct{}
	n      atomic.Int64 // instance deliveries so far

	mu     sync.Mutex
	events []sseEvent //stcps:guardedby mu
	gaps   int        //stcps:guardedby mu
	err    error      //stcps:guardedby mu
}

// attachSSE opens the subscription and returns once the daemon has
// answered 200, i.e. the subscriber is registered.
func attachSSE(d *daemon, sub RegionCfg) (*sseReader, error) {
	v := url.Values{}
	sub.addTo(v)
	if sub.Buffer > 0 {
		v.Set("buffer", strconv.Itoa(sub.Buffer))
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.http+"/v1/subscribe?"+v.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The stream outlives any request timeout, so it gets a client of
	// its own; the header wait is still bounded.
	hc := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: opTimeout}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	r := &sseReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer resp.Body.Close()
		defer hc.CloseIdleConnections()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		kind := ""
		for sc.Scan() {
			line := sc.Bytes()
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				kind = string(line[len("event: "):])
			case bytes.HasPrefix(line, []byte("data: ")):
				now := time.Now()
				r.mu.Lock()
				switch kind {
				case "instance":
					r.events = append(r.events, sseEvent{now, bytes.Clone(line[len("data: "):])})
					r.n.Add(1)
				case "gap":
					r.gaps++
				default:
					if r.err == nil {
						r.err = fmt.Errorf("sse %s event: %s", kind, line)
					}
				}
				r.mu.Unlock()
			case len(line) == 0:
				kind = ""
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// waitCount blocks until n deliveries arrived or the timeout passed.
func (r *sseReader) waitCount(n int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for r.n.Load() < int64(n) && time.Now().Before(deadline) {
		select {
		case <-r.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// close detaches the subscriber and returns what it received.
func (r *sseReader) close() ([]sseEvent, int, error) {
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events, r.gaps, r.err
}
