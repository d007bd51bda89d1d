package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/wireclient"
)

// withDeadline runs fn and kills the daemon if it has not returned in
// time — the kill severs every connection, which unblocks fn.
func withDeadline(d *daemon, what string, fn func() error) error {
	errc := make(chan error, 1) // fn's single result; never blocks the goroutine
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(opTimeout):
		d.kill()
		<-errc
		return fmt.Errorf("%s: no progress after %v, daemon killed", what, opTimeout)
	case <-d.exited:
		err := <-errc
		return fmt.Errorf("%s: daemon exited mid-operation: %w", what, err)
	}
}

// windowSlices is how many stretches the timed window is cut into. The
// window's throughput and CPU cost are the medians over the stretches,
// so a stall in one of them (a descheduled thread, a noisy neighbour)
// does not move the run's number.
const windowSlices = 12

// sampler marks the slice boundaries of a window: the time, the
// records acked so far, the daemon's CPU seconds and its resident set.
type sampler struct {
	d     *daemon
	c     *wireclient.Client
	every int // records between marks
	t     []time.Time
	acked []uint64
	cpu   []float64
	// rssPeak is the largest VmRSS seen at a mark. VmHWM would also
	// count sub-slice transients (a snapshot buffer, a GC cycle caught
	// at its top), which on a small heap widen its run-to-run spread.
	rssPeak float64
	err     error
}

func newSampler(d *daemon, c *wireclient.Client, n int) *sampler {
	return &sampler{d: d, c: c, every: max(n/windowSlices, 1)}
}

func (sm *sampler) mark() {
	cpu, err := sm.d.cpuSeconds()
	if err != nil && sm.err == nil {
		sm.err = err
	}
	sm.t = append(sm.t, time.Now())
	sm.acked = append(sm.acked, sm.c.Stats().Acked)
	sm.cpu = append(sm.cpu, cpu)
	rss, err := sm.d.rssMB("VmRSS")
	if err != nil && sm.err == nil {
		sm.err = err
	}
	sm.rssPeak = max(sm.rssPeak, rss)
}

// rates returns the per-slice throughput (acked observations per
// second) and CPU cost (daemon CPU µs per acked observation).
func (sm *sampler) rates() (obsPerS, cpuUS []float64) {
	for i := 1; i < len(sm.t); i++ {
		n := float64(sm.acked[i] - sm.acked[i-1])
		dt := sm.t[i].Sub(sm.t[i-1]).Seconds()
		if n <= 0 || dt <= 0 {
			continue
		}
		obsPerS = append(obsPerS, n/dt)
		cpuUS = append(cpuUS, (sm.cpu[i]-sm.cpu[i-1])*1e6/n)
	}
	return obsPerS, cpuUS
}

// sendFlatout pushes records [from,to) closed loop: the credit window is
// the only brake. It returns once every record is acked. sm, when set,
// marks the slice boundaries.
func sendFlatout(c *wireclient.Client, s *stream, from, to int, sm *sampler) error {
	var o stcps.Observation
	for i := from; i < to; i++ {
		if sm != nil && (i-from)%sm.every == 0 {
			sm.mark()
		}
		s.at(i, &o)
		if err := c.SendObservation(&o); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
	}
	err := c.Wait()
	if sm != nil {
		sm.mark()
	}
	return err
}

// schedule is a paced phase's timetable: burst b is due at
// start + b×every and holds records [from+b×size, from+(b+1)×size).
type schedule struct {
	from, size int
	start      time.Time
	every      time.Duration
	lateMax    time.Duration
}

func (sc *schedule) due(rec int) time.Time {
	return sc.start.Add(time.Duration((rec-sc.from)/sc.size) * sc.every)
}

// sendPaced pushes records [from,to) open loop: one burst per interval,
// flushed, on a schedule that does not slow when the daemon does.
func sendPaced(c *wireclient.Client, s *stream, from, to, rate, burstMs int, sm *sampler) (*schedule, error) {
	sc := &schedule{from: from, every: time.Duration(burstMs) * time.Millisecond}
	sc.size = rate * burstMs / 1000
	if sc.size < 1 {
		sc.size = 1
	}
	sc.start = time.Now().Add(sc.every)
	var o stcps.Observation
	for i := from; i < to; {
		due := sc.due(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > sc.lateMax {
			sc.lateMax = late
		}
		for end := min(i+sc.size, to); i < end; i++ {
			if sm != nil && (i-from)%sm.every == 0 {
				sm.mark()
			}
			s.at(i, &o)
			if err := c.SendObservation(&o); err != nil {
				return sc, fmt.Errorf("send %d: %w", i, err)
			}
		}
		if err := c.Flush(); err != nil {
			return sc, err
		}
	}
	err := c.Wait()
	if sm != nil {
		sm.mark()
	}
	return sc, err
}

// queryURL renders a QueryCfg as a /v1/query path.
func (q QueryCfg) queryURL(winStart int, cursor string) string {
	v := url.Values{}
	if q.Event != "" {
		v.Set("event", q.Event)
	}
	q.Region.addTo(v)
	if q.HasWindow {
		from, to := q.tickRange(winStart)
		v.Set("from", strconv.FormatInt(from, 10))
		v.Set("to", strconv.FormatInt(to, 10))
	}
	if q.Tier != "" {
		v.Set("tier", q.Tier)
	}
	v.Set("limit", strconv.Itoa(q.Limit))
	if cursor != "" {
		v.Set("cursor", cursor)
	}
	return "/v1/query?" + v.Encode()
}

// nextCursor extracts the page's nextCursor without decoding the body:
// the field follows the instance array, so search from the end.
func nextCursor(body []byte) string {
	const key = `"nextCursor":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// pageSample is one timed /v1/query page.
type pageSample struct {
	shape int
	us    float64
}

// pager cycles the workload's query shapes closed loop until stop
// closes: one request in flight, the next sent when the page is read.
type pager struct {
	samples []pageSample
	pages   int
	failed  int
}

func (p *pager) run(d *daemon, shapes []QueryCfg, winStart int, stop <-chan struct{}) {
	var body bytes.Buffer
	for {
		for si, q := range shapes {
			cursor := ""
			for pg := 0; pg < max(q.Pages, 1); pg++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				err := d.getInto(&body, q.queryURL(winStart, cursor))
				p.pages++
				if err != nil {
					p.failed++
					time.Sleep(time.Millisecond) // a dead daemon must not spin the pager
					break
				}
				p.samples = append(p.samples, pageSample{si, float64(time.Since(t0).Nanoseconds()) / 1e3})
				if cursor = nextCursor(body.Bytes()); cursor == "" {
					break
				}
			}
		}
	}
}

// walkResult is the quiesced cursor walk over /v1/query.
type walkResult struct {
	hash     string
	count    int
	pages    int
	failed   int
	us       []float64
	scanned  int
	returned int
}

// walk pages through the workload's walk spec by cursor, timing every
// page and — when verify is set — hashing the canonical JSON of every
// instance.
func walk(d *daemon, q QueryCfg, winStart int, verify bool) (walkResult, error) {
	var wr walkResult
	h := newInstanceHasher()
	var body bytes.Buffer
	cursor := ""
	for {
		t0 := time.Now()
		err := d.getInto(&body, q.queryURL(winStart, cursor))
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		wr.pages++
		if err != nil {
			wr.failed++
			return wr, fmt.Errorf("walk page %d: %w", wr.pages, err)
		}
		wr.us = append(wr.us, us)
		if !verify {
			if cursor = nextCursor(body.Bytes()); cursor == "" {
				return wr, nil
			}
			continue
		}
		var page struct {
			Instances  []stcps.Instance `json:"instances"`
			NextCursor string           `json:"nextCursor"`
			Scanned    int              `json:"scanned"`
		}
		if err := json.Unmarshal(body.Bytes(), &page); err != nil {
			wr.failed++
			return wr, fmt.Errorf("walk page %d: %w", wr.pages, err)
		}
		for _, in := range page.Instances {
			if err := h.add(in); err != nil {
				return wr, err
			}
		}
		wr.scanned += page.Scanned
		wr.returned += len(page.Instances)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	wr.hash, wr.count = h.sum(), h.n
	return wr, nil
}
