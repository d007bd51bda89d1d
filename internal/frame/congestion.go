package frame

import "time"

// congestion is the server-side AIMD controller behind the protocol's
// slow-down/resume signals. It watches how long each batch takes to
// offer into the engine, per record: a slow batch halves the credit
// window (multiplicative decrease, the slow-down signal), and a streak
// of batches no slower than the connection's own recent pace grows it
// back additively until the initial window is restored (the resume
// signal). The client never sees engine internals — only Window frames
// shrinking and growing.
type congestion struct {
	window  int // current credit window, records
	initial int // window ceiling (the negotiated start value)
	min     int // floor: never starve the connection entirely
	step    int // additive increase per good streak

	slowPerRec time.Duration // offer latency per record that triggers decrease
	// pace is the running estimate of this connection's offer latency per
	// record: an exponentially weighted mean over the last few batches.
	// Recovery is judged against it, not against an absolute figure: what
	// is fast depends on the detectors behind the connection (a filter
	// stream offers in under a microsecond per record, a join stream in
	// tens), and a window halved by one stalled batch must reopen once
	// the stream is back at whatever its normal pace is.
	pace   time.Duration
	streak int // consecutive batches no slower than pace
}

// slowPerRecDefault is the default decrease trigger: a batch offering
// slower than this per record means detection is the bottleneck and the
// producer should back off. resumeStreak is how many consecutive
// at-pace batches reopen the window by one step; paceWeight is the
// divisor of the pace estimate's update (each batch moves it 1/8 of the
// way).
const (
	slowPerRecDefault = 50 * time.Microsecond
	resumeStreak      = 3
	paceWeight        = 8
)

func newCongestion(window, min int, slow time.Duration) *congestion {
	if min <= 0 || min > window {
		min = window
	}
	if slow <= 0 {
		slow = slowPerRecDefault
	}
	step := window / 8
	if step < 1 {
		step = 1
	}
	return &congestion{
		window: window, initial: window, min: min, step: step,
		slowPerRec: slow,
	}
}

// observe folds one batch's offer latency into the controller and
// returns the new window and whether it changed (meaning a Window
// frame should be sent).
func (c *congestion) observe(records int, d time.Duration) (int, bool) {
	if records <= 0 {
		return c.window, false
	}
	perRec := d / time.Duration(records)
	atPace := perRec <= c.pace
	if c.pace == 0 {
		c.pace = perRec
	} else {
		c.pace += (perRec - c.pace) / paceWeight
	}
	switch {
	case perRec > c.slowPerRec:
		c.streak = 0
		next := c.window / 2
		if next < c.min {
			next = c.min
		}
		if next != c.window {
			c.window = next
			return c.window, true
		}
	case atPace && c.window < c.initial:
		c.streak++
		if c.streak >= resumeStreak {
			c.streak = 0
			next := c.window + c.step
			if next > c.initial {
				next = c.initial
			}
			if next != c.window {
				c.window = next
				return c.window, true
			}
		}
	default:
		c.streak = 0
	}
	return c.window, false
}
