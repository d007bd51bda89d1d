// Server-sent-events fan-out: GET /v1/subscribe streams matching event
// instances to the client the moment they are detected, with gapless
// catch-up replay on reconnect.
//
// Wire format (text/event-stream):
//
//	id: <store cursor>
//	event: instance
//	data: {...instance JSON...}
//
//	event: gap
//	data: {"dropped":N}
//
//	event: error
//	data: {"error":"..."}
//
// Every instance event carries the store cursor as its SSE id, so a
// reconnecting client resumes with ?cursor=<last id> (or the standard
// Last-Event-ID header): the server replays the missed instances from
// the store, then splices onto the live feed with no gaps and no
// duplicates. A `gap` event reports deliveries lost to backpressure
// (the per-subscriber buffer dropped its oldest entries because the
// client read too slowly) — the client heals by reconnecting from its
// last id. An `error` event (notably a mid-replay retention eviction,
// HTTP 410 at subscribe time) means the cursor no longer resumes
// cleanly and the client must resync from scratch — unless it carries
// an id: then it stands in for the one instance at that cursor that
// cannot be encoded (a non-finite attribute), and the stream goes on.
package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/stcps/stcps"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/jsonenc"
	"github.com/stcps/stcps/internal/sub"
)

// ssePingEvery is the keep-alive comment period; a variable so tests
// can shorten it.
var ssePingEvery = 15 * time.Second

// maxSSEBuffer caps the client-supplied buffer= override: per-connection
// server memory must not be client-controlled. Larger consumers should
// drain faster or reconnect from their cursor after a gap.
const maxSSEBuffer = 1 << 16

// subscribe answers GET /v1/subscribe?event=&x1=&y1=&x2=&y2=&from=&to=
// &where=&cursor=&replay=&buffer= with a server-sent-event stream.
func (a *api) subscribe(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	v := r.URL.Query()
	p, err := parseSTPredicates(v)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := stcps.SubscriptionSpec{
		Event: p.event, Region: p.region,
		HasTime: p.hasTime, From: p.from, To: p.to,
		Where:  v.Get("where"),
		Cursor: v.Get("cursor"),
		Replay: v.Get("replay") == "1" || v.Get("replay") == "true",
	}
	if spec.Cursor == "" {
		spec.Cursor = r.Header.Get("Last-Event-ID")
	}
	if s := v.Get("buffer"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 || n > maxSSEBuffer {
			httpError(w, http.StatusBadRequest, "bad buffer %q (max %d)", s, maxSSEBuffer)
			return
		}
		spec.Buffer = n
	}
	s, err := a.eng.Subscribe(spec)
	switch {
	case errors.Is(err, db.ErrStaleCursor):
		// 410 Gone: the cursor precedes retained history; a clean resume
		// is impossible and the client must resync.
		httpError(w, http.StatusGone, "%v", err)
		return
	case errors.Is(err, db.ErrBadCursor), errors.Is(err, stcps.ErrNoCatchUp):
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil: // condition compile errors
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer s.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	ping := time.NewTicker(ssePingEvery)
	defer ping.Stop()
	var lastDropped uint64
	var buf []byte // this connection's frame buffer, reused by every event
	for {
		// Drain everything buffered, then flush once.
		wrote := false
		for {
			d, ok, err := s.Poll()
			if err != nil {
				if !errors.Is(err, sub.ErrClosed) {
					_, _ = w.Write(appendSSEError(buf[:0], err.Error()))
				}
				fl.Flush() // deliveries drained just before the error
				return
			}
			if !ok {
				break
			}
			var encErr error
			if buf, encErr, err = writeSSEInstance(w, buf, &d); encErr != nil {
				// Name the instance and go on; the frame's id moves a
				// resuming client past it.
				msg := fmt.Sprintf("instance at cursor %d cannot be encoded: %v", d.Cursor, encErr)
				buf = appendSSEError(appendSSEID(buf[:0], &d), msg)
				_, err = w.Write(buf)
			}
			if err != nil {
				return // client gone
			}
			wrote = true
		}
		if dropped := s.Stats().Dropped; dropped > lastDropped {
			buf = appendSSEGap(buf[:0], dropped-lastDropped)
			_, _ = w.Write(buf)
			lastDropped = dropped
			wrote = true
		}
		if wrote {
			fl.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-s.Done():
			// Drain what landed before the close on the next loop; the
			// Poll above will then report ErrClosed and return.
		case <-ping.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-s.Notify():
		}
	}
}

// writeSSEInstance renders one delivery as an SSE instance event into
// buf, the connection's reused buffer, and writes it in one call. An
// instance that fails to encode is not written: encErr reports it, apart
// from err, a failed write.
func writeSSEInstance(w io.Writer, buf []byte, d *stcps.SubDelivery) (_ []byte, encErr, err error) {
	buf, encErr = event.AppendInstance(append(appendSSEID(buf[:0], d), "event: instance\ndata: "...), &d.Inst)
	if encErr == nil {
		buf = append(buf, "\n\n"...)
		_, err = w.Write(buf)
	}
	return buf, encErr, err
}

// appendSSEID appends the delivery's id line, its store cursor, if it
// has one.
func appendSSEID(dst []byte, d *stcps.SubDelivery) []byte {
	if !d.HasCursor {
		return dst
	}
	return append(strconv.AppendUint(append(dst, "id: "...), d.Cursor, 10), '\n')
}

// appendSSEGap appends a gap event: n deliveries lost to backpressure.
func appendSSEGap(dst []byte, n uint64) []byte {
	return append(strconv.AppendUint(append(dst, "event: gap\ndata: {\"dropped\":"...), n, 10), "}\n\n"...)
}

// appendSSEError appends an error event, its message a JSON string.
func appendSSEError(dst []byte, msg string) []byte {
	return append(jsonenc.AppendString(append(dst, "event: error\ndata: {\"error\":"...), msg), "}\n\n"...)
}

// subscriptionsResponse is the GET /v1/subscriptions document.
type subscriptionsResponse struct {
	Stats       stcps.SubscriptionStats `json:"stats"`
	Subscribers []stcps.SubscriberStats `json:"subscribers"`
}

// subscriptions answers GET /v1/subscriptions with the subsystem's
// aggregate counters and each live subscription's state.
func (a *api) subscriptions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, subscriptionsResponse{
		Stats:       a.eng.SubscriptionStats(),
		Subscribers: a.eng.SubscriberStats(),
	})
}
