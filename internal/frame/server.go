package frame

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/stcps/stcps/internal/event"
)

// Server defaults.
const (
	// DefaultBatchRecords is the preferred client batch size advertised
	// in Welcome.
	DefaultBatchRecords = 256
	// DefaultWindow is the initial credit window in records.
	DefaultWindow = 16384
	// handshakeTimeout bounds how long a fresh connection may sit
	// silent before its Hello.
	handshakeTimeout = 10 * time.Second
)

// ServerConfig parameterizes one connection's server loop.
type ServerConfig struct {
	// Offer hands one decoded batch to the engine. Offer errors are
	// fatal to the connection: the error text is sent to the client in
	// an Error frame and the already-acked records stay ingested.
	// Required.
	Offer func(b *Batch) error
	// BatchRecords is the preferred batch size advertised to the
	// client (default DefaultBatchRecords).
	BatchRecords int
	// Window is the initial credit window in records (default
	// DefaultWindow).
	Window int
	// MinWindow is the congestion floor (default max(BatchRecords,
	// Window/64)).
	MinWindow int
	// MaxPayload bounds one frame payload (default DefaultMaxPayload).
	MaxPayload uint32
	// Materialize decodes observations eagerly instead of zero-copy —
	// required for engines with a WAL, whose durability layer accepts
	// only concrete event.Observation values.
	Materialize bool
	// SlowPerRec overrides the congestion controller's slow-down
	// threshold (default slowPerRecDefault).
	SlowPerRec time.Duration
}

// ServeStats summarizes one connection after ServeConn returns.
type ServeStats struct {
	// Records and Batches count what was decoded and offered.
	Records uint64 `json:"records"`
	Batches uint64 `json:"batches"`
	// Bytes counts decoded payload bytes (frame headers excluded).
	Bytes uint64 `json:"bytes"`
	// SlowDowns and Resumes count Window frames sent shrinking or
	// growing the credit window.
	SlowDowns uint64 `json:"slowDowns"`
	Resumes   uint64 `json:"resumes"`
	// Torn reports whether the stream ended on a torn or corrupt
	// frame rather than a clean EOF.
	Torn bool `json:"torn"`
}

// deadlineConn is the optional deadline surface of a net.Conn.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
}

// ServeConn runs the wire protocol server loop over one connection
// until the client closes it (clean EOF), a frame tears or corrupts,
// or Offer fails. It returns the connection's stats alongside any
// error. The caller closes conn.
//
// Semantics on a torn stream: records are acked only after their batch
// is offered, so a torn or corrupt final frame is simply dropped — the
// never-acked partial batch never reaches the engine, and everything
// acked before it stays ingested.
func ServeConn(conn io.ReadWriter, cfg ServerConfig) (ServeStats, error) {
	var stats ServeStats
	if cfg.Offer == nil {
		return stats, errors.New("frame: ServerConfig.Offer is required")
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = DefaultBatchRecords
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = cfg.Window / 64
		if cfg.MinWindow < cfg.BatchRecords {
			cfg.MinWindow = cfg.BatchRecords
		}
	}

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	fr := NewReader(br, cfg.MaxPayload)
	sendErr := func(msg string) {
		// Best effort: the client may already be gone.
		_ = WriteFrame(bw, AppendError(nil, msg))
		_ = bw.Flush()
	}

	// Handshake. Bound the wait for Hello so an idle dialer cannot pin
	// the connection handler forever.
	if dc, ok := conn.(deadlineConn); ok {
		_ = dc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	}
	hello, _, err := fr.Next()
	if err != nil {
		stats.Torn = true
		return stats, fmt.Errorf("frame: reading hello: %w", err)
	}
	if err := ParseHello(hello); err != nil {
		sendErr(err.Error())
		return stats, err
	}
	if dc, ok := conn.(deadlineConn); ok {
		_ = dc.SetReadDeadline(time.Time{})
	}
	if err := WriteFrame(bw, AppendWelcome(nil, cfg.Window, cfg.BatchRecords)); err != nil {
		return stats, err
	}
	if err := bw.Flush(); err != nil {
		return stats, err
	}

	ctrl := newCongestion(cfg.Window, cfg.MinWindow, cfg.SlowPerRec)
	interner := event.NewInterner()
	var (
		batch      Batch
		processed  uint64
		out        []byte // reused control-frame payload buffer
		prevWindow = cfg.Window
	)
	for {
		payload, _, err := fr.Next()
		if errors.Is(err, io.EOF) {
			return stats, nil
		}
		if err != nil {
			// Torn or corrupt frame: drop it without poisoning what was
			// already acked, tell the client (best effort), close.
			stats.Torn = true
			sendErr(err.Error())
			return stats, err
		}
		switch payload[0] {
		case MsgBatch:
			if !cfg.Materialize {
				// The batch will own this buffer (its observation views
				// alias it): hand it over instead of reusing it.
				fr.Detach()
			}
			if err := DecodeBatch(payload, cfg.Materialize, interner, &batch); err != nil {
				sendErr(err.Error())
				return stats, err
			}
			start := time.Now()
			if err := cfg.Offer(&batch); err != nil {
				sendErr(err.Error())
				return stats, fmt.Errorf("frame: offer: %w", err)
			}
			elapsed := time.Since(start)
			processed += uint64(batch.Len())
			stats.Records += uint64(batch.Len())
			stats.Batches++
			stats.Bytes += uint64(batch.Bytes())
			out = AppendAck(out[:0], processed)
			if err := WriteFrame(bw, out); err != nil {
				return stats, err
			}
			if w, changed := ctrl.observe(batch.Len(), elapsed); changed {
				if w < prevWindow {
					stats.SlowDowns++
				} else {
					stats.Resumes++
				}
				prevWindow = w
				out = AppendWindow(out[:0], w)
				if err := WriteFrame(bw, out); err != nil {
					return stats, err
				}
			}
			if err := bw.Flush(); err != nil {
				return stats, err
			}
		case MsgHello:
			err := fmt.Errorf("%w: duplicate hello", ErrProtocol)
			sendErr(err.Error())
			return stats, err
		default:
			err := fmt.Errorf("%w: unexpected message type %#02x", ErrProtocol, payload[0])
			sendErr(err.Error())
			return stats, err
		}
	}
}
