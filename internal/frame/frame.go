// Package frame implements the length-prefixed, CRC-checked record
// framing shared by the durability WAL and the binary wire protocol,
// plus the wire protocol itself: message types, batched zero-copy
// record decoding, an AIMD congestion window, and the per-connection
// server loop.
//
// Frame layout (little-endian), extracted from internal/wal where it
// was first proven:
//
//	+----------+-----------+------------------+
//	| len u32  | crc32 u32 | payload (len B)  |
//	+----------+-----------+------------------+
//
// The CRC-32 (IEEE) covers the payload only. A frame whose header or
// payload ends early is "torn" (a crash or a killed connection); a
// frame whose checksum fails is corrupt. Readers distinguish a clean
// end (io.EOF before any header byte) from both.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed frame header size: len u32 + crc32 u32.
const HeaderSize = 8

// DefaultMaxPayload bounds one wire frame payload. The WAL passes its
// own, larger bound.
const DefaultMaxPayload = 16 << 20

// Framing errors.
var (
	// ErrChecksum marks a frame whose payload fails its CRC.
	ErrChecksum = errors.New("frame: checksum mismatch")
	// ErrLength marks a frame header carrying a zero or implausibly
	// large payload length.
	ErrLength = errors.New("frame: implausible frame length")
	// ErrTorn marks a frame cut off mid-header or mid-payload.
	ErrTorn = errors.New("frame: torn frame")
)

// PutHeader writes the 8-byte header for payload into hdr, which must
// be at least HeaderSize bytes.
//
//stcps:hotpath
func PutHeader(hdr []byte, payload []byte) { appendHeader(hdr[:0], payload) }

// AppendFrame appends one complete frame (header + payload) to dst and
// returns the extended slice.
//
//stcps:hotpath
func AppendFrame(dst []byte, payload []byte) []byte {
	dst = appendHeader(dst, payload)
	return append(dst, payload...)
}

// appendHeader appends the 8-byte header for payload to dst.
//
//stcps:hotpath
func appendHeader(dst []byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// WriteFrame writes one complete frame to w. Through a *bufio.Writer,
// which every hot caller passes, the header goes into the writer's free
// buffer and a frame costs no allocation.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		if bw.Available() < HeaderSize {
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("frame: write header: %w", err)
			}
		}
		hdr = bw.AvailableBuffer()
	}
	if _, err := w.Write(appendHeader(hdr, payload)); err != nil {
		return fmt.Errorf("frame: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("frame: write payload: %w", err)
	}
	return nil
}

// Reader reads a stream of frames, reusing one payload buffer across
// frames. The slice returned by Next aliases that buffer and is only
// valid until the following Next — unless the caller takes ownership
// with Detach, after which the reader allocates a fresh buffer. That
// handoff is the arena mechanic of the zero-copy ingest path: a batch
// that the engine may retain detaches its frame buffer instead of
// copying out of it.
type Reader struct {
	r   io.Reader
	max uint32
	buf []byte
	hdr [HeaderSize]byte // Next reads headers here: a local array escapes to the heap per frame
}

// NewReader returns a frame reader over r rejecting payloads larger
// than max (0 selects DefaultMaxPayload). Wrap r in a bufio.Reader
// when it is an unbuffered source like a net.Conn.
func NewReader(r io.Reader, max uint32) *Reader {
	if max == 0 {
		max = DefaultMaxPayload
	}
	return &Reader{r: r, max: max}
}

// Next reads one frame and returns its payload and the total frame
// size (header included). io.EOF signals a clean end of stream; a
// stream ending mid-frame returns an error wrapping ErrTorn — and
// never one matching io.EOF, so errors.Is(err, io.EOF) cleanly
// separates a close from a tear — and a checksum failure returns one
// wrapping ErrChecksum. The payload aliases the reader's internal
// buffer: it is valid only until the next call to Next, or
// indefinitely after Detach.
//
//stcps:hotpath
func (fr *Reader) Next() ([]byte, int, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: torn header: %w", ErrTorn, err) //stcps:ignore hotpath error path ends the stream
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if ln == 0 || ln > fr.max {
		return nil, 0, fmt.Errorf("%w: %d", ErrLength, ln) //stcps:ignore hotpath error path ends the stream
	}
	if uint32(cap(fr.buf)) < ln {
		fr.buf = make([]byte, ln) //stcps:ignore hotpath amortized read-buffer growth, reused across frames
	}
	payload := fr.buf[:ln]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			// ReadFull reports a bare io.EOF when the stream ends exactly
			// at the header/payload boundary. Wrapping that would make the
			// torn error match errors.Is(err, io.EOF) and let callers
			// mistake a dangling header for a clean close.
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, fmt.Errorf("%w: torn payload: %w", ErrTorn, err) //stcps:ignore hotpath error path ends the stream
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, ErrChecksum
	}
	return payload, HeaderSize + int(ln), nil
}

// Detach releases the current payload buffer to the caller: the data
// returned by the last Next stays valid indefinitely, and the next
// Next allocates a fresh buffer.
func (fr *Reader) Detach() {
	fr.buf = nil
}
