package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello frame"),
		bytes.Repeat([]byte{0xAB}, 100_000),
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	fr := NewReader(bytes.NewReader(stream), 0)
	for i, want := range payloads {
		got, n, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != HeaderSize+len(want) {
			t.Fatalf("frame %d: size %d, want %d", i, n, HeaderSize+len(want))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: err=%v, want io.EOF", err)
	}
}

func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	payload := []byte("same bytes either way")
	var want []byte
	for range 5 {
		want = AppendFrame(want, payload)
	}
	var buf bytes.Buffer
	for range 5 {
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("WriteFrame and AppendFrame disagree")
	}
	// Through a bufio.Writer, whose free space runs short of a header
	// at some frames of the sequence.
	buf.Reset()
	bw := bufio.NewWriterSize(&buf, 40)
	for range 5 {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteFrame through bufio disagrees with AppendFrame (%v)", err)
	}
}

// TestWriteFrameAllocs: through a bufio.Writer a frame costs no
// allocation (a header array passed to an io.Writer escapes to the heap).
func TestWriteFrameAllocs(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	payload := bytes.Repeat([]byte{7}, 100)
	if n := testing.AllocsPerRun(1000, func() { _ = WriteFrame(bw, payload) }); n != 0 {
		t.Fatalf("WriteFrame: %v allocs per frame, want 0", n)
	}
}

func TestFrameTornHeader(t *testing.T) {
	stream := AppendFrame(nil, []byte("abc"))
	fr := NewReader(bytes.NewReader(stream[:HeaderSize-3]), 0)
	_, _, err := fr.Next()
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("torn header: err=%v, want ErrTorn", err)
	}
}

// TestFrameTornAtHeaderBoundary guards the nastiest tear: a stream cut
// exactly after the 8-byte header. io.ReadFull reports that as a bare
// io.EOF, and if Next wrapped it the tear would satisfy
// errors.Is(err, io.EOF) — the WAL would then mistake a dangling
// header for a clean segment end and append acked records after it.
func TestFrameTornAtHeaderBoundary(t *testing.T) {
	stream := AppendFrame(nil, []byte("abcdef"))
	fr := NewReader(bytes.NewReader(stream[:HeaderSize]), 0)
	_, _, err := fr.Next()
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("cut after header: err=%v, want ErrTorn", err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatalf("cut after header: err=%v must not match io.EOF", err)
	}
}

func TestFrameTornPayload(t *testing.T) {
	stream := AppendFrame(nil, []byte("abcdef"))
	fr := NewReader(bytes.NewReader(stream[:len(stream)-2]), 0)
	_, _, err := fr.Next()
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("torn payload: err=%v, want ErrTorn", err)
	}
}

func TestFrameCorruptPayload(t *testing.T) {
	stream := AppendFrame(nil, []byte("abcdef"))
	stream[HeaderSize+2] ^= 0x01
	fr := NewReader(bytes.NewReader(stream), 0)
	_, _, err := fr.Next()
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt payload: err=%v, want ErrChecksum", err)
	}
}

func TestFrameImplausibleLength(t *testing.T) {
	// Zero-length frame.
	zero := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	fr := NewReader(bytes.NewReader(zero), 0)
	if _, _, err := fr.Next(); !errors.Is(err, ErrLength) {
		t.Fatalf("zero length: err=%v, want ErrLength", err)
	}
	// Over the reader's max.
	big := AppendFrame(nil, bytes.Repeat([]byte{1}, 100))
	fr = NewReader(bytes.NewReader(big), 64)
	if _, _, err := fr.Next(); !errors.Is(err, ErrLength) {
		t.Fatalf("oversized: err=%v, want ErrLength", err)
	}
}

func TestReaderDetach(t *testing.T) {
	stream := AppendFrame(nil, []byte("first"))
	stream = AppendFrame(stream, []byte("second"))
	fr := NewReader(bytes.NewReader(stream), 0)
	first, _, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	fr.Detach()
	second, _, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	// The detached buffer must survive the next read.
	if string(first) != "first" || string(second) != "second" {
		t.Fatalf("detach violated: %q / %q", first, second)
	}
}

func TestReaderReusesBufferWithoutDetach(t *testing.T) {
	stream := AppendFrame(nil, []byte("aaaa"))
	stream = AppendFrame(stream, []byte("bbbb"))
	fr := NewReader(bytes.NewReader(stream), 0)
	first, _, _ := fr.Next()
	firstCopy := string(first)
	second, _, _ := fr.Next()
	if &first[0] != &second[0] {
		t.Fatalf("expected buffer reuse without Detach")
	}
	_ = firstCopy
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(2))
	f.Fuzz(func(t *testing.T, payload []byte, mutate uint8) {
		if len(payload) == 0 {
			return
		}
		enc := AppendFrame(nil, payload)
		switch mutate % 3 {
		case 0:
			// Intact frame: must decode byte-identical.
			fr := NewReader(bytes.NewReader(enc), 0)
			got, n, err := fr.Next()
			if err != nil {
				t.Fatalf("intact frame rejected: %v", err)
			}
			if n != len(enc) || !bytes.Equal(got, payload) {
				t.Fatalf("decode mismatch")
			}
			if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("expected EOF, got %v", err)
			}
		case 1:
			// Torn frame: truncate anywhere short of the end.
			cut := int(mutate) % len(enc)
			fr := NewReader(bytes.NewReader(enc[:cut]), 0)
			_, _, err := fr.Next()
			if cut == 0 {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("empty stream: err=%v, want io.EOF", err)
				}
			} else if err == nil {
				t.Fatalf("torn frame (cut at %d) accepted", cut)
			} else if errors.Is(err, io.EOF) {
				t.Fatalf("torn frame (cut at %d): err=%v must not match io.EOF", cut, err)
			}
		case 2:
			// Corrupt frame: flip one payload bit.
			i := HeaderSize + int(mutate)%len(payload)
			enc[i] ^= 0x40
			fr := NewReader(bytes.NewReader(enc), 0)
			if _, _, err := fr.Next(); err == nil {
				t.Fatalf("corrupt frame accepted")
			}
		}
	})
}

func TestProtocolRoundTrips(t *testing.T) {
	if err := ParseHello(AppendHello(nil)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if err := ParseHello([]byte("GET / HTTP/1.1")); err == nil {
		t.Fatal("HTTP request accepted as hello")
	}
	bad := AppendHello(nil)
	bad[5] = 99
	if err := ParseHello(bad); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err=%v, want ErrVersion", err)
	}

	w, b, err := ParseWelcome(AppendWelcome(nil, 16384, 256))
	if err != nil || w != 16384 || b != 256 {
		t.Fatalf("welcome: %d,%d,%v", w, b, err)
	}
	if _, _, err := ParseWelcome(AppendWelcome(nil, 0, 256)); err == nil {
		t.Fatal("zero window accepted")
	}

	n, err := ParseAck(AppendAck(nil, 123456789))
	if err != nil || n != 123456789 {
		t.Fatalf("ack: %d,%v", n, err)
	}
	if _, err := ParseAck([]byte{MsgAck}); err == nil {
		t.Fatal("truncated ack accepted")
	}

	ww, err := ParseWindow(AppendWindow(nil, 4096))
	if err != nil || ww != 4096 {
		t.Fatalf("window: %d,%v", ww, err)
	}
	if _, err := ParseWindow(AppendWindow(nil, 0)); err == nil {
		t.Fatal("zero window resize accepted")
	}

	msg, err := ParseError(AppendError(nil, "boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("error: %q,%v", msg, err)
	}
}

func TestCongestionAIMD(t *testing.T) {
	c := newCongestion(1024, 64, 10*time.Microsecond)

	// A slow batch halves the window.
	w, changed := c.observe(100, 100*100*time.Microsecond)
	if !changed || w != 512 {
		t.Fatalf("after slow batch: w=%d changed=%v, want 512,true", w, changed)
	}
	// Repeated slowness floors at min.
	for i := 0; i < 10; i++ {
		w, _ = c.observe(100, 100*100*time.Microsecond)
	}
	if w != 64 {
		t.Fatalf("floor: w=%d, want 64", w)
	}
	// At the floor, more slowness changes nothing.
	if _, changed := c.observe(100, 100*100*time.Microsecond); changed {
		t.Fatal("window change signaled at floor")
	}
	// A streak of fast batches grows additively (step = 1024/8 = 128).
	var grew bool
	for i := 0; i < resumeStreak; i++ {
		w, grew = c.observe(100, 10*time.Nanosecond)
	}
	if !grew || w != 64+128 {
		t.Fatalf("after fast streak: w=%d grew=%v, want 192,true", w, grew)
	}
	// Recovery is capped at the initial window.
	for i := 0; i < 100; i++ {
		w, _ = c.observe(100, 10*time.Nanosecond)
	}
	if w != 1024 {
		t.Fatalf("recovery cap: w=%d, want 1024", w)
	}
	// Middling latency neither shrinks nor grows, and resets the streak.
	if _, changed := c.observe(100, 100*5*time.Microsecond); changed {
		t.Fatal("middling latency changed the window")
	}
}

// TestCongestionRecoversAtOwnPace pins the recovery rule on streams far
// slower than any absolute notion of fast: a batch counts toward the
// resume streak when it is no slower than the connection's own running
// pace. The controller used to demand < 5 µs/record, which a join
// stream (≈ 26 µs/record) never reaches, so one stalled batch halved
// its window for the rest of the connection.
func TestCongestionRecoversAtOwnPace(t *testing.T) {
	const (
		initial = 16384
		batch   = 256
		us      = time.Microsecond
	)
	// perRec yields batch i's offer latency per record.
	for _, tc := range []struct {
		name    string
		batches int
		perRec  func(i int) time.Duration
		// want is checked against the window after every batch from
		// settleBy on.
		settleBy int
		want     func(w int) bool
		wantDesc string
	}{
		{
			name: "steady join stream, one stalled batch", batches: 60,
			perRec: func(i int) time.Duration {
				if i == 20 {
					return 80 * us // a GC pause lands on one batch
				}
				return 26 * us
			},
			settleBy: 20 + 4*resumeStreak + 1, // 4 steps of initial/8 undo one halving
			want:     func(w int) bool { return w == initial },
			wantDesc: "back at the initial window",
		},
		{
			name: "jittering stream, one stalled batch", batches: 200,
			perRec: func(i int) time.Duration {
				if i == 20 {
					return 80 * us
				}
				return time.Duration(22+(i*7)%9) * us // 22..30 µs, mean 26
			},
			settleBy: 120,
			want:     func(w int) bool { return w == initial },
			wantDesc: "back at the initial window",
		},
		{
			name: "steady stream never shrinks", batches: 50,
			perRec:   func(int) time.Duration { return 26 * us },
			settleBy: 0,
			want:     func(w int) bool { return w == initial },
			wantDesc: "the initial window throughout",
		},
		{
			name: "genuinely slowing stream still shrinks", batches: 80,
			perRec:   func(i int) time.Duration { return time.Duration(26+i) * us }, // crosses 50 µs at batch 25
			settleBy: 40,
			want:     func(w int) bool { return w == batch },
			wantDesc: "pinned at the floor",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCongestion(initial, batch, 0)
			for i := 0; i < tc.batches; i++ {
				w, _ := c.observe(batch, batch*tc.perRec(i))
				if i == 20 && tc.perRec(i) > slowPerRecDefault && w != initial/2 {
					t.Fatalf("the stalled batch left the window at %d, want %d", w, initial/2)
				}
				if i >= tc.settleBy && !tc.want(w) {
					t.Fatalf("batch %d: window %d, want %s", i, w, tc.wantDesc)
				}
			}
		})
	}
}
