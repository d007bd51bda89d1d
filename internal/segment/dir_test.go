package segment

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/stcps/stcps/internal/event"
)

func openDir(t *testing.T, cfg Config) *Dir {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func scanSeqs(t *testing.T, d *Dir, f Filter) []uint64 {
	t.Helper()
	var seqs []uint64
	if _, err := d.Scan(f, nil, func(seq uint64, in *event.Instance) bool {
		seqs = append(seqs, seq)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestDirSpillScanReopen(t *testing.T) {
	root := t.TempDir()
	d := openDir(t, Config{Dir: root})
	if err := d.Spill(0, mkIns(100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Spill(100, mkIns(50, 100)); err != nil {
		t.Fatal(err)
	}
	seqs := scanSeqs(t, d, Filter{})
	if len(seqs) != 150 || seqs[0] != 0 || seqs[149] != 149 {
		t.Fatalf("scan = %d seqs [%d..%d]", len(seqs), seqs[0], seqs[len(seqs)-1])
	}
	if base, end, ok := d.Bounds(); !ok || base != 0 || end != 150 {
		t.Fatalf("Bounds = %d..%d %v", base, end, ok)
	}
	st := d.Stats()
	if st.Segments != 2 || st.Instances != 150 || st.Spills != 2 || st.SpilledInstances != 150 {
		t.Fatalf("stats = %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen re-attaches both segments.
	d2 := openDir(t, Config{Dir: root})
	if got := scanSeqs(t, d2, Filter{MinSeq: 120}); len(got) != 30 || got[0] != 120 {
		t.Fatalf("reopened scan = %v", got)
	}
}

func TestDirSpillContiguity(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir()})
	if err := d.Spill(10, mkIns(5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Spill(20, mkIns(5, 20)); err == nil {
		t.Fatal("gap spill accepted")
	}
	if err := d.Spill(15, mkIns(5, 15)); err != nil {
		t.Fatal(err)
	}
	if err := d.Spill(0, nil); err != nil {
		t.Fatal("empty spill should be a no-op")
	}
}

func TestDirGC(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir(), Retention: Retention{MaxSegments: 2}})
	for i := 0; i < 5; i++ {
		if err := d.Spill(uint64(i*10), mkIns(10, uint64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Segments != 2 || st.GCSegments != 3 {
		t.Fatalf("stats after GC = %+v", st)
	}
	if base, end, ok := d.Bounds(); !ok || base != 30 || end != 50 {
		t.Fatalf("Bounds after GC = %d..%d %v", base, end, ok)
	}
	// GC'd files are gone from disk.
	entries, err := os.ReadDir(d.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d files on disk after GC", len(entries))
	}
}

func TestDirGCMaxAge(t *testing.T) {
	// mkIns stamps gen/occ times 100+i, so segment i*10 covers ticks
	// [100+10i, 109+10i]. MaxAge 15 keeps only segments whose newest
	// tick is within 15 of the global newest (149).
	d := openDir(t, Config{Dir: t.TempDir(), Retention: Retention{MaxAge: 15}})
	for i := 0; i < 5; i++ {
		if err := d.Spill(uint64(i*10), mkIns(10, uint64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	base, _, ok := d.Bounds()
	if !ok || base != 30 {
		t.Fatalf("Bounds base after age GC = %d (%v)", base, ok)
	}
}

func TestDirScanPinsAgainstGC(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir()})
	for i := 0; i < 3; i++ {
		if err := d.Spill(uint64(i*10), mkIns(10, uint64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	// Start a scan, and mid-scan retroactively tighten retention and
	// trigger GC by spilling more. The scan must still complete over
	// its pinned snapshot with no gap.
	var seqs []uint64
	var once sync.Once
	_, err := d.Scan(Filter{}, nil, func(seq uint64, in *event.Instance) bool {
		once.Do(func() {
			d.cfg.Retention = Retention{MaxSegments: 1}
			if err := d.Spill(30, mkIns(10, 30)); err != nil {
				t.Error(err)
			}
		})
		seqs = append(seqs, seq)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 30 || seqs[0] != 0 || seqs[29] != 29 {
		t.Fatalf("pinned scan = %d seqs", len(seqs))
	}
	if st := d.Stats(); st.GCSegments == 0 {
		t.Fatal("GC did not run; pin test is vacuous")
	}
}

func TestDirDiscardAfter(t *testing.T) {
	stamp := uint64(0)
	root := t.TempDir()
	d := openDir(t, Config{Dir: root, Stamp: func() uint64 { return stamp }})
	stamp = 5
	if err := d.Spill(0, mkIns(10, 0)); err != nil {
		t.Fatal(err)
	}
	stamp = 9
	if err := d.Spill(10, mkIns(10, 10)); err != nil {
		t.Fatal(err)
	}
	stamp = 14
	if err := d.Spill(20, mkIns(10, 20)); err != nil {
		t.Fatal(err)
	}
	// Recovery from a snapshot covering WAL seq 9: the walSeq-14
	// segment duplicates replayed history and must go.
	if err := d.DiscardAfter(9); err != nil {
		t.Fatal(err)
	}
	if base, end, ok := d.Bounds(); !ok || base != 0 || end != 20 {
		t.Fatalf("Bounds after discard = %d..%d %v", base, end, ok)
	}
	if st := d.Stats(); st.Discarded != 1 {
		t.Fatalf("Discarded = %d", st.Discarded)
	}
	// A discard of an older segment (only possible with a non-monotone
	// stamp) leaves the kept newer run contiguous on its own: coverage
	// shrinks from below, it never develops an interior gap.
	d2 := openDir(t, Config{Dir: t.TempDir(), Stamp: func() uint64 { return stamp }})
	stamp = 20
	_ = d2.Spill(0, mkIns(10, 0))
	stamp = 5
	_ = d2.Spill(10, mkIns(10, 10))
	if err := d2.DiscardAfter(9); err != nil {
		t.Fatal(err)
	}
	if base, end, ok := d2.Bounds(); !ok || base != 10 || end != 20 {
		t.Fatalf("Bounds after mid-chain discard = %d..%d %v", base, end, ok)
	}
}

// TestDirCrashLeftovers simulates every shape a kill mid-spill can
// leave on disk and demands deterministic recovery: tmp files deleted,
// torn/corrupt segments deleted, pre-gap segments deleted, intact
// contiguous suffix attached.
func TestDirCrashLeftovers(t *testing.T) {
	root := t.TempDir()
	d := openDir(t, Config{Dir: root})
	for i := 0; i < 3; i++ {
		if err := d.Spill(uint64(i*10), mkIns(10, uint64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash shape 1: a *.tmp the rename never happened for.
	if err := os.WriteFile(filepath.Join(root, wantSegmentName(30)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash shape 2: a renamed segment whose tail is torn (e.g. the
	// file system persisted the rename but not all data blocks).
	full := filepath.Join(root, wantSegmentName(30))
	writeSegFile(t, full, 30, 0, 16, mkIns(10, 30))
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash shape 3: a mid-chain segment lost entirely (severed chain).
	if err := os.Remove(filepath.Join(root, wantSegmentName(10))); err != nil {
		t.Fatal(err)
	}

	d2 := openDir(t, Config{Dir: root})
	// Only the contiguous suffix [20,30) survives: seg-0 is below the
	// gap left by the deleted seg-10, seg-30 is torn, tmp is noise.
	if base, end, ok := d2.Bounds(); !ok || base != 20 || end != 30 {
		t.Fatalf("recovered Bounds = %d..%d %v", base, end, ok)
	}
	if st := d2.Stats(); st.Discarded != 3 {
		t.Fatalf("Discarded = %d, want 3 (tmp, torn, pre-gap)", st.Discarded)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != wantSegmentName(20) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("leftover files = %v", names)
	}
	// And recovery is idempotent: a second open sees a clean dir.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := openDir(t, Config{Dir: root})
	if st := d3.Stats(); st.Discarded != 0 || st.Segments != 1 {
		t.Fatalf("second recovery not clean: %+v", st)
	}
}

func TestDirClosed(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir()})
	if err := d.Spill(0, mkIns(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Spill(5, mkIns(5, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Spill after close = %v", err)
	}
	if _, err := d.Scan(Filter{}, nil, func(uint64, *event.Instance) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after close = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestDirConcurrentScanSpill(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir(), NoSync: true, Retention: Retention{MaxSegments: 4}})
	if err := d.Spill(0, mkIns(64, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := event.NewInterner()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev, first := uint64(0), true
				if _, err := d.Scan(Filter{}, it, func(seq uint64, in *event.Instance) bool {
					if !first && seq != prev+1 {
						t.Errorf("gap in concurrent scan: %d -> %d", prev, seq)
						return false
					}
					first, prev = false, seq
					return true
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 1; i < 40; i++ {
		if err := d.Spill(uint64(i*64), mkIns(64, uint64(i*64))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := d.Stats(); st.GCSegments == 0 {
		t.Fatal("retention never fired; concurrency test is weak")
	}
}

func BenchmarkSegmentScan(b *testing.B) {
	root := b.TempDir()
	d, err := Open(Config{Dir: root, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 8; i++ {
		if err := d.Spill(uint64(i*4096), mkIns(4096, uint64(i*4096))); err != nil {
			b.Fatal(err)
		}
	}
	it := event.NewInterner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := d.Scan(Filter{Event: "S.cold"}, it, func(uint64, *event.Instance) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

// TestColdPageDecodesOnlyMatches pins a cold page's work to the page: a
// scan whose filter keeps 1 record in 10 and whose page takes L+1
// matches skims every record it passes but fully decodes only the L+1
// it yields. Decodes are counted through allocations: a skim allocates
// nothing, a decode of these records several times.
func TestColdPageDecodesOnlyMatches(t *testing.T) {
	d := openDir(t, Config{Dir: t.TempDir(), BlockSize: 64, NoSync: true})
	ins := mkIns(640, 0)
	for i := range ins {
		ins[i].Event = "S.miss"
		if i%10 == 0 {
			ins[i].Event = "S.hit"
		}
		ins[i].Attrs = event.Attrs{"v": float64(i)}
		ins[i].Inputs = []string{"O(MT1,SR1,1)"}
	}
	if err := d.Spill(0, ins); err != nil {
		t.Fatal(err)
	}
	rec, err := new(event.WireEncoder).AppendInstance(nil, &ins[0])
	if err != nil {
		t.Fatal(err)
	}
	it := event.NewInterner()
	var in event.Instance
	perDecode := testing.AllocsPerRun(50, func() {
		if err := event.DecodeInstanceWire(rec, &in, it); err != nil {
			t.Fatal(err)
		}
	})
	if perDecode < 2 {
		t.Fatalf("a decode allocates %.1f times; the count below cannot see decodes", perDecode)
	}

	const limit = 5
	var info ScanInfo
	perPage := testing.AllocsPerRun(20, func() {
		n := 0
		info, err = d.Scan(Filter{Event: "S.hit"}, it, func(uint64, *event.Instance) bool {
			n++
			return n < limit+1
		})
		if err != nil || n != limit+1 {
			t.Fatalf("page of %d matches, err %v", n, err)
		}
	})
	if info.Records < 5*(limit+1) {
		t.Fatalf("the page skimmed only %d records; the pin is vacuous", info.Records)
	}
	// The scan's own allocations (pinned segments, the block buffer) are
	// a small constant beside the decodes.
	if budget := float64(limit+1)*perDecode + 4; perPage > budget {
		t.Fatalf("a page of %d matches over %d records allocates %.0f times, budget %.0f (%.1f per decode)",
			limit+1, info.Records, perPage, budget, perDecode)
	}
}
