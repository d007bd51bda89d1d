package db

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// TestStoreFootprint pins what the store keeps per live instance, as
// counts: the slot size of an Instance and a Location, the live heap
// per instance of a store at its retention cap, and the allocations of
// a steady-state LogBatch. A string-keyed entity index, a grid that
// copies every location, and a Location that holds its polygon inline
// read 272 and 80 bytes, about 650 B per instance and 4 allocations.
func TestStoreFootprint(t *testing.T) {
	if n := unsafe.Sizeof(event.Instance{}); n != 176 {
		t.Errorf("event.Instance is %d bytes, want 176", n)
	}
	if n := unsafe.Sizeof(spatial.Location{}); n != 32 {
		t.Errorf("spatial.Location is %d bytes, want 32", n)
	}

	const live, logged = 50_000, 100_000
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(Retention{MaxInstances: live})
	batch := make([]event.Instance, 1)
	next := 0
	logOne := func() {
		i := next
		next++
		batch[0] = inst("MT1", "S.hot", uint64(i), timemodel.At(timemodel.Tick(i)), spatial.AtPoint(float64(i%1000), float64(i/1000%100)))
		if _, _, err := s.LogBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range logged {
		logOne()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if s.Len() != live {
		t.Fatalf("Len = %d, want %d", s.Len(), live)
	}
	perInst := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / live
	t.Logf("live heap per live instance: %.1f B", perInst)
	if perInst > 300 {
		t.Errorf("live heap per live instance = %.1f B, want ≤ 300", perInst)
	}

	if n := testing.AllocsPerRun(1000, logOne); n > 3 {
		t.Errorf("LogBatch of one fresh instance allocates %.1f times, want ≤ 3", n)
	}
}
