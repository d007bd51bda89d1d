package wal

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-v2 from goldenRecords")

// goldenSegmentBytes is the rotation size golden-v2 was written with:
// four records per segment, then the empty active segment.
const goldenSegmentBytes = 256

// goldenRecords are the 16 records both fixtures hold: observations and
// the emits they triggered, alternating.
func goldenRecords() []Record {
	var recs []Record
	for i := 0; i < 8; i++ {
		tick := timemodel.Tick(i * 10)
		recs = append(recs, Record{
			Kind: KindObservation, Source: "SR1", Conf: 1, Now: tick,
			Observation: &event.Observation{
				Mote: "MT1", Sensor: "SR1", Seq: uint64(i + 1),
				Time: timemodel.At(tick), Loc: spatial.AtPoint(float64(i), 1),
				Attrs: event.Attrs{"temp": 20 + float64(i)},
			},
		}, Record{
			Kind: KindEmit,
			Instance: &event.Instance{
				Layer: event.LayerSensor, Observer: "MT1", Event: "S.temp",
				Seq: uint64(i + 1), Gen: tick, GenLoc: spatial.AtPoint(0, 0),
				Occ: timemodel.At(tick), Loc: spatial.AtPoint(float64(i), 1),
				Attrs: event.Attrs{"temp": 20 + float64(i)}, Confidence: 0.9,
				Inputs: []string{fmt.Sprintf("O(MT1,SR1,%d)", i+1)},
			},
		})
	}
	return recs
}

// copyFixture copies a committed fixture into a fresh directory (Open
// adds a lock file and may truncate) and returns it with the files'
// bytes by name.
func copyFixture(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, de := range entries {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = data
	}
	return dir, files
}

// TestGoldenSegmentsReadable pins the on-disk format: testdata/golden-v2
// holds goldenRecords as this format writes them (FsyncOff, rotation
// at goldenSegmentBytes), so this test failing means the format drifted
// and existing logs would be unreadable after an upgrade. Regenerate
// the fixture (go test -run TestGoldenSegmentsReadable -update-golden)
// only together with a new format version.
func TestGoldenSegmentsReadable(t *testing.T) {
	want := goldenRecords()
	if *updateGolden {
		out := filepath.Join("testdata", "golden-v2")
		if err := os.RemoveAll(out); err != nil {
			t.Fatal(err)
		}
		l := mustOpen(t, Options{Dir: out, Fsync: FsyncOff, SegmentBytes: goldenSegmentBytes})
		for _, rec := range want {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(out, "wal.lock")); err != nil {
			t.Fatal(err)
		}
	}

	dir, files := copyFixture(t, "golden-v2")
	if len(files) != 5 {
		t.Fatalf("golden fixture has %d segments, want 5", len(files))
	}
	l := mustOpen(t, Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: goldenSegmentBytes})
	defer l.Close()
	if got := l.Stats(); got.LastSeq != 16 || got.TornRecords != 0 {
		t.Fatalf("stats after open: %+v", got)
	}
	recs := collect(t, l)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		want[i].Seq = uint64(i + 1)
		if !reflect.DeepEqual(recs[i], want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i+1, recs[i], want[i])
		}
	}

	// The reopened log keeps appending where the fixture left off.
	seq, err := l.Append(Record{Kind: KindObservation, Source: "SR1", Conf: 1, Now: 80,
		Observation: &event.Observation{Mote: "MT1", Sensor: "SR1", Seq: 9,
			Time: timemodel.At(80), Loc: spatial.AtPoint(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 17 {
		t.Fatalf("next seq = %d, want 17", seq)
	}
}

// TestGoldenV1Refused: testdata/golden-v1 holds the same records in the
// v1 JSON payload. Open must refuse it with ErrVersion and must not
// "repair" it as a torn tail: every segment keeps its bytes.
func TestGoldenV1Refused(t *testing.T) {
	dir, files := copyFixture(t, "golden-v1")
	if len(files) != 6 {
		t.Fatalf("golden-v1 fixture has %d segments, want 6", len(files))
	}
	if l, err := Open(Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512}); !errors.Is(err, ErrVersion) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open over a v1 log = %v, want ErrVersion", err)
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s changed by the refused Open (%d -> %d bytes)", name, len(data), len(got))
		}
	}
}
