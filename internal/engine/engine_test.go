package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

func obsAt(sensor string, seq uint64, t timemodel.Tick, v float64) event.Observation {
	return event.Observation{
		Mote: "MT1", Sensor: sensor, Seq: seq,
		Time:  timemodel.At(t),
		Loc:   spatial.AtPoint(1, 2),
		Attrs: event.Attrs{"v": v},
	}
}

func punctualSpec(eventID, source string) detect.Spec {
	return detect.Spec{
		EventID: eventID,
		Layer:   event.LayerSensor,
		Roles:   []detect.RoleSpec{{Name: "x", Source: source, Window: 4}},
		Cond:    condition.MustParse("x.v > 0"),
	}
}

func TestBankValidation(t *testing.T) {
	if _, err := NewBank(Config{}); !errors.Is(err, ErrNoObserver) {
		t.Fatalf("missing observer err = %v", err)
	}
	b, err := NewBank(Config{Observer: "OB"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDetector(detect.Spec{}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestBankFanOutAndHooks(t *testing.T) {
	var logged, emitted []string
	b, err := NewBank(Config{
		Observer: "OB",
		LogBatch: func(ins []event.Instance) {
			for _, in := range ins {
				logged = append(logged, in.EntityID())
			}
		},
		Emit: func(in event.Instance) { emitted = append(emitted, in.EntityID()) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two detectors on source "sa", one on "sb": fan-out is per source.
	for _, id := range []string{"E.a1", "E.a2"} {
		if _, err := b.AddDetector(punctualSpec(id, "sa")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AddDetector(punctualSpec("E.b", "sb")); err != nil {
		t.Fatal(err)
	}
	if got := b.Sources(); len(got) != 2 || got[0] != "sa" || got[1] != "sb" {
		t.Fatalf("Sources() = %v", got)
	}

	loc := spatial.AtPoint(0, 0)
	out := b.Ingest("sa", obsAt("sa", 1, 10, 1), 1, 10, loc)
	if len(out) != 2 {
		t.Fatalf("sa fan-out emitted %d instances, want 2", len(out))
	}
	out = b.Ingest("sb", obsAt("sb", 1, 11, 1), 1, 11, loc)
	if len(out) != 1 {
		t.Fatalf("sb emitted %d instances, want 1", len(out))
	}
	if out[0].Observer != "OB" || out[0].Event != "E.b" {
		t.Errorf("instance = %+v", out[0])
	}
	// Unknown sources are ignored without error.
	if out := b.Ingest("nope", obsAt("x", 1, 12, 1), 1, 12, loc); out != nil {
		t.Errorf("unknown source emitted %v", out)
	}

	if len(logged) != 3 || fmt.Sprint(emitted) != fmt.Sprint(logged) {
		t.Fatalf("LogBatch saw %v, Emit saw %v: want the same 3 instances", logged, emitted)
	}
	st := b.Stats()
	if st.Ingested != 3 || st.Emitted != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.EvalErrors != 0 {
		t.Errorf("eval errors = %d", st.EvalErrors)
	}
}

func TestBankFlushIntervals(t *testing.T) {
	b, err := NewBank(Config{Observer: "OB"})
	if err != nil {
		t.Fatal(err)
	}
	spec := punctualSpec("E.i", "s")
	spec.Mode = detect.ModeInterval
	if _, err := b.AddDetector(spec); err != nil {
		t.Fatal(err)
	}
	loc := spatial.AtPoint(0, 0)
	if out := b.Ingest("s", obsAt("s", 1, 5, 1), 1, 5, loc); len(out) != 0 {
		t.Fatalf("interval emitted early: %v", out)
	}
	out := b.Flush(20, loc)
	if len(out) != 1 {
		t.Fatalf("flush emitted %d, want 1", len(out))
	}
	if out[0].TemporalClass() != event.Interval && out[0].Occ.Start() != 5 {
		t.Errorf("flushed occurrence = %v", out[0].Occ)
	}
}

// TestBankTraceReplay proves a recorded trace replays byte-identically
// through a fresh bank.
func TestBankTraceReplay(t *testing.T) {
	mkBank := func() *Bank {
		b, err := NewBank(Config{Observer: "OB"})
		if err != nil {
			t.Fatal(err)
		}
		spec := punctualSpec("E.p", "s")
		if _, err := b.AddDetector(spec); err != nil {
			t.Fatal(err)
		}
		ispec := punctualSpec("E.i", "s")
		ispec.Mode = detect.ModeInterval
		if _, err := b.AddDetector(ispec); err != nil {
			t.Fatal(err)
		}
		return b
	}

	live := mkBank()
	var trace []TraceOp
	live.Trace = func(op TraceOp) { trace = append(trace, op) }
	loc := spatial.AtPoint(3, 4)
	var want []event.Instance
	for i := 0; i < 20; i++ {
		v := float64(i%5) - 1 // mixes satisfied and unsatisfied steps
		now := timemodel.Tick(i * 3)
		want = append(want, live.Ingest("s", obsAt("s", uint64(i+1), now, v), 0.9, now, loc)...)
	}
	want = append(want, live.Flush(100, loc)...)

	got := mkBank().Replay(trace)
	if len(got) != len(want) {
		t.Fatalf("replay emitted %d instances, want %d", len(got), len(want))
	}
	for i := range want {
		wb, err := event.EncodeInstance(want[i])
		if err != nil {
			t.Fatal(err)
		}
		gb, err := event.EncodeInstance(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("instance %d differs:\nlive:   %s\nreplay: %s", i, wb, gb)
		}
	}
}

// TestBankHookOrder pins the one emission order: LogBatch sees the
// whole round, then Emit sees each of its instances.
func TestBankHookOrder(t *testing.T) {
	var order []string
	b, err := NewBank(Config{
		Observer: "OB",
		LogBatch: func(ins []event.Instance) { order = append(order, fmt.Sprintf("log %d", len(ins))) },
		Emit:     func(event.Instance) { order = append(order, "emit") },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2"} {
		if _, err := b.AddDetector(punctualSpec(id, "s")); err != nil {
			t.Fatal(err)
		}
	}
	loc := spatial.AtPoint(0, 0)
	b.Ingest("s", obsAt("s", 1, 0, 1), 1, 0, loc)
	b.Ingest("s", obsAt("s", 2, 1, 0), 1, 1, loc) // emits nothing: no round
	want := fmt.Sprint([]string{"log 2", "emit", "emit"})
	if fmt.Sprint(order) != want {
		t.Fatalf("hook order = %v, want %v", order, want)
	}
}

// TestBankReentrantEmit feeds the bank from its own Emit hook: the
// nested Ingest is a round of its own, and the outer round's instances
// are delivered once each.
func TestBankReentrantEmit(t *testing.T) {
	var b *Bank
	var logged, emitted []string
	b, err := NewBank(Config{
		Observer: "OB",
		LogBatch: func(ins []event.Instance) {
			for _, in := range ins {
				logged = append(logged, in.Event)
			}
		},
		Emit: func(in event.Instance) {
			emitted = append(emitted, in.Event)
			if in.Event == "E.a" {
				b.Ingest("E.a", in, 1, 1, spatial.AtPoint(0, 0))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDetector(punctualSpec("E.a", "s")); err != nil {
		t.Fatal(err)
	}
	spec := punctualSpec("E.b", "E.a")
	spec.Layer = event.LayerCyberPhysical
	spec.Cond = condition.MustParse("true")
	if _, err := b.AddDetector(spec); err != nil {
		t.Fatal(err)
	}
	b.Ingest("s", obsAt("s", 1, 0, 1), 1, 0, spatial.AtPoint(0, 0))
	if got, want := fmt.Sprint(logged, emitted), fmt.Sprint([]string{"E.a", "E.b"}, []string{"E.a", "E.b"}); got != want {
		t.Fatalf("logged, emitted = %s, want %s", got, want)
	}
}

func TestBankStatsAndPlanDescriptions(t *testing.T) {
	b, err := NewBank(Config{Observer: "OB"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDetector(detect.Spec{
		EventID: "E.join",
		Layer:   event.LayerSensor,
		Roles: []detect.RoleSpec{
			{Name: "x", Source: "sa", Window: 4},
			{Name: "y", Source: "sb", Window: 4},
		},
		Cond: condition.MustParse("x.time before y.time and dist(x.loc, y.loc) < 5 and x.v > 0"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddDetector(punctualSpec("E.simple", "sa")); err != nil {
		t.Fatal(err)
	}
	plans := b.PlanDescriptions()
	if len(plans) != 2 {
		t.Fatalf("plans = %v", plans)
	}
	if !strings.Contains(plans[0], "E.join: planned join") {
		t.Errorf("join plan = %q", plans[0])
	}
	loc := spatial.AtPoint(0, 0)
	b.Ingest("sa", obsAt("sa", 1, 1, 5), 1, 1, loc)
	out := b.Ingest("sb", obsAt("sb", 2, 3, 5), 1, 3, loc)
	if len(out) != 1 {
		t.Fatalf("emitted %d instances", len(out))
	}
	st := b.Stats()
	if st.Ingested != 2 || st.Emitted != 2 {
		t.Errorf("traffic stats = %+v", st)
	}
	if st.BindingsProbed == 0 {
		t.Errorf("no bindings probed: %+v", st)
	}
	if st.Truncations != 0 || st.EvalErrors != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
}
