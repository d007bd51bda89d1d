package stcps

// This file is the experiment harness index: one benchmark per experiment
// ID from DESIGN.md §4. Benchmarks regenerate the quantitative artifacts
// (the paper itself reports no numbers; EXPERIMENTS.md records the
// expected shapes and the measured results).

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/baseline"
	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/db"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/latency"
	"github.com/stcps/stcps/internal/placement"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// buildBenchSystem assembles the F1 building scenario for benchmarking.
func buildBenchSystem(b *testing.B, motes int) *System {
	b.Helper()
	sys, err := NewSystem(Config{Seed: 1, Radio: Radio{Range: 200, HopDelay: 2}})
	if err != nil {
		b.Fatal(err)
	}
	w := sys.World()
	if err := w.AddObject(&Object{ID: "userA", Traj: NewWaypoints([]Waypoint{
		{T: 0, P: Pt(0, 5)},
		{T: 400, P: Pt(100, 5)},
	})}); err != nil {
		b.Fatal(err)
	}
	if err := sys.AddSink("sink1", Pt(50, 20)); err != nil {
		b.Fatal(err)
	}
	if err := sys.AddCCU("CCU1", Pt(50, 30)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < motes; i++ {
		id := fmt.Sprintf("MT%03d", i)
		if err := sys.AddSensorMote(id, Pt(float64(i%10)*10, 8+float64(i/10)), []SensorConfig{
			{ID: "SRrange", Object: "userA", Period: 10},
		}); err != nil {
			b.Fatal(err)
		}
		if err := sys.OnMote(id, EventSpec{
			ID:    "S.near",
			Roles: []Role{{Name: "x", Source: "SRrange", Window: 1}},
			When:  "x.range < 30",
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.OnSink("sink1", EventSpec{
		ID:    "CP.near",
		Roles: []Role{{Name: "x", Source: "S.near", Window: 1}},
		When:  "x.range < 30",
	}); err != nil {
		b.Fatal(err)
	}
	if err := sys.OnCCU("CCU1", EventSpec{
		ID:    "E.near",
		Roles: []Role{{Name: "x", Source: "CP.near", Window: 1}},
		When:  "true",
	}); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkF1_Pipeline runs the full Figure-1 closed loop (build + run) —
// the end-to-end cost of the architecture.
func BenchmarkF1_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := buildBenchSystem(b, 4)
		if _, err := sys.Run(400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2_LayerPromotion measures promoting one observation through
// the three observer levels (Figure 2) without any transport.
func BenchmarkF2_LayerPromotion(b *testing.B) {
	mk := func(id string, layer event.Layer, src string) *detect.Detector {
		d, err := detect.New(id, detect.Spec{
			EventID: id + ".out",
			Layer:   layer,
			Roles:   []detect.RoleSpec{{Name: "x", Source: src, Window: 1}},
			Cond:    condition.MustParse("x.v > 0"),
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	mote := mk("mote", event.LayerSensor, "obs")
	sink := mk("sink", event.LayerCyberPhysical, "mote.out")
	ccu := mk("ccu", event.LayerCyber, "sink.out")
	genLoc := spatial.AtPoint(0, 0)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := event.Observation{
			Mote: "MT1", Sensor: "SR", Seq: uint64(i + 1),
			Time:  timemodel.At(timemodel.Tick(i)),
			Loc:   spatial.AtPoint(1, 2),
			Attrs: event.Attrs{"v": 1},
		}
		now := timemodel.Tick(i)
		for _, s := range mote.Offer("obs", obs, 1, now, genLoc) {
			for _, cp := range sink.Offer("mote.out", s, s.Confidence, now+1, genLoc) {
				ccu.Offer("sink.out", cp, cp.Confidence, now+2, genLoc)
			}
		}
	}
}

// BenchmarkX1_S1Detection measures the paper's S1 worked example: a
// two-entity spatio-temporal join.
func BenchmarkX1_S1Detection(b *testing.B) {
	d, err := detect.New("OB", detect.Spec{
		EventID: "S1",
		Layer:   event.LayerSensor,
		Roles: []detect.RoleSpec{
			{Name: "x", Source: "sx", Window: 4},
			{Name: "y", Source: "sy", Window: 4},
		},
		Cond: condition.MustParse("x.time before y.time and dist(x.loc, y.loc) < 5"),
	})
	if err != nil {
		b.Fatal(err)
	}
	genLoc := spatial.AtPoint(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := timemodel.Tick(i * 2)
		x := event.Observation{Mote: "M1", Sensor: "S", Seq: uint64(i), Time: timemodel.At(t), Loc: spatial.AtPoint(0, 0)}
		y := event.Observation{Mote: "M2", Sensor: "S", Seq: uint64(i), Time: timemodel.At(t + 1), Loc: spatial.AtPoint(3, 0)}
		d.Offer("sx", x, 1, t, genLoc)
		d.Offer("sy", y, 1, t+1, genLoc)
	}
}

// BenchmarkE1_EDLvsDepth regenerates the E1 table: EDL vs. hop count.
func BenchmarkE1_EDLvsDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := latency.RunChain(latency.ChainConfig{
					Depth:          depth,
					SamplingPeriod: 16,
					HopDelay:       4,
					BusDelay:       2,
					StepAt:         200,
					Runs:           2,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.CCUEDL.Mean()
			}
			b.ReportMetric(mean, "edl-ticks")
		})
	}
}

// BenchmarkE2_EDLvsSampling regenerates the E2 table: EDL vs. sampling
// period.
func BenchmarkE2_EDLvsSampling(b *testing.B) {
	for _, period := range []timemodel.Tick{4, 16, 64} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := latency.RunChain(latency.ChainConfig{
					Depth:          3,
					SamplingPeriod: period,
					HopDelay:       4,
					BusDelay:       2,
					StepAt:         200,
					Runs:           2,
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.CCUEDL.Mean()
			}
			b.ReportMetric(mean, "edl-ticks")
		})
	}
}

// BenchmarkE3_AccuracyVsLoss regenerates the E3 table: recall under
// per-hop loss.
func BenchmarkE3_AccuracyVsLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.25, 0.5} {
		b.Run(fmt.Sprintf("loss=%.2f", loss), func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				res, err := latency.RunChain(latency.ChainConfig{
					Depth:          3,
					SamplingPeriod: 16,
					HopDelay:       4,
					BusDelay:       2,
					LossRate:       loss,
					StepAt:         200,
					Runs:           4,
				})
				if err != nil {
					b.Fatal(err)
				}
				recall = res.Recall()
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkE4_ConditionEval measures composite condition evaluation
// throughput vs. clause count and logical mix.
func BenchmarkE4_ConditionEval(b *testing.B) {
	mkCond := func(clauses int, op string) condition.Expr {
		s := ""
		for i := 0; i < clauses; i++ {
			if i > 0 {
				s += " " + op + " "
			}
			s += fmt.Sprintf("x.a%d > %d", i, i)
		}
		return condition.MustParse(s)
	}
	attrs := make(event.Attrs, 64)
	for i := 0; i < 64; i++ {
		attrs[fmt.Sprintf("a%d", i)] = float64(i + 1)
	}
	ents := []event.Entity{event.Observation{
		Mote: "M", Sensor: "S", Seq: 1,
		Time: timemodel.At(0), Loc: spatial.AtPoint(0, 0), Attrs: attrs,
	}}
	for _, n := range []int{1, 4, 16, 64} {
		for _, op := range []string{"and", "or"} {
			cond, err := condition.Compile(mkCond(n, op), condition.NewSlotMap([]string{"x"}))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("clauses=%d/%s", n, op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cond.Eval(ents); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE5_PunctualVsInterval compares the two temporal detection
// modes on the same stimulus stream.
func BenchmarkE5_PunctualVsInterval(b *testing.B) {
	for _, mode := range []detect.Mode{detect.ModePunctual, detect.ModeInterval} {
		b.Run(mode.String(), func(b *testing.B) {
			d, err := detect.New("OB", detect.Spec{
				EventID: "e",
				Layer:   event.LayerSensor,
				Roles:   []detect.RoleSpec{{Name: "x", Source: "s", Window: 1}},
				Cond:    condition.MustParse("x.v > 0"),
				Mode:    mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			genLoc := spatial.AtPoint(0, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate above/below threshold so interval mode keeps
				// opening and closing.
				v := float64(i%4) - 1
				obs := event.Observation{
					Mote: "M", Sensor: "S", Seq: uint64(i),
					Time:  timemodel.At(timemodel.Tick(i)),
					Loc:   spatial.AtPoint(0, 0),
					Attrs: event.Attrs{"v": v},
				}
				d.Offer("s", obs, 1, timemodel.Tick(i), genLoc)
			}
		})
	}
}

// BenchmarkE6_SpatialOps measures point and field operator cost vs.
// polygon size.
func BenchmarkE6_SpatialOps(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		poly, err := spatial.Circle(spatial.Pt(0, 0), 10, n)
		if err != nil {
			b.Fatal(err)
		}
		loc := spatial.InField(poly)
		probe := spatial.AtPoint(3, 4)
		b.Run(fmt.Sprintf("point-in-field/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spatial.OpInside.Apply(probe, loc)
			}
		})
	}
	small, _ := spatial.Circle(spatial.Pt(5, 0), 3, 64)
	for _, n := range []int{4, 64, 256} {
		poly, err := spatial.Circle(spatial.Pt(0, 0), 10, n)
		if err != nil {
			b.Fatal(err)
		}
		a, bb := spatial.InField(poly), spatial.InField(small)
		b.Run(fmt.Sprintf("field-joint/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spatial.OpJoint.Apply(a, bb)
			}
		})
	}
}

// BenchmarkE7_FanIn measures end-to-end runs vs. mote count (sink
// fan-in).
func BenchmarkE7_FanIn(b *testing.B) {
	for _, motes := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("motes=%d", motes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := buildBenchSystem(b, motes)
				if _, err := sys.Run(400); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_Baselines measures the engine comparison suite.
func BenchmarkE8_Baselines(b *testing.B) {
	scenarios := baseline.StandardScenarios()
	b.Run("compare-suite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Compare(scenarios); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Per-engine single-offer costs.
	b.Run("point-engine-offer", func(b *testing.B) {
		e, _ := baseline.NewPointEngine(baseline.PointRule{Name: "r", Op: baseline.PSeq, A: "A", B: "B"})
		for i := 0; i < b.N; i++ {
			e.Offer(baseline.Prim{ID: "A", Time: timemodel.At(timemodel.Tick(i))})
			e.Offer(baseline.Prim{ID: "B", Time: timemodel.At(timemodel.Tick(i) + 1)})
		}
	})
	b.Run("interval-engine-offer", func(b *testing.B) {
		e, _ := baseline.NewIntervalEngine(baseline.IntervalRule{Name: "r", Op: baseline.IDuring, A: "A", B: "B"})
		for i := 0; i < b.N; i++ {
			t := timemodel.Tick(i * 4)
			e.Offer(baseline.Prim{ID: "B", Time: timemodel.MustBetween(t, t+3)})
			e.Offer(baseline.Prim{ID: "A", Time: timemodel.MustBetween(t+1, t+2)})
		}
	})
}

// BenchmarkE9_DBQueries compares indexed retrieval against linear scans.
func BenchmarkE9_DBQueries(b *testing.B) {
	store, err := db.New(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	for i := 0; i < n; i++ {
		start := timemodel.Tick(rng.Intn(1000000))
		inst := event.Instance{
			Layer:      event.LayerSensor,
			Observer:   "M",
			Event:      fmt.Sprintf("E%d", i%8),
			Seq:        uint64(i + 1),
			Gen:        start + 1,
			Occ:        timemodel.MustBetween(start, start+timemodel.Tick(rng.Intn(100))),
			Loc:        spatial.AtPoint(rng.Float64()*1000, rng.Float64()*1000),
			Confidence: 1,
		}
		if err := store.Log(inst); err != nil {
			b.Fatal(err)
		}
	}
	region, _ := spatial.Rect(100, 100, 140, 140)
	rloc := spatial.InField(region)

	b.Run("time-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.QueryST(db.QuerySpec{Event: "E3", Window: &db.TimeWindow{From: 500000, To: 510000}, Tier: db.TierHot}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("time-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.ScanTime("E3", 500000, 510000)
		}
	})
	b.Run("region-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.QueryST(db.QuerySpec{Region: &rloc, Tier: db.TierHot}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("region-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.ScanRegion(rloc)
		}
	})
}

// BenchmarkE11_Placement measures condition-evaluation placement (the
// paper's third future-work item): radio/bus traffic per placement.
func BenchmarkE11_Placement(b *testing.B) {
	for _, p := range placement.All() {
		b.Run(p.String(), func(b *testing.B) {
			var wsnMsgs float64
			for i := 0; i < b.N; i++ {
				res, err := placement.Run(placement.Config{
					Placement:      p,
					SamplingPeriod: 10,
					HopDelay:       2,
					BusDelay:       3,
					StepAt:         200,
					Horizon:        400,
					Seed:           5,
				})
				if err != nil {
					b.Fatal(err)
				}
				wsnMsgs = float64(res.WSNSent)
			}
			b.ReportMetric(wsnMsgs, "wsn-msgs")
		})
	}
}

// BenchmarkE12_OfferPrune measures the Offer hot path under aged,
// multi-role windows. Offers round-robin across the sources while the
// condition stays false, so the benchmark isolates buffer maintenance:
// the age-prune pass dominates once windows are full.
func BenchmarkE12_OfferPrune(b *testing.B) {
	for _, roles := range []int{2, 8} {
		for _, window := range []int{16, 128} {
			b.Run(fmt.Sprintf("roles=%d/window=%d", roles, window), func(b *testing.B) {
				rs := make([]detect.RoleSpec, roles)
				for i := range rs {
					rs[i] = detect.RoleSpec{
						Name:   fmt.Sprintf("r%d", i),
						Source: fmt.Sprintf("s%d", i),
						Window: window,
						MaxAge: 1 << 40, // never expires: prune passes find nothing
					}
				}
				d, err := detect.New("OB", detect.Spec{
					EventID:     "e",
					Layer:       event.LayerSensor,
					Roles:       rs,
					Cond:        condition.MustParse("r0.v < 0"),
					MaxBindings: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				genLoc := spatial.AtPoint(0, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obs := event.Observation{
						Mote: "M", Sensor: "S", Seq: uint64(i),
						Time:  timemodel.At(timemodel.Tick(i)),
						Loc:   genLoc,
						Attrs: event.Attrs{"v": 1},
					}
					d.Offer(fmt.Sprintf("s%d", i%roles), obs, 1, timemodel.Tick(i), genLoc)
				}
			})
		}
	}
}

// BenchmarkE10_Confidence measures the confidence combination policies
// (the ◊ ablation) and reports the combined ρ for 4 corroborating
// observers at ρ=0.8 each.
func BenchmarkE10_Confidence(b *testing.B) {
	confs := []float64{0.8, 0.8, 0.8, 0.8}
	for _, p := range []detect.ConfidencePolicy{
		detect.PolicyMin, detect.PolicyProduct, detect.PolicyMean, detect.PolicyNoisyOr,
	} {
		b.Run(p.String(), func(b *testing.B) {
			var out float64
			for i := 0; i < b.N; i++ {
				out = p.Combine(confs)
			}
			b.ReportMetric(out, "rho")
		})
	}
}
