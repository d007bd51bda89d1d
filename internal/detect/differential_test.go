package detect

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// differential_test.go proves the planner refactor preserves detection
// semantics: across fuzzed specs and entity streams, the planned indexed
// join must emit byte-identical instances to the naive enumeration
// oracle — including interval mode, confidence policies, estimation
// policies, and conditions that force the enumerate fallback.

// specGen generates random detector specs and matching entity streams.
type specGen struct {
	rng *rand.Rand
}

var genAttrs = []string{"a", "b"}

func (g *specGen) roleNames(n int) []string {
	all := []string{"x", "y", "z"}
	return all[:n]
}

// clause builds one random conjunct over the given roles.
func (g *specGen) clause(roles []string) condition.Expr {
	pick := func() string { return roles[g.rng.Intn(len(roles))] }
	attr := func() string { return genAttrs[g.rng.Intn(len(genAttrs))] }
	relOps := []condition.RelOp{
		condition.OpGt, condition.OpGe, condition.OpLt,
		condition.OpLe, condition.OpEq, condition.OpNe,
	}
	timeOps := []timemodel.Operator{
		timemodel.OpBefore, timemodel.OpAfter, timemodel.OpDuring,
		timemodel.OpBegin, timemodel.OpEnd, timemodel.OpMeet,
		timemodel.OpOverlap, timemodel.OpEqualT,
	}
	parts := []condition.TimePart{condition.WholeTime, condition.StartTime, condition.EndTime}
	timeSide := func(role string) condition.Term {
		var t condition.Term = condition.TimeRef{Role: role, Part: parts[g.rng.Intn(3)]}
		if g.rng.Intn(3) == 0 {
			t = condition.TimeShift{
				T:   t,
				D:   condition.NumLit{V: float64(g.rng.Intn(8))},
				Neg: g.rng.Intn(2) == 0,
			}
		}
		return t
	}
	distCall := func(a, b string) condition.Term {
		c, err := condition.NewCall("dist",
			condition.LocRef{Role: a}, condition.LocRef{Role: b})
		if err != nil {
			panic(err)
		}
		return c
	}
	switch g.rng.Intn(6) {
	case 0: // single-role attribute filter
		return condition.CmpNum{
			L:  condition.AttrRef{Role: pick(), Name: attr()},
			Op: relOps[g.rng.Intn(len(relOps))],
			R:  condition.NumLit{V: float64(g.rng.Intn(11) - 2)},
		}
	case 1: // two-role temporal link (or single-role when len(roles)==1)
		a, b := pick(), pick()
		return condition.CmpTime{
			L:  timeSide(a),
			Op: timeOps[g.rng.Intn(len(timeOps))],
			R:  timeSide(b),
		}
	case 2: // spatial radius link
		a, b := pick(), pick()
		return condition.CmpNum{
			L:  distCall(a, b),
			Op: condition.OpLt,
			R:  condition.NumLit{V: float64(g.rng.Intn(12) + 1)},
		}
	case 3: // cross-role attribute residual
		return condition.CmpNum{
			L:  condition.AttrRef{Role: pick(), Name: attr()},
			Op: relOps[g.rng.Intn(len(relOps))],
			R:  condition.AttrRef{Role: pick(), Name: attr()},
		}
	case 4: // reversed radius (spatial link via > with literal on left)
		a, b := pick(), pick()
		return condition.CmpNum{
			L:  condition.NumLit{V: float64(g.rng.Intn(12) + 1)},
			Op: condition.OpGt,
			R:  distCall(a, b),
		}
	default: // temporal residual: span(..) during a literal window
		a, b := pick(), pick()
		c, err := condition.NewCall("span",
			condition.TimeRef{Role: a, Part: condition.WholeTime},
			condition.TimeRef{Role: b, Part: condition.WholeTime})
		if err != nil {
			panic(err)
		}
		lo := timemodel.Tick(g.rng.Intn(40))
		return condition.CmpTime{
			L:  c,
			Op: timemodel.OpDuring,
			R:  condition.TimeLit{T: timemodel.MustBetween(lo, lo+timemodel.Tick(g.rng.Intn(60)+5))},
		}
	}
}

// cond combines 1-4 clauses; sometimes it wraps the result in OR/NOT to
// exercise the enumerate fallback.
func (g *specGen) cond(roles []string) condition.Expr {
	n := g.rng.Intn(4) + 1
	e := g.clause(roles)
	for i := 1; i < n; i++ {
		e = condition.And{L: e, R: g.clause(roles)}
	}
	switch g.rng.Intn(8) {
	case 0:
		return condition.Or{L: e, R: g.clause(roles)}
	case 1:
		return condition.Not{X: e}
	default:
		return e
	}
}

// spec builds a random detector spec. The MaxBindings cap is set high
// enough that neither path truncates, keeping the comparison exact.
func (g *specGen) spec(planner PlannerMode) Spec {
	nRoles := g.rng.Intn(3) + 1
	names := g.roleNames(nRoles)
	nSources := g.rng.Intn(nRoles) + 1 // some sources feed several roles
	roles := make([]RoleSpec, nRoles)
	for i, name := range names {
		roles[i] = RoleSpec{
			Name:   name,
			Source: fmt.Sprintf("s%d", g.rng.Intn(nSources)),
			Window: g.rng.Intn(6) + 1,
		}
		if g.rng.Intn(3) == 0 {
			roles[i].MaxAge = timemodel.Tick(g.rng.Intn(40) + 10)
		}
	}
	policies := []ConfidencePolicy{PolicyMin, PolicyProduct, PolicyMean, PolicyNoisyOr}
	spec := Spec{
		EventID:        "E.fuzz",
		Layer:          event.LayerSensor,
		Roles:          roles,
		Cond:           g.cond(names),
		Confidence:     policies[g.rng.Intn(len(policies))],
		BaseConfidence: 0.5 + g.rng.Float64()/2,
		TimeEst:        []TimeEstimate{EstimateSpan, EstimateEarliest, EstimateLatest}[g.rng.Intn(3)],
		LocEst:         []LocEstimate{EstimateCentroid, EstimateHull, EstimateFirst}[g.rng.Intn(3)],
		MaxBindings:    1 << 20,
		Planner:        planner,
	}
	if g.rng.Intn(5) == 0 {
		spec.Mode = ModeInterval
	}
	return spec
}

// obs builds one random observation for the stream.
func (g *specGen) obs(i int, now timemodel.Tick) event.Observation {
	start := now - timemodel.Tick(g.rng.Intn(6))
	occ := timemodel.At(start)
	if g.rng.Intn(3) == 0 {
		occ = timemodel.MustBetween(start, start+timemodel.Tick(g.rng.Intn(8)))
	}
	loc := spatial.AtPoint(float64(g.rng.Intn(25)), float64(g.rng.Intn(25)))
	if g.rng.Intn(6) == 0 {
		f, err := spatial.Rect(
			float64(g.rng.Intn(10)), float64(g.rng.Intn(10)),
			float64(g.rng.Intn(10)+11), float64(g.rng.Intn(10)+11))
		if err != nil {
			panic(err)
		}
		loc = spatial.InField(f)
	}
	return event.Observation{
		Mote: "M", Sensor: "S", Seq: uint64(i),
		Time: occ,
		Loc:  loc,
		Attrs: event.Attrs{
			"a": float64(g.rng.Intn(13) - 2),
			"b": float64(g.rng.Intn(13) - 2),
		},
	}
}

func encodeAll(t *testing.T, insts []event.Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, in := range insts {
		data, err := event.EncodeInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestPlannedMatchesEnumerateOracle is the differential oracle: the same
// spec and stream through the planner and through naive enumeration must
// produce byte-identical instance streams, offer by offer.
func TestPlannedMatchesEnumerateOracle(t *testing.T) {
	const seeds = 400
	planned := 0
	for seed := int64(0); seed < seeds; seed++ {
		rngSpec := rand.New(rand.NewSource(seed))
		g := &specGen{rng: rngSpec}
		specAuto := g.spec(PlannerAuto)

		// Rebuild the identical spec for the oracle (normalize mutates).
		rngSpec2 := rand.New(rand.NewSource(seed))
		g2 := &specGen{rng: rngSpec2}
		specOff := g2.spec(PlannerAuto)
		specOff.Planner = PlannerOff

		dAuto, err := New("OB", specAuto)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dOff, err := New("OB", specOff)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if dAuto.Planned() {
			planned++
		}
		if dOff.Planned() {
			t.Fatalf("seed %d: PlannerOff detector reports a plan", seed)
		}

		sources := dAuto.Sources()
		genLoc := spatial.AtPoint(1, 1)
		gStream := &specGen{rng: rand.New(rand.NewSource(seed + 10_000))}
		now := timemodel.Tick(0)
		for i := 0; i < 120; i++ {
			now += timemodel.Tick(gStream.rng.Intn(4))
			src := sources[gStream.rng.Intn(len(sources))]
			o := gStream.obs(i, now)
			conf := 0.5 + gStream.rng.Float64()/2
			outA := dAuto.Offer(src, o, conf, now, genLoc)
			outO := dOff.Offer(src, o, conf, now, genLoc)
			a, b := encodeAll(t, outA), encodeAll(t, outO)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d offer %d: planned and oracle diverge\ncond: %s\nplan: %s\nplanned:\n%s\noracle:\n%s",
					seed, i, specAuto.Cond, dAuto.PlanDesc(), a, b)
			}
		}
		fa := encodeAll(t, dAuto.Flush(now+1, genLoc))
		fo := encodeAll(t, dOff.Flush(now+1, genLoc))
		if !bytes.Equal(fa, fo) {
			t.Fatalf("seed %d: flush diverges\ncond: %s\nplanned:\n%s\noracle:\n%s",
				seed, specAuto.Cond, fa, fo)
		}
		if tr := dAuto.Stats().Truncations; tr != 0 {
			t.Fatalf("seed %d: planned path truncated %d times (cap too low for the comparison)", seed, tr)
		}
		if tr := dOff.Stats().Truncations; tr != 0 {
			t.Fatalf("seed %d: oracle truncated %d times (cap too low for the comparison)", seed, tr)
		}
	}
	if planned < seeds/4 {
		t.Fatalf("only %d/%d fuzzed specs ran the planner — generator lost coverage", planned, seeds)
	}
	t.Logf("planner active on %d/%d fuzzed specs", planned, seeds)
}

// e10Cond is the three-role chain of the retired E10 benchmark
// (BENCH_3.json): two temporal and two spatial links plus a single-role
// filter, a shape the planner decomposes completely.
const e10Cond = "x.time before y.time and y.time before z.time and " +
	"dist(x.loc, y.loc) < 4 and dist(y.loc, z.loc) < 4 and x.v > 0.2"

// TestPlannedMatchesEnumerateChain is the fixed wide-window case beside
// the fuzzed oracle: E10's chain over 64-entry windows and 450 entities
// (seed 10). Both paths must emit the same bytes without truncating,
// and the planner must probe at most 1/100 of the bindings the naive
// cross product enumerates — the join's win as work, not as a clock.
// E10's 256² space almost never closes the chain at this size, so the
// same stream squeezed into a 16² space checks emissions that happen.
func TestPlannedMatchesEnumerateChain(t *testing.T) {
	run := func(planner PlannerMode, space float64) ([]byte, Stats) {
		d, err := New("bench", Spec{
			EventID: "E.join",
			Layer:   event.LayerSensor,
			Roles: []RoleSpec{
				{Name: "x", Source: "JX", Window: 64},
				{Name: "y", Source: "JY", Window: 64},
				{Name: "z", Source: "JZ", Window: 64},
			},
			Cond:        condition.MustParse(e10Cond),
			MaxBindings: 1 << 30,
			Planner:     planner,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Planned() != (planner == PlannerAuto) {
			t.Fatalf("planner %v: Planned() = %v (%s)", planner, d.Planned(), d.PlanDesc())
		}
		rng := rand.New(rand.NewSource(10))
		sources := [...]string{"JX", "JY", "JZ"}
		genLoc := spatial.AtPoint(0, 0)
		var out bytes.Buffer
		for i := 0; i < 450; i++ {
			now := timemodel.Tick(i)
			o := event.Observation{
				Mote: "M", Sensor: sources[i%3], Seq: uint64(i),
				Time:  timemodel.At(now),
				Loc:   spatial.AtPoint(rng.Float64()*space, rng.Float64()*space),
				Attrs: event.Attrs{"v": rng.Float64()},
			}
			out.Write(encodeAll(t, d.Offer(sources[i%3], o, 1, now, genLoc)))
		}
		return out.Bytes(), d.Stats()
	}
	for _, space := range []float64{256, 16} {
		planned, ps := run(PlannerAuto, space)
		naive, ns := run(PlannerOff, space)
		if !bytes.Equal(planned, naive) {
			t.Fatalf("space %g: planned and enumerated emissions diverge:\nplanned:\n%s\nnaive:\n%s", space, planned, naive)
		}
		if ps.Truncations != 0 || ns.Truncations != 0 {
			t.Fatalf("space %g: truncated: planned %d, naive %d", space, ps.Truncations, ns.Truncations)
		}
		if space == 256 && ps.Probed*100 > ns.Probed {
			t.Fatalf("planned join probed %d bindings, naive %d: want at most 1/100", ps.Probed, ns.Probed)
		}
		if space == 16 && len(planned) == 0 {
			t.Fatal("the dense stream emitted nothing; the comparison proved nothing")
		}
		t.Logf("space %g: %d emission lines; probed planned=%d naive=%d",
			space, bytes.Count(planned, []byte("\n")), ps.Probed, ns.Probed)
	}
}

// TestEnumerateTruncationCounted pins satellite behavior: hitting
// MaxBindings stops the enumeration round and counts a truncation
// instead of silently dropping bindings.
func TestEnumerateTruncationCounted(t *testing.T) {
	spec := Spec{
		EventID: "E.trunc",
		Layer:   event.LayerSensor,
		Roles: []RoleSpec{
			{Name: "x", Source: "sx", Window: 8},
			{Name: "y", Source: "sy", Window: 8},
		},
		Cond:        condition.MustParse("x.a > y.b"), // residual-only: enumerate fallback
		MaxBindings: 4,
	}
	d, err := New("OB", spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Planned() {
		t.Fatal("residual-only two-role condition should fall back to enumeration")
	}
	genLoc := spatial.AtPoint(0, 0)
	g := &specGen{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 8; i++ {
		d.Offer("sx", g.obs(i, timemodel.Tick(i)), 1, timemodel.Tick(i), genLoc)
	}
	for i := 8; i < 16; i++ {
		d.Offer("sy", g.obs(i, timemodel.Tick(i)), 1, timemodel.Tick(i), genLoc)
	}
	st := d.Stats()
	if st.Truncations == 0 {
		t.Fatalf("expected truncations with 8x8 windows and MaxBindings=4, stats=%+v", st)
	}
}

// TestPlannedTruncationCounted covers the planner's MaxBindings cap.
func TestPlannedTruncationCounted(t *testing.T) {
	spec := Spec{
		EventID: "E.trunc2",
		Layer:   event.LayerSensor,
		Roles: []RoleSpec{
			{Name: "x", Source: "sx", Window: 8},
			{Name: "y", Source: "sy", Window: 8},
		},
		Cond:        condition.MustParse("x.a > 0 and y.a > 0"),
		MaxBindings: 2,
	}
	d, err := New("OB", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Planned() {
		t.Fatalf("expected a plan, got %s", d.PlanDesc())
	}
	genLoc := spatial.AtPoint(0, 0)
	mk := func(i int) event.Observation {
		return event.Observation{
			Mote: "M", Sensor: "S", Seq: uint64(i),
			Time:  timemodel.At(timemodel.Tick(i)),
			Loc:   spatial.AtPoint(0, 0),
			Attrs: event.Attrs{"a": 1},
		}
	}
	for i := 0; i < 8; i++ {
		d.Offer("sx", mk(i), 1, timemodel.Tick(i), genLoc)
	}
	for i := 8; i < 16; i++ {
		d.Offer("sy", mk(i), 1, timemodel.Tick(i), genLoc)
	}
	if d.Stats().Truncations == 0 {
		t.Fatalf("expected planned truncations, stats=%+v", d.Stats())
	}
}

// TestFixedConfidenceThreaded pins the confOf fix: when the same entity
// ID sits in a window twice with different confidences, the instance
// must carry the confidence the entity was offered with — not a value
// recovered by scanning the buffer.
func TestFixedConfidenceThreaded(t *testing.T) {
	for _, planner := range []PlannerMode{PlannerAuto, PlannerOff} {
		spec := Spec{
			EventID:    "E.conf",
			Layer:      event.LayerSensor,
			Roles:      []RoleSpec{{Name: "x", Source: "s", Window: 4}},
			Cond:       condition.MustParse("x.a > 0"),
			Confidence: PolicyMin,
			Planner:    planner,
		}
		d, err := New("OB", spec)
		if err != nil {
			t.Fatal(err)
		}
		o := event.Observation{
			Mote: "M", Sensor: "S", Seq: 1,
			Time:  timemodel.At(1),
			Loc:   spatial.AtPoint(0, 0),
			Attrs: event.Attrs{"a": 1},
		}
		genLoc := spatial.AtPoint(0, 0)
		// Same entity ID offered twice with different confidences: the
		// second offer's instance must carry 0.4, even though an entry
		// with the same ID and confidence 0.9 sits later in the buffer
		// under the old reverse scan.
		out1 := d.Offer("s", o, 0.9, 1, genLoc)
		if len(out1) != 1 || out1[0].Confidence != 0.9 {
			t.Fatalf("planner=%v: first offer: %+v", planner, out1)
		}
		out2 := d.Offer("s", o, 0.4, 2, genLoc)
		if len(out2) != 0 {
			// The binding deduplicates (same entity ID): nothing emits,
			// which is fine — force a fresh binding instead.
			t.Fatalf("planner=%v: dedup should swallow the repeat, got %+v", planner, out2)
		}
		o2 := o
		o2.Seq = 2
		out3 := d.Offer("s", o2, 0.4, 3, genLoc)
		if len(out3) != 1 {
			t.Fatalf("planner=%v: third offer emitted %d instances", planner, len(out3))
		}
		if got := out3[0].Confidence; got != 0.4 {
			t.Errorf("planner=%v: confidence = %g, want the offered 0.4", planner, got)
		}
	}
}
