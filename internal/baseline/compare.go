package baseline

import (
	"errors"
	"fmt"

	"github.com/stcps/stcps/internal/condition"
	"github.com/stcps/stcps/internal/detect"
	"github.com/stcps/stcps/internal/event"
	"github.com/stcps/stcps/internal/spatial"
	"github.com/stcps/stcps/internal/timemodel"
)

// Scenario is one comparison workload: a primitive event stream and the
// composite query the engines should detect over it.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Class is the relation family exercised: "sequence", "conjunction",
	// "during", "overlap", "spatial", "spatio-temporal".
	Class string
	// Prims is the input stream in arrival order.
	Prims []Prim
	// WantDetect reports whether the target composite actually occurs in
	// the stream (scenarios with negative cases keep engines honest).
	WantDetect bool
	// Cond is the ST-CPS condition expressing the query over roles x
	// (primitive "A") and y (primitive "B").
	Cond string
}

// StandardScenarios returns the E8 suite. Primitive ids are always "A"
// and "B".
func StandardScenarios() []Scenario {
	nearA := spatial.AtPoint(0, 0)
	nearB := spatial.AtPoint(3, 0)
	farB := spatial.AtPoint(40, 0)
	return []Scenario{
		{
			Name:  "sequence",
			Class: "sequence",
			Prims: []Prim{
				{ID: "A", Time: timemodel.At(10), Loc: nearA},
				{ID: "B", Time: timemodel.At(30), Loc: nearB},
			},
			WantDetect: true,
			Cond:       "x.time before y.time",
		},
		{
			Name:  "sequence-negative",
			Class: "sequence",
			Prims: []Prim{
				{ID: "B", Time: timemodel.At(10), Loc: nearB},
				{ID: "A", Time: timemodel.At(30), Loc: nearA},
			},
			WantDetect: false,
			Cond:       "x.time before y.time",
		},
		{
			Name:  "conjunction",
			Class: "conjunction",
			Prims: []Prim{
				{ID: "B", Time: timemodel.At(12), Loc: nearB},
				{ID: "A", Time: timemodel.At(25), Loc: nearA},
			},
			WantDetect: true,
			Cond:       "true",
		},
		{
			Name:  "during",
			Class: "during",
			Prims: []Prim{
				{ID: "B", Time: timemodel.MustBetween(10, 60), Loc: nearB},
				{ID: "A", Time: timemodel.MustBetween(20, 40), Loc: nearA},
			},
			WantDetect: true,
			Cond:       "x.time during y.time",
		},
		{
			Name:  "during-negative",
			Class: "during",
			Prims: []Prim{
				{ID: "B", Time: timemodel.MustBetween(10, 30), Loc: nearB},
				{ID: "A", Time: timemodel.MustBetween(20, 40), Loc: nearA},
			},
			WantDetect: false,
			Cond:       "x.time during y.time",
		},
		{
			Name:  "overlap",
			Class: "overlap",
			Prims: []Prim{
				{ID: "A", Time: timemodel.MustBetween(10, 30), Loc: nearA},
				{ID: "B", Time: timemodel.MustBetween(25, 50), Loc: nearB},
			},
			WantDetect: true,
			Cond:       "x.time overlaps y.time",
		},
		{
			Name:  "spatial",
			Class: "spatial",
			Prims: []Prim{
				{ID: "A", Time: timemodel.At(10), Loc: nearA},
				{ID: "B", Time: timemodel.At(11), Loc: nearB},
			},
			WantDetect: true,
			Cond:       "dist(x.loc, y.loc) < 5",
		},
		{
			Name:  "spatial-negative",
			Class: "spatial",
			Prims: []Prim{
				{ID: "A", Time: timemodel.At(10), Loc: nearA},
				{ID: "B", Time: timemodel.At(11), Loc: farB},
			},
			WantDetect: false,
			Cond:       "dist(x.loc, y.loc) < 5",
		},
		{
			Name:  "spatio-temporal-S1",
			Class: "spatio-temporal",
			Prims: []Prim{
				{ID: "A", Time: timemodel.At(10), Loc: nearA},
				{ID: "B", Time: timemodel.At(30), Loc: nearB},
			},
			WantDetect: true,
			Cond:       "x.time before y.time and dist(x.loc, y.loc) < 5",
		},
		{
			Name:  "spatio-temporal-S1-negative",
			Class: "spatio-temporal",
			Prims: []Prim{
				{ID: "A", Time: timemodel.At(10), Loc: nearA},
				{ID: "B", Time: timemodel.At(30), Loc: farB},
			},
			WantDetect: false,
			Cond:       "x.time before y.time and dist(x.loc, y.loc) < 5",
		},
	}
}

// EngineName identifies a compared engine.
type EngineName string

// Compared engines.
const (
	// EnginePoint is the Snoop-style point-based composite engine.
	EnginePoint EngineName = "point-eca"
	// EngineInterval is the SnoopIB-style interval engine.
	EngineInterval EngineName = "interval-eca"
	// EngineRTL is the RTL-style timing-constraint monitor.
	EngineRTL EngineName = "rtl"
	// EngineSTCPS is the paper's spatio-temporal event model.
	EngineSTCPS EngineName = "st-cps"
)

// AllEngines lists the compared engines in report order.
func AllEngines() []EngineName {
	return []EngineName{EnginePoint, EngineInterval, EngineRTL, EngineSTCPS}
}

// ErrInexpressible is returned by an engine asked for a scenario class
// it has no rule for: the static half of the E8 comparison, mirroring
// the paper's Section 2 critique table.
var ErrInexpressible = errors.New("inexpressible class")

// Outcome is one engine's result on one scenario.
type Outcome struct {
	// Engine is the engine compared.
	Engine EngineName
	// Scenario is the scenario name.
	Scenario string
	// Class is the scenario class.
	Class string
	// Expressible reports whether the engine has a rule for the class
	// at all (it did not refuse it with ErrInexpressible).
	Expressible bool
	// Detected reports whether the engine detected the composite.
	Detected bool
	// Correct reports whether Detected matches the scenario's
	// WantDetect (vacuously false when inexpressible).
	Correct bool
}

// Compare runs every engine over every scenario and returns the outcome
// matrix — the data behind the E8 table.
func Compare(scenarios []Scenario) ([]Outcome, error) {
	var out []Outcome
	for _, sc := range scenarios {
		for _, eng := range AllEngines() {
			o := Outcome{Engine: eng, Scenario: sc.Name, Class: sc.Class}
			detected, err := runEngine(eng, sc)
			if err != nil && !errors.Is(err, ErrInexpressible) {
				return nil, fmt.Errorf("baseline: %s on %s: %w", eng, sc.Name, err)
			}
			if err == nil {
				o.Expressible = true
				o.Detected = detected
				o.Correct = detected == sc.WantDetect
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// runEngine configures the engine for the scenario's class and feeds the
// stream. A class the engine has no rule for fails with ErrInexpressible.
func runEngine(eng EngineName, sc Scenario) (bool, error) {
	switch eng {
	case EnginePoint:
		var op PointOp
		switch sc.Class {
		case "sequence":
			op = PSeq
		case "conjunction":
			op = PAnd
		default:
			return false, fmt.Errorf("%w %q", ErrInexpressible, sc.Class)
		}
		e, err := NewPointEngine(PointRule{Name: sc.Name, Op: op, A: "A", B: "B"})
		if err != nil {
			return false, err
		}
		detected := false
		for _, p := range sc.Prims {
			if len(e.Offer(p)) > 0 {
				detected = true
			}
		}
		return detected, nil
	case EngineInterval:
		var op IntervalOp
		switch sc.Class {
		case "sequence":
			op = ISeq
		case "conjunction":
			op = IAnd
		case "during":
			op = IDuring
		case "overlap":
			op = IOverlap
		default:
			return false, fmt.Errorf("%w %q", ErrInexpressible, sc.Class)
		}
		e, err := NewIntervalEngine(IntervalRule{Name: sc.Name, Op: op, A: "A", B: "B"})
		if err != nil {
			return false, err
		}
		detected := false
		for _, p := range sc.Prims {
			if len(e.Offer(p)) > 0 {
				detected = true
			}
		}
		return detected, nil
	case EngineRTL:
		if sc.Class != "sequence" {
			return false, fmt.Errorf("%w %q", ErrInexpressible, sc.Class)
		}
		m, err := NewRTLMonitor(RTLConstraint{
			Name: sc.Name, A: "A", B: "B", MinGap: 1, MaxGap: 1 << 30,
		})
		if err != nil {
			return false, err
		}
		detected := false
		for _, p := range sc.Prims {
			if len(m.Offer(p)) > 0 {
				detected = true
			}
		}
		return detected, nil
	case EngineSTCPS:
		return runSTCPS(sc)
	default:
		return false, fmt.Errorf("unknown engine %q", eng)
	}
}

// runSTCPS evaluates the scenario with the full spatio-temporal detector.
func runSTCPS(sc Scenario) (bool, error) {
	cond, err := condition.Parse(sc.Cond)
	if err != nil {
		return false, err
	}
	d, err := detect.New("cmp", detect.Spec{
		EventID: sc.Name,
		Layer:   event.LayerCyber,
		Roles: []detect.RoleSpec{
			{Name: "x", Source: "A"},
			{Name: "y", Source: "B"},
		},
		Cond: cond,
	})
	if err != nil {
		return false, err
	}
	detected := false
	for i, p := range sc.Prims {
		obs := event.Observation{
			Mote: "gen", Sensor: p.ID, Seq: uint64(i + 1),
			Time: p.Time, Loc: p.Loc,
		}
		now := p.Time.End()
		if len(d.Offer(p.ID, obs, 1, now, spatial.AtPoint(0, 0))) > 0 {
			detected = true
		}
	}
	return detected, nil
}
