// Command edlbench reproduces the paper's quantitative side: the event
// detection latency experiments E1–E3 (the analysis the paper defers to
// future work), the related-work comparison E8 and the
// condition-placement question E11. It prints one table per experiment;
// E1–E3 compare the analytic EDL model against the simulated system.
// System performance is measured by the pipeline ledger (go run ./bench),
// not here.
//
// Usage:
//
//	edlbench            # all experiments
//	edlbench -exp E1    # EDL vs. network depth
//	edlbench -exp E2    # EDL vs. sampling period
//	edlbench -exp E3    # recall and EDL vs. packet loss
//	edlbench -exp E8    # baseline expressiveness/correctness matrix
//	edlbench -exp E11   # condition evaluation placement
//	edlbench -runs 32   # more runs per configuration
//	edlbench -json BENCH_1.json   # also write the E1–E3 and E11 rows as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/stcps/stcps/internal/baseline"
	"github.com/stcps/stcps/internal/latency"
	"github.com/stcps/stcps/internal/placement"
	"github.com/stcps/stcps/internal/timemodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "edlbench:", err)
		os.Exit(1)
	}
}

// edlRow is one configuration of the E1/E2 latency sweeps.
type edlRow struct {
	Depth          int     `json:"depth,omitempty"`
	SamplingPeriod int64   `json:"samplingPeriod,omitempty"`
	AnalyticMean   float64 `json:"analyticMean"`
	AnalyticWorst  int64   `json:"analyticWorst"`
	MeasMean       float64 `json:"measMean"`
	MeasP95        float64 `json:"measP95"`
	MeasMax        float64 `json:"measMax"`
}

// lossRow is one configuration of the E3 loss sweep.
type lossRow struct {
	Loss     float64 `json:"loss"`
	Recall   float64 `json:"recall"`
	MeasMean float64 `json:"measMean"`
	MeasP95  float64 `json:"measP95"`
	MeasMax  float64 `json:"measMax"`
}

// placeRow is one placement of the E11 sweep.
type placeRow struct {
	Place      string `json:"place"`
	WSNMsgs    uint64 `json:"wsnMsgs"`
	BusMsgs    uint64 `json:"busMsgs"`
	Detections int    `json:"detections"`
	FirstEDL   int64  `json:"firstEDL"`
}

// artifact is the machine-readable E1–E3 and E11 output.
type artifact struct {
	Schema    string     `json:"schema"`
	Generated string     `json:"generated"`
	GoVersion string     `json:"goVersion"`
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	CPUs      int        `json:"cpus"`
	Runs      int        `json:"runs"`
	E1        []edlRow   `json:"e1,omitempty"`
	E2        []edlRow   `json:"e2,omitempty"`
	E3        []lossRow  `json:"e3,omitempty"`
	E11       []placeRow `json:"e11,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("edlbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: E1, E2, E3, E8, E11 or all")
	runs := fs.Int("runs", 16, "runs per configuration")
	jsonPath := fs.String("json", "", "write a machine-readable benchmark artifact to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	which := strings.ToUpper(*exp)
	art := artifact{
		Schema:    "stcps-bench/1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Runs:      *runs,
	}
	any := false
	if which == "ALL" || which == "E1" {
		any = true
		rows, err := e1(out, *runs)
		if err != nil {
			return err
		}
		art.E1 = rows
	}
	if which == "ALL" || which == "E2" {
		any = true
		rows, err := e2(out, *runs)
		if err != nil {
			return err
		}
		art.E2 = rows
	}
	if which == "ALL" || which == "E3" {
		any = true
		rows, err := e3(out, *runs)
		if err != nil {
			return err
		}
		art.E3 = rows
	}
	if which == "ALL" || which == "E8" {
		any = true
		if err := e8(out); err != nil {
			return err
		}
	}
	if which == "ALL" || which == "E11" {
		any = true
		rows, err := e11(out)
		if err != nil {
			return err
		}
		art.E11 = rows
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	return nil
}

// e1 sweeps network depth (hops) at a fixed sampling period.
func e1(out io.Writer, runs int) ([]edlRow, error) {
	fmt.Fprintln(out, "=== E1: EDL vs. network depth (sampling=16, hop=4, bus=2) ===")
	fmt.Fprintln(out, "depth\tanalyticE\tanalyticWorst\tmeasMean\tmeasP95\tmeasMax")
	var rows []edlRow
	for depth := 1; depth <= 8; depth++ {
		res, err := latency.RunChain(latency.ChainConfig{
			Depth:          depth,
			SamplingPeriod: 16,
			HopDelay:       4,
			BusDelay:       2,
			StepAt:         200,
			Runs:           runs,
		})
		if err != nil {
			return nil, err
		}
		row := edlRow{
			Depth:         depth,
			AnalyticMean:  res.Analytic.Expected(),
			AnalyticWorst: int64(res.Analytic.Worst()),
			MeasMean:      res.CCUEDL.Mean(),
			MeasP95:       res.CCUEDL.Percentile(95),
			MeasMax:       res.CCUEDL.Max(),
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%d\t%.1f\t%d\t%.1f\t%.0f\t%.0f\n",
			row.Depth, row.AnalyticMean, row.AnalyticWorst,
			row.MeasMean, row.MeasP95, row.MeasMax)
	}
	fmt.Fprintln(out)
	return rows, nil
}

// e2 sweeps the sampling period at a fixed depth.
func e2(out io.Writer, runs int) ([]edlRow, error) {
	fmt.Fprintln(out, "=== E2: EDL vs. sampling period (depth=3, hop=4, bus=2) ===")
	fmt.Fprintln(out, "period\tanalyticE\tanalyticWorst\tmeasMean\tmeasP95\tmeasMax")
	var rows []edlRow
	for _, period := range []timemodel.Tick{1, 2, 4, 8, 16, 32, 64, 128} {
		res, err := latency.RunChain(latency.ChainConfig{
			Depth:          3,
			SamplingPeriod: period,
			HopDelay:       4,
			BusDelay:       2,
			StepAt:         200,
			Runs:           runs,
		})
		if err != nil {
			return nil, err
		}
		row := edlRow{
			SamplingPeriod: int64(period),
			AnalyticMean:   res.Analytic.Expected(),
			AnalyticWorst:  int64(res.Analytic.Worst()),
			MeasMean:       res.CCUEDL.Mean(),
			MeasP95:        res.CCUEDL.Percentile(95),
			MeasMax:        res.CCUEDL.Max(),
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%d\t%.1f\t%d\t%.1f\t%.0f\t%.0f\n",
			row.SamplingPeriod, row.AnalyticMean, row.AnalyticWorst,
			row.MeasMean, row.MeasP95, row.MeasMax)
	}
	fmt.Fprintln(out)
	return rows, nil
}

// e3 sweeps per-hop loss; fresh samples act as retransmissions, so loss
// shows up as latency first and as missed detections only at the extreme.
func e3(out io.Writer, runs int) ([]lossRow, error) {
	fmt.Fprintln(out, "=== E3: recall and EDL vs. per-hop loss (depth=3, sampling=16) ===")
	fmt.Fprintln(out, "loss\trecall\tmeasMean\tmeasP95\tmeasMax")
	var rows []lossRow
	for _, loss := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		res, err := latency.RunChain(latency.ChainConfig{
			Depth:          3,
			SamplingPeriod: 16,
			HopDelay:       4,
			BusDelay:       2,
			LossRate:       loss,
			StepAt:         200,
			Runs:           runs,
		})
		if err != nil {
			return nil, err
		}
		row := lossRow{
			Loss:     loss,
			Recall:   res.Recall(),
			MeasMean: res.CCUEDL.Mean(),
			MeasP95:  res.CCUEDL.Percentile(95),
			MeasMax:  res.CCUEDL.Max(),
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%.1f\t%.2f\t%.1f\t%.0f\t%.0f\n",
			row.Loss, row.Recall, row.MeasMean, row.MeasP95, row.MeasMax)
	}
	fmt.Fprintln(out)
	return rows, nil
}

// e8 prints the baseline comparison matrix: which engine from the
// paper's related-work section covers which scenario class, and whether
// it judged the scenario correctly.
func e8(out io.Writer) error {
	fmt.Fprintln(out, "=== E8: baseline expressiveness and correctness ===")
	outcomes, err := baseline.Compare(baseline.StandardScenarios())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "scenario\tclass\tengine\texpressible\tdetected\tcorrect")
	for _, o := range outcomes {
		expr, det, cor := "no", "-", "-"
		if o.Expressible {
			expr = "yes"
			det, cor = "no", "no"
			if o.Detected {
				det = "yes"
			}
			if o.Correct {
				cor = "yes"
			}
		}
		fmt.Fprintf(out, "%s\t%s\t%s\t%s\t%s\t%s\n",
			o.Scenario, o.Class, o.Engine, expr, det, cor)
	}
	fmt.Fprintln(out)
	return nil
}

// e11 compares condition evaluation placements (mote / sink / CCU) — the
// paper's third future-work item.
func e11(out io.Writer) ([]placeRow, error) {
	fmt.Fprintln(out, "=== E11: condition evaluation placement (sampling=10, hop=2, bus=3) ===")
	fmt.Fprintln(out, "place\twsnMsgs\tbusMsgs\tdetections\tfirstEDL")
	results, err := placement.Sweep(placement.Config{
		SamplingPeriod: 10,
		HopDelay:       2,
		BusDelay:       3,
		StepAt:         200,
		Horizon:        400,
		Seed:           5,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]placeRow, len(results))
	for i, r := range results {
		fmt.Fprintf(out, "%s\t%d\t%d\t%d\t%d\n",
			r.Placement, r.WSNSent, r.BusPublished, r.Detections, r.FirstEDL)
		rows[i] = placeRow{Place: r.Placement.String(), WSNMsgs: r.WSNSent, BusMsgs: r.BusPublished,
			Detections: r.Detections, FirstEDL: int64(r.FirstEDL)}
	}
	fmt.Fprintln(out)
	return rows, nil
}
