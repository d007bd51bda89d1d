// Command bench is the repo's one benchmark, the pipeline ledger: it
// builds cmd/stcpsd, spawns the real binary per workload, drives it
// from one process over the wire protocol, SSE and /v1/query, checks the
// outputs against an in-process reference engine, and prints every
// metric by name with its unit. A separate traced run replays the head
// of each workload through an in-process replica of the daemon's
// pipeline to attribute the cost to layers. See README.md.
//
//	go run ./bench                                  # all workloads, full table
//	go run ./bench -workload join_flatout -trace 1  # one workload; last line is the driver's JSON
//	go run ./bench -compare A.json B.json           # exit 1 if B regressed
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON result as the last line (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every random choice of the generator")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed window on the reference box; fixes the record count")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced run and, with -workload, prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.out, "out", "", "result file (default bench/out/results.json)")
	fs.BoolVar(&o.golden, "update-golden", false, "pin this run's counts in bench/golden.json")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	spin := fs.Bool("spin", false, "internal: run as the keep-awake helper (see keepawake.go)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *spin:
		return spinMain()
	case *compare && fs.NArg() != 2:
		err = errors.New("-compare takes two result files")
	case *compare:
		var a, b report
		if a, err = readReport(fs.Arg(0)); err == nil {
			b, err = readReport(fs.Arg(1))
		}
		if err == nil {
			if compareReports(os.Stdout, a, b) {
				return 1
			}
			return 0
		}
	case o.seconds <= 0 || (o.trace != 0 && o.trace != 1):
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	default:
		failed, err := bench(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		if err != nil || failed {
			return 1
		}
		return 0
	}
	fmt.Fprintln(os.Stderr, "bench:", err) // a usage error
	return 2
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	golden   bool
}

// bench runs the workloads and reports whether any operation failed.
// With -workload a failed operation is reported in the driver's JSON
// line, not by the exit code.
func bench(o options) (failed bool, err error) {
	// Generator and daemon share the box: the harness keeps to at most
	// min(nproc, 4) threads of its own; the daemon keeps its default.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	// The harness holds the pre-built records (tens of MB) for the whole
	// run; collecting four times less often keeps its GC from competing
	// with the daemon for the box's few cores.
	debug.SetGCPercent(400)

	todo, err := loadWorkloads()
	if err != nil {
		return false, err
	}
	if o.workload != "" {
		w, err := findWorkload(todo, o.workload)
		if err != nil {
			return false, err
		}
		todo = []*Workload{w}
	}
	root, err := moduleRoot()
	if err != nil {
		return false, err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	bin, err := buildDaemon(root, outDir)
	if err != nil {
		return false, err
	}
	e := &env{bin: bin, outDir: outDir, walkSamples: 4000}
	rep := report{Host: describeHost(root, outDir)}
	if stop, err := keepAwake(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: running without the keep-awake helper (%v): expect noisier latencies\n", err)
	} else {
		defer stop()
		rep.Host.KeepAwake = true
	}
	printHost(os.Stdout, rep.Host)

	// With no -workload one command prints everything: the end-to-end
	// metrics and the traced run of every workload.
	traced := o.trace == 1 || o.workload == ""
	for _, w := range todo {
		r, err := e.runWorkload(w, o.seed, o.seconds, traced)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.Results = append(rep.Results, r)
		printResult(os.Stdout, w, r)
		failed = failed || r.Failed > 0
	}
	path := o.out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := writeReport(path, rep); err != nil {
		return false, err
	}
	fmt.Printf("\nresults written to %s\n", path)
	if o.golden {
		if err := updateGolden(root, rep.Results); err != nil {
			return false, err
		}
	}
	if o.workload != "" {
		line, err := contractLine(rep.Results[0], o.trace == 1)
		if err != nil {
			return false, err
		}
		fmt.Printf("%s\n", line)
		return false, nil
	}
	return failed, nil
}
