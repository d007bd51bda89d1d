package main

import (
	"fmt"
	"io"
)

// compareReports prints one row per (workload, end-to-end metric) with
// both values and the bound, and reports whether B regressed: a metric
// worse than A by more than its bound, or a risen failed_ops_share.
func compareReports(w io.Writer, a, b report) (regressed bool) {
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-20s missing from B\n", ra.Workload)
			regressed = true
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			change := 0.0 // B against A, as a share of A
			if va != 0 {
				change = (vb - va) / va
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-20s %-24s %14.3f %14.3f %+7.1f%% %5.0f%%  %s\n",
				ra.Workload, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if rb.FailedOpsShare > ra.FailedOpsShare {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-20s %-24s %14.6f %14.6f %8s %6s  %s\n", ra.Workload, "failed_ops_share", ra.FailedOpsShare, rb.FailedOpsShare, "", "0", verdict)
	}
	return regressed
}
