package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints one row per workload × end-to-end metric of two
// result files — A the parent, B the change — each holding one or more
// untraced runs of every workload (-out adds a run to its file). A side's
// figure is the median of its runs' values with their quartiles, as the
// driver takes them. The row gives both medians, the relative change
// (positive is worse), the bound, the wider of the two sides' spreads, and a
// verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	BREACH      it is worse by more than the bound
//	unresolved  a side's runs lie further apart than the bound, so they
//	            cannot tell a change of that size from noise — unless B's
//	            whole inter-quartile range lies to one side of A's
//
// With one run a side there is no spread to see and the change alone is
// judged. It returns the number of breaches.
func compareFiles(w io.Writer, pathA, pathB string) (breaches int, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	unresolved := 0
	fmt.Fprintf(w, "%-11s %-20s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "spread", "verdict")
	for _, spec := range workloads {
		ra, rb := a[spec.Name], b[spec.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := overRuns(ra, m.Name), overRuns(rb, m.Name)
			verdict, change, spread := judge(m, sa, sb)
			switch verdict {
			case "BREACH":
				breaches++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-11s %-20s %14.4f %14.4f %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				spec.Name, m.Name, sa.Median, sb.Median, change*100, m.Bound*100, spread*100, verdict)
		}
		if fa, fb := incorrect(ra), incorrect(rb); fa+fb > 0 {
			breaches++
			fmt.Fprintf(w, "%-11s failed submissions or verdict mismatches in %d of A's %d runs, %d of B's %d  BREACH\n",
				spec.Name, fa, len(ra), fb, len(rb))
		}
	}
	fmt.Fprintf(w, "%d breach(es), %d unresolved; runs a side: %d, %d\n", breaches, unresolved, len(a[workloads[0].Name]), len(b[workloads[0].Name]))
	return breaches, nil
}

// overRuns digests one metric over a side's runs, each run counting with
// the value it reported.
func overRuns(runs []*result, metric string) sample {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[metric].Median
	}
	return digest(vals)
}

func incorrect(runs []*result) (n int) {
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// judge compares one metric's two digests. change is B against A as a
// share of A, signed so that positive is worse whichever way the metric
// points. Where a side's quartiles lie further apart than the bound, only
// a B whose middle runs all beat, or all trail, A's middle runs is judged.
func judge(m e2eSpec, a, b sample) (verdict string, change, spread float64) {
	sign := 1.0 // orients values so that larger is worse
	if m.Better == "higher" {
		sign = -1
	}
	best := func(s sample) float64 { return min(sign*s.Q1, sign*s.Q3) }
	worst := func(s sample) float64 { return max(sign*s.Q1, sign*s.Q3) }
	if a.Median != 0 {
		change = sign * (b.Median - a.Median) / math.Abs(a.Median)
	}
	spread = max(a.spread(), b.spread())
	switch {
	case spread <= m.Bound && change > m.Bound:
		verdict = "BREACH"
	case spread <= m.Bound, worst(b) < best(a):
		verdict = "ok"
	case best(b) > worst(a) && change > m.Bound:
		verdict = "BREACH"
	default:
		verdict = "unresolved"
	}
	return verdict, change, spread
}

// readResultsFile reads what -out wrote.
func readResultsFile(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// readResults groups a result file's untraced runs by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := readResultsFile(path)
	if err != nil {
		return nil, err
	}
	by := map[string][]*result{}
	for _, r := range f.Results {
		if !r.Traced {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return by, nil
}
