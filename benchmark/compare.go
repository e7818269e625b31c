package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × metric row of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"       // in either run the floors of the two halves lie further apart than the bound
	verdictNondet     = "nondeterministic" // a count that must repeat exactly did not
)

// verdict compares one metric's value in a (the parent) and b (the change).
// delta is how much worse b is, as a share of a; negative is better.
func verdict(sp metricSpec, a, b metricValue) (delta float64, v string) {
	if a.Value != 0 {
		delta = (b.Value - a.Value) / a.Value
		if sp.Better == "higher" {
			delta = -delta
		}
	}
	switch {
	case sp.Exact && a.Value != b.Value:
		return delta, verdictNondet
	case sp.Bound == 0:
		return delta, verdictOK // a layer metric: no bound to hold it to
	case max(a.Spread, b.Spread) > sp.Bound:
		return delta, verdictUnresolved
	case delta > sp.Bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]*result, len(f.Results))
	for _, r := range f.Results {
		byName[r.Workload] = r
	}
	return byName, nil
}

// compareFiles prints one row per workload × metric of two results files, the
// first taken as the parent, and reports whether any row is worse than ok. A
// workload or metric missing from the second file counts as regressed.
func compareFiles(out io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-12s %-26s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra == nil {
			continue
		}
		if rb == nil {
			fmt.Fprintf(out, "%-12s missing from %s: %s\n", w.Name, pathB, verdictRegressed)
			bad = true
			continue
		}
		rows := func(specs []metricSpec, va, vb map[string]metricValue) {
			for _, sp := range specs {
				x, okA := va[sp.Name]
				y, okB := vb[sp.Name]
				if !okA {
					continue
				}
				delta, v := verdict(sp, x, y)
				if !okB {
					v = verdictRegressed
				}
				bound := "-"
				if sp.Bound > 0 {
					bound = fmt.Sprintf("%.1f%%", 100*sp.Bound)
				}
				fmt.Fprintf(out, "%-12s %-26s %14.6g %14.6g %+7.1f%% %7s  %s\n", w.Name, sp.Name, x.Value, y.Value, 100*delta, bound, v)
				bad = bad || v != verdictOK
			}
		}
		rows(endToEndSpecs, ra.EndToEnd, rb.EndToEnd)
		rows(perLayerSpecs, ra.PerLayer, rb.PerLayer)
	}
	return bad, nil
}
