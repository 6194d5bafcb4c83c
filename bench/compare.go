package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readOut(path string) (map[string]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc outFile
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runs := map[string]record{}
	for _, r := range doc.Runs {
		if !r.Trace {
			runs[r.Workload] = r
		}
	}
	return runs, nil
}

// compareFiles prints, for every workload and end-to-end metric both files
// hold, the two values, the change in the metric's worse direction as a share
// of a's value, and a verdict against the metric's bound: REGRESSED when b is
// worse than a by more than the bound, UNRESOLVED when it is but either run's
// own window-to-window spread is wider than the bound, PASS otherwise. It
// returns 1 when anything regressed.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	var runs [2]map[string]record
	for i, path := range [2]string{a, b} {
		var err error
		if runs[i], err = readOut(path); err != nil {
			fmt.Fprintln(stderr, "lobmark:", err)
			return 2
		}
	}
	return compareRuns(runs[0], runs[1], stdout)
}

func compareRuns(ra, rb map[string]record, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-11s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloads {
		x, okA := ra[w.name]
		y, okB := rb[w.name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := x.Metrics[d.Name], y.Metrics[d.Name]
			worse := (vb - va) / math.Abs(va)
			if d.Better == higher {
				worse = -worse
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict = "REGRESSED"
				if math.Max(x.Spread[d.Name], y.Spread[d.Name]) > d.Bound {
					verdict = "UNRESOLVED"
				} else {
					code = 1
				}
			}
			fmt.Fprintf(stdout, "%-11s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", w.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
