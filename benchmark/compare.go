package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares one metric of two result sets a (the base) and b.
// better/worse mean the medians differ by more than the metric's bound in
// that direction; a spread (max-min over the median) wider than the bound
// on either side means the runs cannot tell, so the pair is unresolved.
func verdict(d metricDef, a, b measured) string {
	if spreadOf(a) > d.Bound || spreadOf(b) > d.Bound {
		return "unresolved"
	}
	change := ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "within-bound"
}

func spreadOf(m measured) float64 { return ratio(m.Max-m.Min, m.Value) }

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns an error when any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	fmt.Fprintf(w, "%-17s %-10s %14s %8s %14s %8s %12s  %s\n",
		"workload", "metric", "a median", "a spread", "b median", "b spread", "b/a", "verdict")
	byName := make(map[string]*workloadResult)
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	worse := 0
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%-17s missing from %s\n", ra.Workload, pathB)
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			v := verdict(d, ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-17s %-10s %14.3f %7.1f%% %14.3f %7.1f%% %7.3f of a  %s\n",
				ra.Workload, d.Name, ma.Value, 100*spreadOf(ma), mb.Value, 100*spreadOf(mb),
				ratio(mb.Value, ma.Value), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse in %s than in %s", worse, pathB, pathA)
	}
	return nil
}
