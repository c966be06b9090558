package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one record of the benchmark's own tracer: it is taken around a
// call into the program (one client statement) or around the operation
// that issued those statements. Times are nanoseconds since the
// repetition's measured phase began. Spans of one operation share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an operation span
	Op     int64  `json:"op"`
	Client int    `json:"client"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once (the union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - coveredBy(s.Start, s.End, children[s.ID])
	}
	return out
}

// coveredBy is the length of the union of the children's intervals
// inside [start, end].
func coveredBy(start, end int64, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var covered int64
	cur := start
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return covered
}

// spanSummary folds spans by name: how many, their total time and their
// total self time. It heads the trace file so the file explains itself.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SumMs  float64 `json:"sum_ms"`
	SelfMs float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		e := byName[s.Name]
		if e == nil {
			e = &spanSummary{Name: s.Name}
			byName[s.Name] = e
		}
		e.Count++
		e.SumMs += float64(s.End-s.Start) / 1e6
		e.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, e := range byName {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeTrace writes a workload's spans, kept in memory during the run, to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summarizeSpans(spans), spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
