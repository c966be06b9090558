package citus

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/trace"
	"citusgo/internal/types"
)

// Trace reassembly: spans are recorded in per-node ring buffers (the
// coordinator's own engine plus every worker's), and the coordinator pulls
// the remote rings over the wire — the same gather pattern as
// citus_stat_activity — to rebuild one distributed trace.

// CollectTrace gathers every span recorded for a trace across the cluster
// and returns them in start order: the coordinator's root and task spans
// plus each worker's engine spans (parse/plan/execute/lock_wait/wal_fsync),
// all sharing the trace id the wire header propagated.
func (n *Node) CollectTrace(traceID uint64) []trace.Span {
	spans := n.Eng.Tracer.Collect(traceID)
	for _, node := range n.Meta.Nodes() {
		if node.ID == n.ID {
			continue
		}
		// a node that cannot be asked leaves its spans out: the trace is
		// an observation, and EXPLAIN ANALYZE must not fail for it
		if res, err := n.callNode(node.ID, "citus_node_trace_spans", "SELECT citus_node_trace_spans($1)", int64(traceID)); err == nil {
			spans = append(spans, parseSpans(res.Rows)...)
		}
	}
	trace.SortSpans(spans)
	return spans
}

var traceColumns = []string{"trace_id", "span_id", "parent_id", "node", "kind", "label", "duration_us", "attrs"}

// traceRows is citus_trace's relation: one row per span of the reassembled
// distributed trace.
func traceRows(spans []trace.Span) []types.Row {
	rows := make([]types.Row, 0, len(spans))
	for _, sp := range spans {
		rows = append(rows, types.Row{
			int64(sp.TraceID), int64(sp.SpanID), int64(sp.ParentID),
			sp.Node, sp.Kind, sp.Label,
			sp.Duration.Microseconds(),
			strings.TrimSpace(trace.FormatAttrs(sp.Attrs)),
		})
	}
	return rows
}

var spanColumns = []string{"trace_id", "span_id", "parent_id", "node_id", "node", "kind", "label", "attrs", "start", "duration_ns"}

// spanRows is citus_node_trace_spans' relation: every field of each span.
// The attributes travel as one jsonb array of [key, value] pairs, which
// keeps their order, duplicate keys and any bytes in them.
func spanRows(spans []trace.Span) []types.Row {
	rows := make([]types.Row, 0, len(spans))
	for _, sp := range spans {
		attrs := make([]any, len(sp.Attrs))
		for i, a := range sp.Attrs {
			attrs[i] = []string{a.K, a.V}
		}
		rows = append(rows, types.Row{
			int64(sp.TraceID), int64(sp.SpanID), int64(sp.ParentID), int64(sp.NodeID),
			sp.Node, sp.Kind, sp.Label, jsonb.FromGo(attrs), sp.Start, int64(sp.Duration),
		})
	}
	return rows
}

// parseSpans reads spanRows back.
func parseSpans(rows []types.Row) []trace.Span {
	spans := make([]trace.Span, len(rows))
	for i, r := range rows {
		spans[i] = trace.Span{
			TraceID: uint64(r[0].(int64)), SpanID: uint64(r[1].(int64)), ParentID: uint64(r[2].(int64)),
			NodeID: int(r[3].(int64)), Node: r[4].(string), Kind: r[5].(string), Label: r[6].(string),
			Start: r[8].(time.Time), Duration: time.Duration(r[9].(int64)),
		}
		attrs := r[7].(jsonb.Value)
		na, _ := attrs.ArrayLength()
		for j := 0; j < na; j++ {
			pair, _ := attrs.Index(j)
			k, _ := pair.Index(0)
			v, _ := pair.Index(1)
			ks, _ := k.Text()
			vs, _ := v.Text()
			spans[i].Attrs = append(spans[i].Attrs, trace.Attr{K: ks, V: vs})
		}
	}
	return spans
}

// ExplainAnalyzeLines implements engine.ExplainAnalyzer: after the traced
// execution, reassemble the trace and render one timed line per executor
// task, with the worker-side spans indented beneath the task that carried
// them. Tasks sort by shard group then node so the output is stable across
// runs (wall-clock ordering of concurrent tasks is not).
func (p *distPlan) ExplainAnalyzeLines(traceID uint64) []string {
	spans := p.node.CollectTrace(traceID)
	children := make(map[uint64][]trace.Span)
	var tasks []trace.Span
	for _, sp := range spans {
		if sp.Kind == "task" {
			tasks = append(tasks, sp)
		} else if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	if len(tasks) == 0 {
		return nil
	}
	sort.SliceStable(tasks, func(i, j int) bool {
		gi, _ := strconv.ParseInt(tasks[i].Attrs.Get("shard_group"), 10, 64)
		gj, _ := strconv.ParseInt(tasks[j].Attrs.Get("shard_group"), 10, 64)
		if gi != gj {
			return gi < gj
		}
		return tasks[i].Attrs.Get("node") < tasks[j].Attrs.Get("node")
	})
	ms := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / 1e6
	}
	var lines []string
	var render func(parent uint64, indent string)
	render = func(parent uint64, indent string) {
		for _, c := range children[parent] {
			lines = append(lines, fmt.Sprintf("%s%s on %s: %.3f ms", indent, c.Kind, c.Node, ms(c.Duration)))
			render(c.SpanID, indent+"  ")
		}
	}
	lines = append(lines, fmt.Sprintf("Distributed Tasks (%d):", len(tasks)))
	for _, t := range tasks {
		lines = append(lines, fmt.Sprintf("  Task (shard group %s, node %s, plancache %s): rows=%s, attempt %s, %.3f ms",
			t.Attrs.Get("shard_group"), t.Attrs.Get("node"), t.Attrs.Get("plancache"),
			t.Attrs.Get("rows"), t.Attrs.Get("attempt"), ms(t.Duration)))
		render(t.SpanID, "    ")
	}
	return lines
}
