// Package trace is the always-on distributed tracing subsystem: every
// statement entering a coordinator gets a TraceID and a root span, the
// adaptive executor opens one child span per task, and the wire protocol
// carries the trace context on every Request so worker-side engine
// execution (parse/plan/execute, lock-wait, WAL fsync) records its own
// spans under the same trace. This is the per-query counterpart to the
// aggregate metrics in internal/obs and the reproduction of the
// operability story the Citus paper builds on citus_stat_activity and
// distributed EXPLAIN (§5–6): once a query fans out into tasks, its
// identity survives the hop so a slow statement can be reassembled
// across nodes.
//
// Spans land in a per-node bounded ring buffer (constant memory, old
// spans are overwritten). The coordinator reassembles a trace on demand
// via the citus_trace(trace_id) UDF, which fetches remote spans over the
// wire exactly like citus_node_stat_activity fetches activity rows.
// Completed root spans feed an obs histogram per span kind and, when the
// slow-query log is enabled, traces whose root exceeds SlowThreshold are
// emitted to the process log.
//
// The design keeps the hot path cheap: a traced statement costs two
// time.Now calls and one mutex-guarded ring append per span, spans are
// only created when a tracer is installed and the statement is sampled,
// and all ActiveSpan/Tracer methods are nil-safe so untraced paths pay a
// single nil check.
package trace

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/obs"
)

// Span is one timed unit of work attributed to a trace. All fields are
// exported: the wire codec (internal/wire) carries every one of them.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for the root span
	NodeID   int
	Node     string // node name ("coordinator", "worker1", ...)
	Kind     string // "statement", "task", "execute", "parse", "plan", ...
	Label    string // statement text or task SQL, truncated
	Attrs    Attrs
	Start    time.Time
	Duration time.Duration
}

// Attr is one key/value span annotation. Annotations live in a small
// slice rather than a map: spans carry at most a handful, and the hot
// path (one task span per routed statement) should pay one slice
// allocation, not a map.
type Attr struct{ K, V string }

// Attrs is a span's annotation list, in insertion order.
type Attrs []Attr

// Get returns the value for a key ("" when absent).
func (a Attrs) Get(k string) string {
	for _, kv := range a {
		if kv.K == k {
			return kv.V
		}
	}
	return ""
}

// Config tunes a node's tracer. The zero value means: trace every
// statement, keep 4096 spans per node, no slow-query log.
type Config struct {
	// SampleRate is the fraction of root statements traced (0 means 1.0,
	// i.e. always on; negative disables tracing entirely). Sampling is
	// deterministic — every ceil(1/rate)-th statement is traced — so a
	// steady workload yields a steady stream of traces.
	SampleRate float64
	// RingSize is the per-node span ring capacity (0 means 4096).
	RingSize int
	// SlowLog enables the slow-query log: completed traces whose root
	// span's duration is >= SlowThreshold are emitted to Logf.
	SlowLog bool
	// SlowThreshold is the slow-log cutoff; 0 logs every completed trace.
	SlowThreshold time.Duration
	// Logf receives slow-trace lines (nil means log.Printf).
	Logf func(format string, args ...any)
}

const (
	defaultRingSize = 4096
	maxLabelLen     = 200
	// maxSlowLogSpans bounds how many span detail lines one slow trace
	// emits to the log.
	maxSlowLogSpans = 12
	// maxSpanAttrs is the per-span annotation capacity. Attrs beyond it
	// are dropped — the richest span today (vec_scan) sets exactly seven:
	// batches, rows, stripes_skipped, parallelism, groups, group_batches,
	// bound_rows.
	maxSpanAttrs = 7
)

var (
	metSpanDur = obs.Default().Histogram("trace_span_duration_ns",
		"span duration by kind", nil, "kind")
	metSlowTraces = obs.Default().Counter("trace_slow_emitted_total",
		"traces emitted to the slow-query log").With()
	metSampledOut = obs.Default().Counter("trace_sampled_out_total",
		"root statements skipped by trace sampling").With()
)

// spanDurByKind pre-resolves the per-kind duration histograms for every
// span kind the system emits, so Finish does a read-only map lookup
// instead of taking the obs registry lock on each span. Unknown kinds
// (none today) fall back to the locked path.
var spanDurByKind = func() map[string]*obs.Histogram {
	kinds := []string{"statement", "task", "execute", "parse", "plan",
		"lock_wait", "wal_fsync", "2pc_prepare", "2pc_resolve"}
	m := make(map[string]*obs.Histogram, len(kinds))
	for _, k := range kinds {
		m[k] = metSpanDur.With(k)
	}
	return m
}()

func observeSpanDur(kind string, d time.Duration) {
	h, ok := spanDurByKind[kind]
	if !ok {
		h = metSpanDur.With(kind)
	}
	h.Observe(int64(d))
}

// Tracer mints IDs and records spans for one node. A nil *Tracer is
// valid and records nothing.
type Tracer struct {
	nodeID int
	node   string
	cfg    Config
	// sampleMod is ceil(1/SampleRate); 1 traces everything, 0 disables.
	sampleMod uint64
	seq       atomic.Uint64
	sampleCtr atomic.Uint64

	mu   sync.Mutex
	ring []Span
	// ringAttrs is per-slot annotation storage owned by the ring: record
	// copies a span's attrs in so the hot path never allocates. Collect
	// deep-copies attrs out, since a slot's storage is reused when the
	// ring wraps.
	ringAttrs [][maxSpanAttrs]Attr
	next      int // next write position
	size      int // live entries, <= cap(ring)
}

// New creates a tracer for the given node. nodeID must be < 2^15 so
// trace/span IDs stay positive int64s (they surface as bigint datums).
func New(nodeID int, node string, cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	t := &Tracer{nodeID: nodeID, node: node, cfg: cfg}
	switch {
	case cfg.SampleRate < 0:
		t.sampleMod = 0 // disabled
	case cfg.SampleRate == 0 || cfg.SampleRate >= 1:
		t.sampleMod = 1
	default:
		t.sampleMod = uint64(1/cfg.SampleRate + 0.5)
		if t.sampleMod == 0 {
			t.sampleMod = 1
		}
	}
	return t
}

// nextID mints a cluster-unique, positive ID: node in the top 15 bits,
// a per-node counter below.
func (t *Tracer) nextID() uint64 {
	return uint64(t.nodeID&0x7fff)<<48 | (t.seq.Add(1) & 0xffffffffffff)
}

// ActiveSpan is an in-flight span. A nil *ActiveSpan is valid and all
// methods on it are no-ops, so callers never branch on sampling.
// Finish ends the span's lifecycle and recycles the wrapper — read
// TraceID/SpanID before Finish, never after.
type ActiveSpan struct {
	t    *Tracer
	span Span
	root bool
	// attrs accumulate in a fixed array (no allocation); record copies
	// them into the ring's per-slot storage at Finish.
	nattr int
	attrs [maxSpanAttrs]Attr
}

// StartRoot begins a new trace with a root span of kind "statement",
// subject to sampling. Returns nil when the statement is sampled out or
// tracing is disabled.
func (t *Tracer) StartRoot(label string) *ActiveSpan {
	if t == nil || t.sampleMod == 0 {
		return nil
	}
	if t.sampleMod > 1 && t.sampleCtr.Add(1)%t.sampleMod != 1 {
		metSampledOut.Inc()
		return nil
	}
	id := t.nextID()
	return t.start(id, id, 0, "statement", label)
}

// ForceRoot begins a new trace bypassing sampling — EXPLAIN ANALYZE uses
// this so per-task timings are always available.
func (t *Tracer) ForceRoot(label string) *ActiveSpan {
	if t == nil {
		return nil
	}
	id := t.nextID()
	return t.start(id, id, 0, "statement", label)
}

// StartSpan begins a child span in an existing trace. Returns nil when
// the tracer is nil or traceID is zero (untraced request).
func (t *Tracer) StartSpan(traceID, parentID uint64, kind, label string) *ActiveSpan {
	if t == nil || traceID == 0 {
		return nil
	}
	return t.start(traceID, t.nextID(), parentID, kind, label)
}

// spanPool recycles ActiveSpans: a span's lifecycle ends at Finish
// (record copies the Span value into the ring), so the wrapper itself
// can be reused. Callers must not touch an ActiveSpan after Finish.
var spanPool = sync.Pool{New: func() any { return new(ActiveSpan) }}

func (t *Tracer) start(traceID, spanID, parentID uint64, kind, label string) *ActiveSpan {
	if len(label) > maxLabelLen {
		label = label[:maxLabelLen] + "…"
	}
	sp := spanPool.Get().(*ActiveSpan)
	sp.t = t
	sp.root = parentID == 0
	sp.nattr = 0
	sp.span = Span{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		NodeID:   t.nodeID,
		Node:     t.node,
		Kind:     kind,
		Label:    label,
		Start:    time.Now(),
	}
	return sp
}

// TraceID returns the span's trace ID (0 on nil).
func (sp *ActiveSpan) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.span.TraceID
}

// SpanID returns the span's ID (0 on nil).
func (sp *ActiveSpan) SpanID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.span.SpanID
}

// SetAttr attaches a key/value annotation, replacing any existing value
// for the key (no-op on nil; silently dropped beyond maxSpanAttrs keys).
func (sp *ActiveSpan) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	for i := 0; i < sp.nattr; i++ {
		if sp.attrs[i].K == k {
			sp.attrs[i].V = v
			return
		}
	}
	if sp.nattr < maxSpanAttrs {
		sp.attrs[sp.nattr] = Attr{K: k, V: v}
		sp.nattr++
	}
}

// SetKind overrides the span kind (no-op on nil).
func (sp *ActiveSpan) SetKind(kind string) {
	if sp == nil {
		return
	}
	sp.span.Kind = kind
}

// Finish stamps the duration, records the span into the node ring and
// the per-kind obs histogram, and — for root spans — feeds the
// slow-query log and the process-wide slowest-trace record.
func (sp *ActiveSpan) Finish() {
	if sp == nil {
		return
	}
	sp.span.Duration = time.Since(sp.span.Start)
	sp.t.record(sp.span, sp.attrs[:sp.nattr])
	observeSpanDur(sp.span.Kind, sp.span.Duration)
	if sp.root {
		root := sp.span
		if sp.nattr > 0 {
			root.Attrs = append(Attrs(nil), sp.attrs[:sp.nattr]...)
		}
		recordSlowest(root)
		if sp.t.cfg.SlowLog && root.Duration >= sp.t.cfg.SlowThreshold {
			sp.t.emitSlow(root)
		}
	}
	// Release the wrapper. start() reassigns the whole Span and resets
	// the attr count on reuse; nil out the tracer so a use-after-Finish
	// fails loudly.
	sp.t = nil
	spanPool.Put(sp)
}

func (t *Tracer) record(s Span, attrs []Attr) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Span, t.cfg.RingSize)
		t.ringAttrs = make([][maxSpanAttrs]Attr, t.cfg.RingSize)
	}
	if len(attrs) > 0 {
		n := copy(t.ringAttrs[t.next][:], attrs)
		s.Attrs = Attrs(t.ringAttrs[t.next][:n:n])
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
}

// Collect returns every span of the given trace still present in this
// node's ring, ordered by start time. Attrs are deep-copied — the ring
// reuses its per-slot attr storage when it wraps.
func (t *Tracer) Collect(traceID uint64) []Span {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	var out []Span
	for i := 0; i < t.size; i++ {
		if t.ring[i].TraceID == traceID {
			sp := t.ring[i]
			if len(sp.Attrs) > 0 {
				sp.Attrs = append(Attrs(nil), sp.Attrs...)
			}
			out = append(out, sp)
		}
	}
	t.mu.Unlock()
	SortSpans(out)
	return out
}

// Dump returns a copy of every span currently in the ring, ordered by
// start time — the post-mortem artifact a failing chaos run writes out.
func (t *Tracer) Dump() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, t.size)
	for i := 0; i < t.size; i++ {
		sp := t.ring[i]
		if len(sp.Attrs) > 0 {
			sp.Attrs = append(Attrs(nil), sp.Attrs...)
		}
		out = append(out, sp)
	}
	t.mu.Unlock()
	SortSpans(out)
	return out
}

// SpanCount returns the number of live spans in the ring (always
// <= RingCap — the bounded-memory invariant).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// RingCap returns the ring capacity.
func (t *Tracer) RingCap() int {
	if t == nil {
		return 0
	}
	return t.cfg.RingSize
}

// SortSpans orders spans by start time (ties broken by span ID) —
// the canonical presentation order for a reassembled trace.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// emitSlow writes a completed slow trace to the log: one header line
// (grep-able by "slow-trace") plus up to maxSlowLogSpans span lines from
// this node's ring. Remote spans are not fetched here — the header's
// trace ID feeds citus_trace() for the full cross-node picture.
func (t *Tracer) emitSlow(root Span) {
	metSlowTraces.Inc()
	spans := t.Collect(root.TraceID)
	t.cfg.Logf("slow-trace node=%s trace=%d dur=%s spans=%d stmt=%q",
		t.node, int64(root.TraceID), root.Duration, len(spans), root.Label)
	for i, s := range spans {
		if i == maxSlowLogSpans {
			t.cfg.Logf("slow-trace   … %d more spans", len(spans)-i)
			break
		}
		if s.SpanID == root.SpanID {
			continue
		}
		t.cfg.Logf("slow-trace   %s %s %s%s", s.Kind, s.Duration, s.Label, formatAttrs(s.Attrs))
	}
}

func formatAttrs(attrs Attrs) string {
	if len(attrs) == 0 {
		return ""
	}
	sorted := make(Attrs, len(attrs))
	copy(sorted, attrs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	out := " ["
	for i, kv := range sorted {
		if i > 0 {
			out += " "
		}
		out += kv.K + "=" + kv.V
	}
	return out + "]"
}

// FormatAttrs renders a span's attributes as a stable " [k=v ...]"
// suffix ("" when empty) — shared by the slow log, the citus_trace UDF,
// and EXPLAIN ANALYZE output.
func FormatAttrs(attrs Attrs) string { return formatAttrs(attrs) }

// ---------------------------------------------------------------------------
// Slowest-trace record (process-wide; citusbench prints it at end of run)

var slowest struct {
	mu   sync.Mutex
	ok   bool
	span Span
}

func recordSlowest(root Span) {
	slowest.mu.Lock()
	if !slowest.ok || root.Duration > slowest.span.Duration {
		slowest.span = root
		slowest.ok = true
	}
	slowest.mu.Unlock()
}

// Slowest returns the slowest root span completed process-wide since the
// last ResetSlowest (ok=false when none).
func Slowest() (root Span, ok bool) {
	slowest.mu.Lock()
	defer slowest.mu.Unlock()
	return slowest.span, slowest.ok
}

// ResetSlowest clears the slowest-trace record (start of a bench run).
func ResetSlowest() {
	slowest.mu.Lock()
	slowest.ok = false
	slowest.span = Span{}
	slowest.mu.Unlock()
}

// FormatSpan renders one span as a human-readable line.
func FormatSpan(s Span) string {
	return fmt.Sprintf("trace=%d span=%d parent=%d node=%s kind=%s dur=%s label=%q%s",
		int64(s.TraceID), int64(s.SpanID), int64(s.ParentID), s.Node, s.Kind, s.Duration, s.Label, formatAttrs(s.Attrs))
}
