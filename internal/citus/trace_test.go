package citus_test

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/trace"
)

// newTracedCluster builds a 2-worker cluster with always-on tracing (the
// cluster default) and a distributed kv table loaded with a few rows.
func newTracedCluster(t *testing.T) (*cluster.Cluster, *engine.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Workers:               2,
		ShardCount:            8,
		LocalDeadlockInterval: 20 * time.Millisecond,
		Citus:                 citus.Config{DeadlockInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE tkv (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('tkv', 'k')")
	for i := 0; i < 32; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tkv (k, v) VALUES (%d, %d)", i, i*10))
	}
	return c, s
}

// collectKinds buckets spans of one trace by kind.
func collectKinds(spans []trace.Span) map[string][]trace.Span {
	byKind := make(map[string][]trace.Span)
	for _, sp := range spans {
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	return byKind
}

// TestDistributedTraceReassembly runs a multi-shard query through the
// public API and checks that citus_trace() reassembles one coherent trace:
// a coordinator root span, one executor task span per shard, and
// worker-side engine spans, all under the same trace id.
func TestDistributedTraceReassembly(t *testing.T) {
	c, s := newTracedCluster(t)

	mustExec(t, s, "SELECT count(*), sum(v) FROM tkv")
	traceID := s.LastTraceID
	if traceID == 0 {
		t.Fatal("no trace id recorded for the multi-shard query")
	}

	// the UDF view of the trace
	res := mustExec(t, s, fmt.Sprintf("SELECT citus_trace(%d)", traceID))
	if len(res.Columns) == 0 || res.Columns[0] != "trace_id" {
		t.Fatalf("citus_trace columns: %v", res.Columns)
	}
	if len(res.Rows) == 0 {
		t.Fatal("citus_trace returned no spans")
	}
	for _, r := range res.Rows {
		if r[0].(int64) != int64(traceID) {
			t.Fatalf("span from wrong trace: %v", r)
		}
	}

	// the programmatic view, with structural assertions
	spans := c.Coordinator().CollectTrace(traceID)
	if len(spans) != len(res.Rows) {
		t.Fatalf("CollectTrace (%d) and citus_trace (%d) disagree", len(spans), len(res.Rows))
	}
	byKind := collectKinds(spans)
	if got := len(byKind["statement"]); got != 1 {
		t.Fatalf("want exactly 1 root span, got %d", got)
	}
	root := byKind["statement"][0]
	if root.Node != "coordinator" || root.ParentID != 0 {
		t.Fatalf("bad root span: %+v", root)
	}
	if got := len(byKind["task"]); got != 8 {
		t.Fatalf("want one task span per shard (8), got %d", got)
	}
	groups := map[string]bool{}
	for _, task := range byKind["task"] {
		if task.ParentID != root.SpanID {
			t.Fatalf("task span not parented at the root: %+v", task)
		}
		if task.Node != "coordinator" {
			t.Fatalf("task span recorded off-coordinator: %+v", task)
		}
		groups[task.Attrs.Get("shard_group")] = true
	}
	if len(groups) != 8 {
		t.Fatalf("task spans cover %d shard groups, want 8", len(groups))
	}
	workerExec := 0
	taskIDs := map[uint64]bool{}
	for _, task := range byKind["task"] {
		taskIDs[task.SpanID] = true
	}
	for _, sp := range byKind["execute"] {
		if strings.HasPrefix(sp.Node, "worker") && taskIDs[sp.ParentID] {
			workerExec++
		}
	}
	if workerExec != 8 {
		t.Fatalf("want 8 worker execute spans nested under tasks, got %d", workerExec)
	}
}

// TestTraceConcurrentStress is the -race stress test: concurrent traced
// sessions against 2 workers, then per-trace structural checks and the
// bounded-memory assertion on every node's span ring.
func TestTraceConcurrentStress(t *testing.T) {
	c, _ := newTracedCluster(t)

	const goroutines = 8
	const multiShardRuns = 4
	const routerRuns = 12
	traceIDs := make([][]uint64, goroutines) // per goroutine: multi-shard trace ids
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := c.Session()
			for i := 0; i < routerRuns; i++ {
				if _, err := s.Exec("SELECT v FROM tkv WHERE k = $1", int64(i%32)); err != nil {
					errCh <- err
					return
				}
			}
			for i := 0; i < multiShardRuns; i++ {
				if _, err := s.Exec("SELECT count(*) FROM tkv"); err != nil {
					errCh <- err
					return
				}
				traceIDs[g] = append(traceIDs[g], s.LastTraceID)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	coord := c.Coordinator()
	for g := range traceIDs {
		for _, id := range traceIDs[g] {
			byKind := collectKinds(coord.CollectTrace(id))
			if got := len(byKind["statement"]); got != 1 {
				t.Fatalf("trace %d: want exactly 1 root span, got %d", id, got)
			}
			groups := map[string]bool{}
			for _, task := range byKind["task"] {
				groups[task.Attrs.Get("shard_group")] = true
			}
			if len(byKind["task"]) < 8 || len(groups) != 8 {
				t.Fatalf("trace %d: %d task spans over %d shard groups, want ≥8 over 8",
					id, len(byKind["task"]), len(groups))
			}
		}
	}
	// bounded memory: no node's ring ever holds more than its capacity
	for _, eng := range c.Engines {
		if n, capN := eng.Tracer.SpanCount(), eng.Tracer.RingCap(); n > capN {
			t.Fatalf("node %s ring overflow: %d spans > cap %d", eng.Name, n, capN)
		}
	}
}

// timingRE normalizes measured durations so EXPLAIN ANALYZE output is
// comparable across runs.
var timingRE = regexp.MustCompile(`\d+\.\d+ ms`)

func normalizedLines(t *testing.T, res *engine.Result) string {
	t.Helper()
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, timingRE.ReplaceAllString(r[0].(string), "X ms"))
	}
	return strings.Join(lines, "\n")
}

// TestDistributedExplainAnalyzeRouter pins the EXPLAIN ANALYZE output of a
// router query: the first execution analyzes and installs the plan
// (plancache miss, worker-side parse and plan), repeats hit the cache and
// skip the worker's parse and plan (its session keeps both).
func TestDistributedExplainAnalyzeRouter(t *testing.T) {
	_, s := newTracedCluster(t)

	missRes := mustExec(t, s, "EXPLAIN ANALYZE SELECT v FROM tkv WHERE k = 1")
	miss := normalizedLines(t, missRes)
	hitRes := mustExec(t, s, "EXPLAIN ANALYZE SELECT v FROM tkv WHERE k = 1")
	hit := normalizedLines(t, hitRes)

	if !strings.Contains(miss, "plancache miss") {
		t.Fatalf("first execution should be a plancache miss:\n%s", miss)
	}
	if !strings.Contains(hit, "plancache hit") {
		t.Fatalf("second execution should be a plancache hit:\n%s", hit)
	}
	wantHit := strings.TrimSpace(`
Custom Scan (Citus Router)
  Task Count: 1 (cached plan, shard group 0 on node 2)
Distributed Tasks (1):
  Task (shard group 1048576, node 2, plancache hit): rows=1, attempt 1, X ms
    execute on worker1: X ms
Actual Rows: 1
Execution Time: X ms`)
	if hit != wantHit {
		t.Fatalf("router EXPLAIN ANALYZE (hit) mismatch:\ngot:\n%s\nwant:\n%s", hit, wantHit)
	}
}

// TestDistributedExplainAnalyzeMultiShard pins the EXPLAIN ANALYZE output
// of a fan-out aggregate: one timed task line per shard with the worker
// spans nested beneath.
func TestDistributedExplainAnalyzeMultiShard(t *testing.T) {
	_, s := newTracedCluster(t)

	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT count(*) FROM tkv")
	got := normalizedLines(t, res)
	if !strings.Contains(got, "Distributed Tasks (8):") {
		t.Fatalf("want 8 distributed tasks:\n%s", got)
	}
	taskLines := 0
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Task (shard group ") {
			taskLines++
			if !strings.Contains(line, "plancache miss") {
				t.Fatalf("fan-out tasks bypass the router plan cache, line %q", line)
			}
		}
	}
	if taskLines != 8 {
		t.Fatalf("want 8 task lines, got %d:\n%s", taskLines, got)
	}
	if !strings.Contains(got, "execute on worker1: X ms") ||
		!strings.Contains(got, "execute on worker2: X ms") {
		t.Fatalf("worker execute spans missing:\n%s", got)
	}
	if !strings.Contains(got, "Actual Rows: 1") {
		t.Fatalf("merged aggregate should produce one row:\n%s", got)
	}
}

// TestStatActivityJoinsTrace joins citus_stat_activity with citus_trace:
// an open distributed transaction advertises the trace id and span kind of
// its last traced statement, and feeding that id to citus_trace yields the
// statement's spans.
func TestStatActivityJoinsTrace(t *testing.T) {
	_, s := newTracedCluster(t)

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO tkv (k, v) VALUES (100, 1000)")
	traceID := s.LastTraceID
	if traceID == 0 {
		t.Fatal("traced INSERT recorded no trace id")
	}

	// another session observes the open transaction with its trace context
	s2 := mustExec(t, s.Eng.NewSession(), "SELECT citus_stat_activity()")
	idx := map[string]int{}
	for i, col := range s2.Columns {
		idx[col] = i
	}
	for _, col := range []string{"trace_id", "span_kind"} {
		if _, ok := idx[col]; !ok {
			t.Fatalf("citus_stat_activity misses column %s: %v", col, s2.Columns)
		}
	}
	found := false
	for _, r := range s2.Rows {
		if r[idx["trace_id"]].(int64) == int64(traceID) && r[idx["state"]].(string) == "active" {
			found = true
			if kind := r[idx["span_kind"]].(string); kind == "" {
				t.Fatalf("active transaction advertises no span kind: %v", r)
			}
		}
	}
	if !found {
		t.Fatalf("no active transaction advertises trace %d:\n%s", traceID, rowsText(s2))
	}

	// the advertised id resolves to the statement's spans
	spans := mustExec(t, s.Eng.NewSession(), fmt.Sprintf("SELECT citus_trace(%d)", traceID))
	if len(spans.Rows) == 0 {
		t.Fatal("advertised trace id resolves to no spans")
	}
	mustExec(t, s, "COMMIT")
}
