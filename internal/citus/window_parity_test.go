package citus_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/types"
)

// TestPipelineWindowParity pins that PipelineWindow changes how many
// requests share a flight and nothing else: the same statements, run at
// window 1 (serial issue) and window 8 over a shared connection limit of 2,
// return the same rows and errors and move pool_discards_total and
// executor_task_retries_total by the same amounts step for step — over
// in-process socket pairs and over real TCP, a window one write each way on
// both, and the two agree with each other as well. A two-node
// transaction of one-task statements also moves engine_statements_total by
// the same amounts, the count of a transaction's requests (a statement for
// each, and one for each block opened): no window adds a request of its own.
// The permitted differences are the batch counter, which must stay 0 at
// window 1, and the counters of the step that drops a connection under a
// multi-task window, where window 8 also retries the poisoned neighbours.
func TestPipelineWindowParity(t *testing.T) {
	defer fault.Reset()
	type step struct {
		name string
		run  func(t *testing.T, s *engine.Session) string
	}
	const droppedInWindow = "fan-out, response dropped inside the window" // the rowsOnly step
	query := func(q string, params ...types.Datum) func(*testing.T, *engine.Session) string {
		return func(t *testing.T, s *engine.Session) string {
			res, err := s.Exec(q, params...)
			if errors.Is(err, fault.ErrInjected) {
				// the wrapping names the node the fault happened to land on
				return "error: injected"
			}
			if err != nil {
				return "error: " + err.Error()
			}
			return res.Tag + " " + rowsText(res)
		}
	}
	var keyA, keyB int64 // on distinct workers; found once the table exists
	onKey := func(q string, v int64, key *int64) func(*testing.T, *engine.Session) string {
		return func(t *testing.T, s *engine.Session) string { return query(q, v, *key)(t, s) }
	}
	armed := func(r fault.Rule, run func(*testing.T, *engine.Session) string) func(*testing.T, *engine.Session) string {
		return func(t *testing.T, s *engine.Session) string {
			fault.Arm(r)
			defer fault.Reset()
			out := run(t, s)
			if fault.Fired(r.Point) != 1 {
				t.Errorf("fault at %s fired %d times, want 1", r.Point, fault.Fired(r.Point))
			}
			return out
		}
	}
	steps := []step{
		{"copy", func(t *testing.T, s *engine.Session) string {
			rows := make([]types.Row, 0, 64)
			for k := int64(0); k < 64; k++ {
				rows = append(rows, types.Row{k, k * 3})
			}
			n, err := s.CopyFrom("wp", []string{"k", "v"}, rows)
			return fmt.Sprint(n, err)
		}},
		{"autocommit fan-out", query("SELECT count(*), sum(v) FROM wp")},
		{"fan-out rows", query("SELECT k, v FROM wp WHERE v % 2 = 0 ORDER BY k")},
		{"multi-shard update", query("UPDATE wp SET v = v + 1 WHERE k >= 8")},
		{"txn begin", query("BEGIN")},
		{"txn write", query("UPDATE wp SET v = 1000 WHERE k = $1", int64(5))},
		{"txn read own write", query("SELECT v FROM wp WHERE k = $1", int64(5))},
		{"txn multi-shard update", query("UPDATE wp SET v = v + 10")},
		{"txn fan-out", query("SELECT count(*), sum(v) FROM wp")},
		{"txn commit", query("COMMIT")},
		{"after commit", query("SELECT k, v FROM wp ORDER BY k LIMIT 8")},
		{"txn2 begin", query("BEGIN")},
		{"txn2 write on one worker", onKey("UPDATE wp SET v = $1 WHERE k = $2", 7, &keyA)},
		{"txn2 write on the other", onKey("UPDATE wp SET v = $1 WHERE k = $2", 7, &keyB)},
		{"txn2 commit", query("COMMIT")},
		{"read, response dropped", armed(
			fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1},
			query("SELECT v FROM wp WHERE k = $1", int64(9)))},
		{"write, response lost", armed(
			fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActError, Count: 1},
			query("UPDATE wp SET v = 0 WHERE k = $1", int64(9)))},
		{"read, fault at issue", armed(
			fault.Rule{Point: fault.PointExecutorTask, Key: "read", Action: fault.ActError, Count: 1},
			query("SELECT v FROM wp WHERE k = $1", int64(9)))},
		{"write, fault at issue", armed(
			fault.Rule{Point: fault.PointExecutorTask, Key: "write", Action: fault.ActError, Count: 1},
			query("UPDATE wp SET v = 1 WHERE k = $1", int64(9)))},
		{"fan-out, fault at issue inside the window", armed(
			fault.Rule{Point: fault.PointExecutorTask, Key: "read", Action: fault.ActError, After: 3, Count: 1},
			query("SELECT count(*), sum(v) FROM wp"))},
		{"multi-shard update, fault at issue inside the window", armed(
			fault.Rule{Point: fault.PointExecutorTask, Key: "write", Action: fault.ActError, After: 3, Count: 1},
			query("UPDATE wp SET v = v + 100"))},
		{droppedInWindow, armed(
			fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, After: 3, Count: 1},
			query("SELECT count(*), sum(v) FROM wp"))},
		{"after faults", query("SELECT count(*), sum(v) FROM wp")},
	}

	counters := []string{"pool_discards_total", "executor_task_retries_total"}
	runAt := func(window int, tcp bool) (trace []string, batches int64) {
		fault.Reset()
		c, err := cluster.New(cluster.Config{
			Workers: 2, ShardCount: 16, UseTCP: tcp,
			Citus: citus.Config{MaxSharedPoolSize: 2, PipelineWindow: window, DeadlockInterval: -1, RecoveryInterval: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := c.Session()
		mustExec(t, s, "CREATE TABLE wp (k bigint PRIMARY KEY, v bigint)")
		mustExec(t, s, "SELECT create_distributed_table('wp', 'k')")
		keys := keysOnNodes(t, c, "wp", 2, 3)
		keyA, keyB = keys[0], keys[1]
		start := obs.Default().Snapshot()
		for _, st := range steps {
			pre := obs.Default().Snapshot()
			line := st.name + ": " + st.run(t, s)
			post := obs.Default().Snapshot()
			for _, name := range counters {
				if st.name == droppedInWindow {
					break
				}
				line += fmt.Sprintf(" %s+%d", name, post.Sum(name)-pre.Sum(name))
			}
			if strings.HasPrefix(st.name, "txn2") {
				line += fmt.Sprintf(" engine_statements_total+%d", post.Sum("engine_statements_total")-pre.Sum("engine_statements_total"))
			}
			trace = append(trace, line)
		}
		return trace, obs.Default().Snapshot().Sum("wire_pipeline_batches_total") - start.Sum("wire_pipeline_batches_total")
	}

	serial, serialBatches := runAt(1, false)
	for _, tcp := range []bool{false, true} {
		other, otherBatches := serial, serialBatches
		if tcp {
			other, otherBatches = runAt(1, true)
		}
		piped, pipedBatches := runAt(8, tcp)
		for i := range steps {
			if serial[i] != other[i] || serial[i] != piped[i] {
				t.Errorf("tcp=%v: window 1 in process, window 1 and window 8 diverge:\n  1: %s\n  1: %s\n  8: %s", tcp, serial[i], other[i], piped[i])
			}
		}
		if otherBatches != 0 {
			t.Errorf("tcp=%v: window 1 flushed %d pipelined batches, want 0", tcp, otherBatches)
		}
		if pipedBatches <= 0 {
			t.Errorf("tcp=%v: window 8 flushed no pipelined batch", tcp)
		}
	}
	// The faults did what the test says they did.
	for _, want := range []struct{ step, suffix string }{
		{"read, response dropped", " pool_discards_total+1 executor_task_retries_total+1"},
		{"write, response lost", " pool_discards_total+1 executor_task_retries_total+0"},
		{"read, fault at issue", "error: injected pool_discards_total+0 executor_task_retries_total+0"},
		{"write, fault at issue", "error: injected pool_discards_total+0 executor_task_retries_total+0"},
		{"fan-out, fault at issue inside the window", "error: injected pool_discards_total+0 executor_task_retries_total+0"},
		{"multi-shard update, fault at issue inside the window", "error: injected pool_discards_total+0 executor_task_retries_total+0"},
		// The round-trip budget in statements: the coordinator's own, plus on
		// the worker the block's open and the UPDATE, in one request; then the
		// coordinator's COMMIT, two PREPARE TRANSACTIONs, two COMMIT PREPAREDs.
		{"txn2 write on one worker", " engine_statements_total+3"},
		{"txn2 write on the other", " engine_statements_total+3"},
		{"txn2 commit", " engine_statements_total+5"},
	} {
		for i, st := range steps {
			if st.name == want.step && !strings.HasSuffix(serial[i], want.suffix) {
				t.Errorf("%s: counters %q, want suffix %q", st.name, serial[i], want.suffix)
			}
		}
	}
}

// TestIssueFaultNeverDropsTasks arms executor.task at every position of a
// replicated 16-shard fan-out. Reads alternate between primaries and
// standbys, so the faulted task is often rescued by the primary fallback;
// the tasks behind it in its window are not, and the statement must then
// fail rather than aggregate over the shards that did run.
func TestIssueFaultNeverDropsTasks(t *testing.T) {
	defer fault.Reset()
	for _, window := range []int{1, 8} {
		fault.Reset()
		c, err := cluster.New(cluster.Config{
			Workers:           2,
			ShardCount:        16,
			ReplicationFactor: 1,
			ReplicationMode:   repl.ModeSync,
			Citus:             citus.Config{MaxSharedPoolSize: 1, PipelineWindow: window, DeadlockInterval: -1, RecoveryInterval: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := c.Session()
		mustExec(t, s, "CREATE TABLE nf (k bigint PRIMARY KEY, v bigint)")
		mustExec(t, s, "SELECT create_distributed_table('nf', 'k')")
		rows := make([]types.Row, 0, 200)
		for k := int64(0); k < 200; k++ {
			rows = append(rows, types.Row{k, k})
		}
		if _, err := s.CopyFrom("nf", []string{"k", "v"}, rows); err != nil {
			t.Fatal(err)
		}
		rescued, failed := 0, 0
		for after := 0; after < 16; after++ {
			fault.Arm(fault.Rule{Point: fault.PointExecutorTask, Key: "read", Action: fault.ActError, After: after, Count: 1})
			res, err := s.Exec("SELECT count(*) FROM nf")
			fault.Reset()
			switch {
			case err != nil:
				failed++
			case rowsText(res) == "200":
				rescued++
			default:
				t.Errorf("window %d, fault at task %d: count = %s with no error, want 200 or an error", window, after, rowsText(res))
			}
		}
		t.Logf("window %d: %d statements rescued by the primary fallback, %d failed", window, rescued, failed)
		// At window 8 only a fault on the last task of a window can be rescued.
		if failed == 0 || (window == 1 && rescued == 0) {
			t.Errorf("window %d: rescued %d, failed %d: want both outcomes exercised", window, rescued, failed)
		}
		c.Close()
	}
}
