package chaos

import (
	"testing"

	"citusgo/internal/fault"
)

// TestExecutorRetriesTransientReadFailure drops one task response mid-read:
// the adaptive executor must classify the failure as transient transport
// loss, redial, and retry the idempotent read — the statement succeeds and
// the retry counter advances.
func TestExecutorRetriesTransientReadFailure(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("rt")
	keys, _ := h.KeysOnDistinctWorkers("rt", 2)
	h.SeedRows("rt", keys)

	before := CounterSum("executor_task_retries_total")
	// Lose exactly one of the count's task responses.
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
	res := h.MustExec("SELECT count(*) FROM rt")
	if got := fault.Fired(fault.PointWireRecv); got != 1 {
		t.Fatalf("wire.recv fired %d times, want 1", got)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(len(keys)) {
		t.Fatalf("count = %v, want %d (seed %d)", res.Rows, len(keys), h.Seed)
	}
	if delta := CounterSum("executor_task_retries_total") - before; delta < 1 {
		t.Fatalf("executor_task_retries_total advanced by %d, want >= 1", delta)
	}
}

// TestExecutorDoesNotRetryWrites loses a write task's response: the write
// may have taken effect on the worker, so re-running it is not safe — the
// statement must fail and the retry counter must not move.
func TestExecutorDoesNotRetryWrites(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("wt")
	keys, _ := h.KeysOnDistinctWorkers("wt", 2)
	h.SeedRows("wt", keys)

	before := CounterSum("executor_task_retries_total")
	// An autocommit single-shard UPDATE is one task and nothing else on the
	// wire; lose its response.
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
	_, err := h.S.Exec("UPDATE wt SET v = $1 WHERE k = $2", int64(5), keys[0])
	if err == nil {
		t.Fatalf("write succeeded despite losing its response (seed %d)", h.Seed)
	}
	if got := fault.Fired(fault.PointWireRecv); got != 1 {
		t.Fatalf("wire.recv fired %d times, want 1", got)
	}
	if delta := CounterSum("executor_task_retries_total") - before; delta != 0 {
		t.Fatalf("executor_task_retries_total advanced by %d on a write, want 0", delta)
	}
}

// TestExecutorRetryGivesUpEventually keeps dropping responses: the retry
// loop is bounded, so the read ultimately fails instead of spinning.
func TestExecutorRetryGivesUpEventually(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("gt")
	keys, _ := h.KeysOnDistinctWorkers("gt", 2)
	h.SeedRows("gt", keys)

	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn})
	_, err := h.S.Exec("SELECT count(*) FROM gt")
	fault.Disarm(fault.PointWireRecv)
	if err == nil {
		t.Fatalf("read succeeded with every response dropped (seed %d)", h.Seed)
	}
	// The cluster is healthy again once the rule is disarmed.
	res := h.MustExec("SELECT count(*) FROM gt")
	if res.Rows[0][0].(int64) != int64(len(keys)) {
		t.Fatalf("post-fault count = %v, want %d", res.Rows, len(keys))
	}
}
