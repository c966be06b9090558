package citus_test

import (
	"regexp"
	"strconv"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
)

// TestFailedShipmentLeavesNothing fails each append of a broadcast join, a
// repartition join and a subquery's subplan in turn: at issue (executor.task,
// key "result") and by dropping its response after the worker appended
// (wire.recv, key "append_result"). Each time the statement fails, no append
// is retried, no intermediate result survives on any engine, and the
// session's next statement gets the whole answer, no row twice.
func TestFailedShipmentLeavesNothing(t *testing.T) {
	defer fault.Reset()
	for _, tc := range []struct {
		name    string
		workers int
		tables  func(*testing.T, *cluster.Cluster) *engine.Session
		q       string
	}{
		{"broadcast", 2, joinOrderTables, "SELECT count(*), sum(a.k) FROM ja a JOIN jb b ON a.g = b.w"},
		{"repartition", 4, joinOrderTables, "SELECT count(*), sum(a.k) FROM ja a JOIN jb b ON a.g = b.w"},
		{"subquery", 2, subqueryTables, "SELECT count(*), sum(k) FROM d WHERE g IN (SELECT w FROM d2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.workers)
			s := tc.tables(t, c)
			want := rowsText(mustExec(t, s, tc.q))
			pre := obs.Default().Snapshot()
			mustExec(t, s, tc.q)
			appends := int(obs.Default().Snapshot().Delta(pre).Get(`executor_tasks_total{kind="result"}`))
			if appends < 2 {
				t.Fatalf("%s: %d appends, want one per task node", tc.q, appends)
			}
			for k := 0; k < appends; k++ {
				for _, rule := range []fault.Rule{
					{Point: fault.PointExecutorTask, Key: "result", Action: fault.ActError, After: k, Count: 1},
					{Point: fault.PointWireRecv, Key: "append_result", Action: fault.ActError, After: k, Count: 1},
				} {
					pre := obs.Default().Snapshot()
					fault.Arm(rule)
					_, err := s.Exec(tc.q)
					fault.Reset()
					d := obs.Default().Snapshot().Delta(pre)
					if err == nil {
						t.Errorf("%s at append %d: the statement succeeded", rule.Point, k)
					}
					if got := d.Get("executor_task_retries_total"); got != 0 {
						t.Errorf("%s at append %d: %d tasks retried", rule.Point, k, got)
					}
					if got := int(d.Get(`executor_tasks_total{kind="result"}`)); got > appends {
						t.Errorf("%s at append %d: %d appends, more than the %d of a whole run", rule.Point, k, got, appends)
					}
					if names := leftoverResults(c); len(names) > 0 {
						t.Errorf("%s at append %d: intermediate results survive: %v", rule.Point, k, names)
					}
					if got := rowsText(mustExec(t, s, tc.q)); got != want {
						t.Errorf("%s at append %d: the next statement got %s, want %s", rule.Point, k, got, want)
					}
				}
			}
		})
	}
}

// TestSubplansFeedingWritesReadPrimaries holds every standby of a replicated
// cluster behind with a repl.apply delay, writes a row, and runs two
// statements whose SELECT feeds a write: an autocommit INSERT..SELECT through
// the coordinator (its GROUP BY needs a merge step) and an UPDATE whose WHERE
// compares with a subplan. Both must see the row, so no read of either goes
// to a standby.
func TestSubplansFeedingWritesReadPrimaries(t *testing.T) {
	defer fault.Reset()
	c, err := cluster.New(cluster.Config{
		Workers:           2,
		ShardCount:        8,
		ReplicationFactor: 1,
		ReplicationMode:   repl.ModeAsync,
		Citus:             citus.Config{DeadlockInterval: -1, RecoveryInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE pd (k bigint PRIMARY KEY, g bigint)",
		"SELECT create_distributed_table('pd', 'k')",
		"CREATE TABLE pagg (g bigint, n bigint)",
		"SELECT create_distributed_table('pagg', 'g')",
		"INSERT INTO pd VALUES (1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3)",
	} {
		mustExec(t, s, q)
	}

	fault.Arm(fault.Rule{Point: fault.PointReplApply, Action: fault.ActDelay, Delay: 300 * time.Millisecond})
	mustExec(t, s, "INSERT INTO pd VALUES (100, 77)")
	pre := obs.Default().Snapshot()
	mustExec(t, s, "INSERT INTO pagg SELECT g, count(*) FROM pd GROUP BY g")
	res := mustExec(t, s, "UPDATE pd SET g = g + 1 WHERE g = (SELECT max(g) FROM pd)")
	standby := obs.Default().Snapshot().Delta(pre).Get(`executor_routed_reads_total{placement="standby"}`)
	fault.Reset()

	if res.Tag != "UPDATE 1" {
		t.Errorf("UPDATE of the maximum: %s, want UPDATE 1", res.Tag)
	}
	// inside a block the checks read primaries too
	mustExec(t, s, "BEGIN")
	expectRows(t, mustExec(t, s, "SELECT n FROM pagg WHERE g = 77"), "1")
	expectRows(t, mustExec(t, s, "SELECT g FROM pd WHERE k = 100"), "78")
	mustExec(t, s, "COMMIT")
	if standby != 0 {
		t.Errorf("%d reads feeding a write went to a standby", standby)
	}
}

// TestMXCoordinatorsShipDistinctResults: two workers of a metadata-synced
// cluster coordinate subplan statements whose results land on the same
// workers at once. Intermediate results are global to an engine and each node
// counts its own names, so the names carry the coordinating node. Both
// nodes' counters are lined up first; then one statement is held right after
// its first append landed while the other runs whole. Each must get its own
// answer, and no result may survive either.
func TestMXCoordinatorsShipDistinctResults(t *testing.T) {
	defer fault.Reset()
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8, SyncMetadata: true,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	subqueryTables(t, c)
	qa := "SELECT count(*), sum(k) FROM d WHERE g IN (SELECT w FROM d2 WHERE w < 2)"
	qb := "SELECT count(*), sum(k) FROM d WHERE g IN (SELECT w FROM d2 WHERE w >= 2)"
	sa, sb := c.SessionOn(1), c.SessionOn(2)
	wantA, wantB := rowsText(mustExec(t, sa, qa)), rowsText(mustExec(t, sb, qb))

	// EXPLAIN names a statement's first subplan citus_sub_…<n>_0, n the
	// node's counter; a cached fan-out SELECT moves it by one
	subplanSeq := regexp.MustCompile(`citus_sub_(?:\d+_)?(\d+)_0`)
	seq := func(s *engine.Session, q string) int {
		t.Helper()
		m := subplanSeq.FindStringSubmatch(rowsText(mustExec(t, s, "EXPLAIN "+q)))
		if m == nil {
			t.Fatalf("no subplan in the plan of %s", q)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	for i := 0; ; i++ {
		a, b := seq(sa, qa), seq(sb, qb)
		if a == b {
			break
		}
		if i == 20 {
			t.Fatalf("the two nodes' counters do not line up: %d, %d", a, b)
		}
		lagging := sa
		if b < a {
			lagging = sb
		}
		for range max(a-b, b-a) {
			mustExec(t, lagging, "SELECT count(*) FROM d")
		}
	}

	arrived, release := fault.ArmGate(fault.PointWireRecv, "append_result")
	done := make(chan error, 1)
	var gotA string
	go func() {
		res, err := sa.Exec(qa)
		if err == nil {
			gotA = rowsText(res)
		}
		done <- err
	}()
	<-arrived
	resB, errB := sb.Exec(qb)
	release(nil)
	if errA := <-done; errA != nil || gotA != wantA {
		t.Errorf("held coordinator: %q, %v; want %q", gotA, errA, wantA)
	}
	if errB != nil || rowsText(resB) != wantB {
		t.Errorf("other coordinator: %v, %v; want %q", resB, errB, wantB)
	}
	if names := leftoverResults(c); len(names) > 0 {
		t.Errorf("intermediate results survive: %v", names)
	}
}
