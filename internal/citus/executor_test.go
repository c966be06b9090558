package citus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/fault"
)

// TestSharedConnectionLimitRespected floods the coordinator with parallel
// multi-shard queries and verifies the per-worker connection totals never
// exceed the configured shared limit (§3.6.1).
func TestSharedConnectionLimitRespected(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Coordinator().Cfg.MaxSharedPoolSize = 4

	s := c.Session()
	mustExec(t, s, "CREATE TABLE busy (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('busy', 'k')")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO busy (k, v) VALUES (%d, %d)", i, i))
	}

	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.Session()
			for i := 0; i < 10; i++ {
				if _, err := sess.Exec("SELECT count(*) FROM busy"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// the pools' total connection counts stayed at or below the limit
	for nodeID := 2; nodeID <= 3; nodeID++ {
		total, _ := c.Coordinator().PoolStats(nodeID)
		if total > 4 {
			t.Fatalf("node %d has %d connections, limit is 4", nodeID, total)
		}
	}
}

// TestTransactionConnectionAffinity verifies that within a transaction the
// same co-located shard group always uses the same worker connection, so a
// later statement sees the earlier statement's uncommitted writes.
func TestTransactionConnectionAffinity(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE aff (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('aff', 'k')")
	mustExec(t, s, "INSERT INTO aff (k, v) VALUES (1, 0)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE aff SET v = 41 WHERE k = 1")
	// read-your-writes: this SELECT must run on the connection that holds
	// the uncommitted update
	expectRows(t, mustExec(t, s, "SELECT v FROM aff WHERE k = 1"), "41")
	mustExec(t, s, "UPDATE aff SET v = v + 1 WHERE k = 1")
	expectRows(t, mustExec(t, s, "SELECT v FROM aff WHERE k = 1"), "42")
	mustExec(t, s, "COMMIT")
	expectRows(t, mustExec(t, s, "SELECT v FROM aff WHERE k = 1"), "42")
}

// TestMultiShardQueryInTransactionSeesOwnWrites covers affinity for
// fan-out reads after routed writes.
func TestMultiShardQueryInTransactionSeesOwnWrites(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE msq (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('msq', 'k')")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO msq (k, v) VALUES (%d, 1)", i))
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE msq SET v = 100 WHERE k = 3")
	mustExec(t, s, "UPDATE msq SET v = 100 WHERE k = 7")
	// the fan-out aggregate must observe both uncommitted updates
	expectRows(t, mustExec(t, s, "SELECT sum(v) FROM msq"), fmt.Sprint(18+200))
	mustExec(t, s, "ROLLBACK")
	expectRows(t, mustExec(t, s, "SELECT sum(v) FROM msq"), "20")
}

func TestErrorCases(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE ec (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('ec', 'k')")

	// NULL distribution column
	if _, err := s.Exec("INSERT INTO ec (k, v) VALUES (NULL, 1)"); err == nil {
		t.Fatal("NULL distribution value accepted")
	}
	// missing distribution column
	if _, err := s.Exec("INSERT INTO ec (v) VALUES (1)"); err == nil {
		t.Fatal("insert without distribution column accepted")
	}
	// distributing twice
	if _, err := s.Exec("SELECT create_distributed_table('ec', 'k')"); err == nil {
		t.Fatal("double distribution accepted")
	}
	// distributing a missing table
	if _, err := s.Exec("SELECT create_distributed_table('nope', 'k')"); err == nil {
		t.Fatal("distributing a missing table accepted")
	}
	// colocate_with a non-distributed table
	mustExec(t, s, "CREATE TABLE ec2 (k bigint PRIMARY KEY)")
	if _, err := s.Exec("SELECT create_distributed_table('ec2', 'k', colocate_with := 'nope')"); err == nil {
		t.Fatal("bad colocate_with accepted")
	}
	// colocate_with mismatched types
	mustExec(t, s, "CREATE TABLE ec3 (name text PRIMARY KEY)")
	if _, err := s.Exec("SELECT create_distributed_table('ec3', 'name', colocate_with := 'ec')"); err == nil {
		t.Fatal("type-mismatched colocation accepted")
	}
}

func TestExplainShowsPlannerHierarchy(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE eh (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('eh', 'k')")

	for query, marker := range map[string]string{
		"SELECT v FROM eh WHERE k = 1":        "Citus Router",
		"SELECT count(*) FROM eh":             "logical pushdown",
		"UPDATE eh SET v = 0 WHERE k = 1":     "Citus Router",
		"UPDATE eh SET v = 0":                 "Multi-Shard",
		"INSERT INTO eh (k, v) VALUES (1, 1)": "Router Insert",
	} {
		res := mustExec(t, s, "EXPLAIN "+query)
		if !strings.Contains(rowsText(res), marker) {
			t.Errorf("EXPLAIN %s missing %q:\n%s", query, marker, rowsText(res))
		}
	}
}

// TestSlowStartOpensConnectionsGradually runs a many-task query with a
// large slow-start interval and verifies execution still completes using
// few connections (the ramp never got a chance to open more).
func TestSlowStartOpensConnectionsGradually(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 1, ShardCount: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Coordinator().Cfg.SlowStartInterval = time.Hour // effectively: never ramp

	s := c.Session()
	mustExec(t, s, "CREATE TABLE ss (k bigint PRIMARY KEY)")
	mustExec(t, s, "SELECT create_distributed_table('ss', 'k')")
	for i := 0; i < 64; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ss (k) VALUES (%d)", i))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ss"), "64")
	total, _ := c.Coordinator().PoolStats(2)
	if total > 2 {
		t.Fatalf("slow start disabled ramping, but %d connections were opened", total)
	}
}

// TestSlowStartRampRace pins the ramp's synchronisation. Tasks are slowed
// so that a query outlasts several ramp ticks, and every pool checkout is
// slowed more, so that the ramp is still inside a checkout when the last
// task finishes. That connection used to be started (wg.Add beside the
// caller's wg.Wait) after the caller had already disposed of the others,
// and was never put back. Run under -race -count=10 (make ci does).
func TestSlowStartRampRace(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c, err := cluster.New(cluster.Config{Workers: 1, ShardCount: 16,
		Citus: citus.Config{SlowStartInterval: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE ssr (k bigint PRIMARY KEY)")
	mustExec(t, s, "SELECT create_distributed_table('ssr', 'k')")
	for i := 0; i < 64; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ssr (k) VALUES (%d)", i))
	}
	fault.Arm(fault.Rule{Point: fault.PointExecutorTask, Key: "read", Action: fault.ActDelay, Delay: time.Millisecond})
	fault.Arm(fault.Rule{Point: fault.PointPoolCheckout, Action: fault.ActDelay, Delay: 3 * time.Millisecond})
	for i := 0; i < 10; i++ {
		expectRows(t, mustExec(t, s, "SELECT count(*) FROM ssr"), "64")
		// every connection the ramp opened went back to the pool
		if total, idle := c.Coordinator().PoolStats(2); total != idle {
			t.Fatalf("query %d: %d connections open but only %d idle: one was never returned", i, total, idle)
		}
	}
}
