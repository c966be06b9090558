package citus_test

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
)

// statCounters queries the citus_stat_counters() UDF and returns the
// metrics as a name -> value map.
func statCounters(t *testing.T, s *engine.Session) map[string]int64 {
	t.Helper()
	res := mustExec(t, s, "SELECT citus_stat_counters()")
	if len(res.Columns) != 2 || res.Columns[0] != "name" || res.Columns[1] != "value" {
		t.Fatalf("citus_stat_counters columns = %v", res.Columns)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].(string)] = row[1].(int64)
	}
	return out
}

// familyDelta sums the increase of every metric belonging to a family
// (exact name plus labeled variants) between two counter maps.
func familyDelta(before, after map[string]int64, family string) int64 {
	var d int64
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			d += v - before[k]
		}
	}
	return d
}

func TestObsMultiShardSelectBumpsCounters(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE obs_items (id int, val text)")
	mustExec(t, s, "SELECT create_distributed_table('obs_items', 'id')")
	for i := 0; i < 8; i++ {
		mustExec(t, s, "INSERT INTO obs_items VALUES ($1, $2)", int64(i), "v")
	}

	before := statCounters(t, s)
	res := mustExec(t, s, "SELECT count(*) FROM obs_items")
	if res.Rows[0][0].(int64) != 8 {
		t.Fatalf("count = %v, want 8", res.Rows[0][0])
	}
	after := statCounters(t, s)

	// The acceptance bar: one multi-shard SELECT observably increments at
	// least three distinct metrics through the SQL interface.
	for _, family := range []string{
		"executor_tasks_total", // one task per shard placed
		"executor_task_latency_ns_count",
		"pool_gets_total",         // worker connections came from the pools
		"engine_statements_total", // coordinator + worker statement counts
	} {
		if d := familyDelta(before, after, family); d <= 0 {
			t.Errorf("%s delta = %d, want > 0", family, d)
		}
	}
	// A multi-shard scan over 8 shards places 8 read tasks.
	if d := familyDelta(before, after, "executor_tasks_total"); d < 8 {
		t.Errorf("executor_tasks_total delta = %d, want >= 8", d)
	}
}

func TestObsTwoPhaseCommitBumpsCounters(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE obs_accounts (id int, balance int)")
	mustExec(t, s, "SELECT create_distributed_table('obs_accounts', 'id')")

	before := statCounters(t, s)
	mustExec(t, s, "BEGIN")
	// Touch every shard so writes certainly land on both workers,
	// forcing the 2PC path (writers > 1) at commit.
	for i := 0; i < 8; i++ {
		mustExec(t, s, "INSERT INTO obs_accounts VALUES ($1, 100)", int64(i))
	}
	mustExec(t, s, "COMMIT")
	after := statCounters(t, s)

	for _, family := range []string{
		"dtxn_2pc_prepares_total",
		"dtxn_2pc_commits_total",
		"dtxn_commit_latency_ns_count",
		`wal_records_total{type="commit_record"}`,
	} {
		if d := familyDelta(before, after, family); d <= 0 {
			t.Errorf("%s delta = %d, want > 0", family, d)
		}
	}
	if d := familyDelta(before, after, "dtxn_2pc_prepares_total"); d < 2 {
		t.Errorf("dtxn_2pc_prepares_total delta = %d, want >= 2 (two workers prepared)", d)
	}
	if d := familyDelta(before, after, "dtxn_2pc_aborts_total"); d != 0 {
		t.Errorf("dtxn_2pc_aborts_total delta = %d, want 0 for a clean commit", d)
	}
}

func TestObsStatActivity(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()

	res := mustExec(t, s, "SELECT citus_stat_activity()")
	want := []string{"node_id", "xid", "dist_txn_id", "state"}
	for i, col := range want {
		if res.Columns[i] != col {
			t.Fatalf("citus_stat_activity columns = %v, want %v", res.Columns, want)
		}
	}
	// The calling statement runs in its own transaction, so at least one
	// active row (this session's) must be present.
	active := 0
	for _, row := range res.Rows {
		if row[3].(string) == "active" {
			active++
		}
	}
	if active < 1 {
		t.Errorf("citus_stat_activity returned %d active rows, want >= 1", active)
	}
}

// TestStatActivityShowsOnlyTheCaller: on an idle cluster of two workers,
// citus_stat_activity() lists one transaction, its own statement's on the
// coordinator; the citus_node_stat_activity() each worker runs for it leaves
// out the transaction that statement runs in. In process and over TCP.
func TestStatActivityShowsOnlyTheCaller(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4, UseTCP: tcp,
				// no daemon asks the workers anything while the view is read
				Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			s := c.Session()
			for i := 0; i < 3; i++ {
				res := mustExec(t, s, "SELECT citus_stat_activity()")
				if len(res.Rows) != 1 {
					t.Fatalf("citus_stat_activity() = %v, want the caller's row alone", res.Rows)
				}
				if r := res.Rows[0]; r[0] != int64(c.Nodes[0].ID) || r[3] != "active" {
					t.Fatalf("citus_stat_activity() = %v, want the coordinator's active transaction", r)
				}
			}
			worker := mustExec(t, c.SessionOn(1), "SELECT citus_node_stat_activity()")
			if len(worker.Rows) != 0 {
				t.Fatalf("an idle worker's citus_node_stat_activity() = %v, want no rows", worker.Rows)
			}
		})
	}
}

func TestObsSingleNodeCommitDelegation(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE obs_single (id int, v int)")
	mustExec(t, s, "SELECT create_distributed_table('obs_single', 'id')")

	before := statCounters(t, s)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO obs_single VALUES (1, 1)")
	mustExec(t, s, "COMMIT")
	after := statCounters(t, s)

	if d := familyDelta(before, after, "dtxn_single_node_commits_total"); d != 1 {
		t.Errorf("dtxn_single_node_commits_total delta = %d, want 1 (single-writer delegation, no 2PC)", d)
	}
	if d := familyDelta(before, after, "dtxn_2pc_prepares_total"); d != 0 {
		t.Errorf("dtxn_2pc_prepares_total delta = %d, want 0", d)
	}
}

func TestObsPlanCacheCounters(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE obs_pc (id bigint PRIMARY KEY, val bigint)")
	mustExec(t, s, "SELECT create_distributed_table('obs_pc', 'id')")
	for i := 0; i < 8; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO obs_pc (id, val) VALUES (%d, %d)", i, i))
	}

	const rounds, keys = 10, 8
	before := statCounters(t, s)
	for round := 0; round < rounds; round++ {
		for i := 0; i < keys; i++ {
			mustExec(t, s, "SELECT val FROM obs_pc WHERE id = $1", int64(i))
		}
	}
	after := statCounters(t, s)

	// both caching layers must be exercised by the repeated workload: the
	// coordinator plan cache, and the session statement cache on the workers
	// as well as the coordinator (whose one session hits at most once per
	// statement, so the hits beyond the statements are the workers')
	hits := familyDelta(before, after, "citus_plancache_hits")
	if hits <= 0 {
		t.Errorf("citus_plancache_hits delta = %d, want > 0", hits)
	}
	if d := familyDelta(before, after, "engine_plancache_hits"); d <= rounds*keys {
		t.Errorf("engine_plancache_hits delta = %d over %d statements, want more: the worker sessions parsed their tasks again", d, rounds*keys)
	}

	// citus_plancache_stats() exposes the same cache as a relation
	res := mustExec(t, s, "SELECT citus_plancache_stats()")
	if len(res.Columns) != 2 || res.Columns[0] != "name" || res.Columns[1] != "value" {
		t.Fatalf("citus_plancache_stats columns = %v", res.Columns)
	}
	stats := make(map[string]int64, len(res.Rows))
	entryRows := 0
	for _, row := range res.Rows {
		stats[row[0].(string)] = row[1].(int64)
		if strings.HasPrefix(row[0].(string), "shard_groups[") {
			entryRows++
		}
	}
	if stats["entries"] <= 0 || stats["hits"] <= 0 {
		t.Errorf("citus_plancache_stats entries=%d hits=%d, want both > 0", stats["entries"], stats["hits"])
	}
	if entryRows == 0 {
		t.Error("citus_plancache_stats returned no shard_groups[...] per-entry rows")
	}
	if int64(entryRows) != stats["entries"] {
		t.Errorf("per-entry rows = %d, entries = %d; want equal", entryRows, stats["entries"])
	}
}
