package citus_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
)

// udfStats runs a name/value introspection UDF and returns it as a map.
func udfStats(t *testing.T, s *engine.Session, q string) map[string]int64 {
	t.Helper()
	res := mustExec(t, s, q)
	if len(res.Columns) != 2 || res.Columns[0] != "name" || res.Columns[1] != "value" {
		t.Fatalf("%s columns = %v", q, res.Columns)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].(string)] = row[1].(int64)
	}
	return out
}

// clusterNewNoCache boots a cluster with every plan-caching layer disabled.
func clusterNewNoCache() (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Workers:    2,
		ShardCount: 8,
		Citus:      citus.Config{DeadlockInterval: 50 * time.Millisecond},
		Features:   engine.Features{NoPlanCache: true},
	})
}

// TestPlanCacheRouterBasics: repeated router statements are served from the
// coordinator plan cache, and both spellings (literal and parameterized)
// share one entry.
func TestPlanCacheRouterBasics(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pcb (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pcb', 'k')")
	for i := 0; i < 8; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pcb (k, v) VALUES (%d, %d)", i, i*10))
	}
	// literal spelling, then parameterized spelling of the same shape
	for i := 0; i < 8; i++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT v FROM pcb WHERE k = %d", i))
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i*10) {
			t.Fatalf("k=%d literal: rows = %v", i, res.Rows)
		}
	}
	for i := 0; i < 8; i++ {
		res := mustExec(t, s, "SELECT v FROM pcb WHERE k = $1", int64(i))
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i*10) {
			t.Fatalf("k=%d param: rows = %v", i, res.Rows)
		}
	}
	stats := udfStats(t, c.Session(), "SELECT citus_plancache_stats()")
	if stats["hits"] == 0 {
		t.Fatalf("no plan-cache hits after repeated router queries: %v", stats)
	}
	if stats["entries"] == 0 {
		t.Fatalf("no plan-cache entries installed: %v", stats)
	}
	// both spellings must have landed on ONE entry (plus any others): the
	// per-entry shard-group row exists for the normalized key
	found := false
	for k := range stats {
		if strings.HasPrefix(k, "shard_groups[") && strings.Contains(k, "pcb") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard_groups[...] row for pcb: %v", stats)
	}

	// router UPDATE and DELETE go through the cache too
	mustExec(t, s, "UPDATE pcb SET v = v + 1 WHERE k = 3")
	res := mustExec(t, s, "SELECT v FROM pcb WHERE k = $1", int64(3))
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 31 {
		t.Fatalf("after UPDATE: rows = %v", res.Rows)
	}
	mustExec(t, s, "DELETE FROM pcb WHERE k = 3")
	res = mustExec(t, s, "SELECT v FROM pcb WHERE k = $1", int64(3))
	if len(res.Rows) != 0 {
		t.Fatalf("after DELETE: rows = %v", res.Rows)
	}
}

// TestPlanCacheStressInvalidation drives concurrent router reads and writes
// through the plan cache while a DDL loop keeps bumping the metadata and
// schema versions. Correctness condition: no stale plan ever executes — each
// writer owns one key and must read back exactly the number of increments it
// has applied, which fails if a cached plan routes to the wrong shard or a
// worker session executes a parse tree from before the DDL — and no error of
// any kind reaches a session: a stale tree is parsed again where it is found,
// nothing is refused and nothing retried. Run under -race.
func TestPlanCacheStressInvalidation(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pcs (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pcs', 'k')")
	// separate colocated table for the DDL loop: CREATE INDEX bumps the
	// metadata + schema versions without racing index backfill against the
	// writers' UPDATEs
	mustExec(t, s, "CREATE TABLE pcs_ddl (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pcs_ddl', 'k')")
	const writers = 8
	for i := 0; i < writers; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pcs (k, v) VALUES (%d, 0)", i))
	}

	// writers run at least minIters and keep going until the DDL loop has
	// finished, guaranteeing cached plans are in active use across every
	// metadata version bump
	const minIters = 60
	const maxIters = 5000
	var ddlDone atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			sess := c.Session()
			for i := 1; i <= maxIters; i++ {
				// literal spelling exercises the lift-to-parameter path
				if _, err := sess.Exec(fmt.Sprintf("UPDATE pcs SET v = v + 1 WHERE k = %d", key)); err != nil {
					errCh <- fmt.Errorf("writer %d iter %d update: %w", key, i, err)
					return
				}
				res, err := sess.Exec("SELECT v FROM pcs WHERE k = $1", int64(key))
				if err != nil {
					errCh <- fmt.Errorf("writer %d iter %d select: %w", key, i, err)
					return
				}
				if len(res.Rows) != 1 {
					errCh <- fmt.Errorf("writer %d iter %d: %d rows (stale plan routed to wrong shard?)", key, i, len(res.Rows))
					return
				}
				if got := res.Rows[0][0].(int64); got != int64(i) {
					errCh <- fmt.Errorf("writer %d iter %d: read v=%d, want %d (stale plan executed)", key, i, got, i)
					return
				}
				if i >= minIters && ddlDone.Load() {
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ddlDone.Store(true)
		sess := c.Session()
		for i := 0; i < 12; i++ {
			if _, err := sess.Exec(fmt.Sprintf("CREATE INDEX pcs_stress_%d ON pcs_ddl (v)", i)); err != nil {
				errCh <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	stats := udfStats(t, c.Session(), "SELECT citus_plancache_stats()")
	if stats["hits"] == 0 {
		t.Fatalf("stress run produced no plan-cache hits: %v", stats)
	}
	if stats["invalidations"] == 0 {
		t.Fatalf("DDL loop produced no plan-cache invalidations: %v", stats)
	}
}

// TestPlanCacheDisabled: with NoPlanCache the workload still answers
// correctly and the cache stays empty.
func TestPlanCacheDisabled(t *testing.T) {
	c, err := clusterNewNoCache()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pcd (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pcd', 'k')")
	mustExec(t, s, "INSERT INTO pcd (k, v) VALUES (1, 10)")
	for i := 0; i < 5; i++ {
		res := mustExec(t, s, "SELECT v FROM pcd WHERE k = $1", int64(1))
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 10 {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
	stats := udfStats(t, s, "SELECT citus_plancache_stats()")
	if stats["entries"] != 0 || stats["hits"] != 0 {
		t.Fatalf("disabled cache has activity: %v", stats)
	}
}
