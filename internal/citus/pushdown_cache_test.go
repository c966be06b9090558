package citus_test

import (
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// pushdownParityShapes are the fan-out statements of TestPushdownCacheParity:
// every merge the pushdown planner builds, over the tables of
// newParityCluster.
var pushdownParityShapes = []parityStep{
	// partial aggregates, combined at the coordinator, with a HAVING over
	// the combined values
	{sql: "SELECT v / 500 AS g, count(*), avg(v), min(v) FROM pa GROUP BY v / 500 HAVING sum(v) > 1000 ORDER BY g"},
	// TopN: ORDER BY a group column with a LIMIT goes to the workers
	{sql: "SELECT v, count(*) FROM pa GROUP BY v ORDER BY v DESC LIMIT 3"},
	// passthrough: the workers take LIMIT + OFFSET, the merge applies both
	{sql: "SELECT k, v FROM pa WHERE v > 300 ORDER BY v DESC LIMIT 4 OFFSET 2"},
	{sql: "SELECT * FROM pa ORDER BY k"},
	// groups confined to a shard: the merge only orders and limits
	{sql: "SELECT k, sum(v) FROM pa GROUP BY k ORDER BY k LIMIT 5"},
	// a co-located join with a reference table riding along
	{sql: "SELECT pref.name, pa.v + pb.w AS total FROM pa, pb, pref WHERE pa.k = pb.k AND pref.id = pa.k AND pb.w < -4 ORDER BY total"},
	// parameters in the filter and in the LIMIT
	{sql: "SELECT count(*), sum(v) FROM pa WHERE v >= $1", params: []types.Datum{int64(500)}},
	{sql: "SELECT k FROM pa WHERE v < $1 ORDER BY k LIMIT $2", params: []types.Datum{int64(900), int64(3)}},
	// literals stay in the worker texts, typed after their column there
	{sql: "SELECT count(*) FROM pa WHERE v BETWEEN 200 AND 900"},
	{sql: "SELECT count(*), max(v) FROM pa WHERE v >= '500'"},
	{sql: "SELECT count(*) FROM (SELECT k, v FROM pa WHERE v > 100) sub"},
}

// TestPushdownCacheParity is the differential oracle of the plan cache's
// pushdown shapes: each fan-out shape runs twice on a cluster with the plan
// cache, so the second run is a hit, and twice on one without it. Both see
// the same statements in the same order, so the n-th runs must match: rows,
// columns, tag and EXPLAIN, merge relation numbers removed. Then a CREATE
// INDEX, an ALTER TABLE … ADD COLUMN and a shard move each change what a
// cached shape was analyzed against: the next run of every shape plans
// again, and still matches.
func TestPushdownCacheParity(t *testing.T) {
	cached := newParityCluster(t, engine.Features{})
	uncached := newParityCluster(t, engine.Features{NoPlanCache: true})
	clusters := []*cluster.Cluster{cached, uncached}

	compare := func(t *testing.T, step parityStep, on, off parityOutcome) {
		t.Helper()
		if on != off {
			t.Errorf("%q:\ncached:   %+v\nuncached: %+v", step.sql, on, off)
		}
	}
	for _, step := range pushdownParityShapes {
		var runs [2][2]parityOutcome // [cached, uncached][run]
		for run := 0; run < 2; run++ {
			before := planCacheHits(t, cached)
			runs[0][run] = runParitySteps(t, cached, []parityStep{step})[0]
			if run == 1 && planCacheHits(t, cached) == before {
				t.Errorf("%q: the second run was not planned from the cache", step.sql)
			}
			runs[1][run] = runParitySteps(t, uncached, []parityStep{step})[0]
		}
		for run := 0; run < 2; run++ {
			compare(t, step, runs[0][run], runs[1][run])
		}
		if runs[0][0] != runs[0][1] {
			t.Errorf("%q: the cached cluster's runs differ:\n%+v\n%+v", step.sql, runs[0][0], runs[0][1])
		}
	}

	for _, change := range []struct {
		name  string
		apply func(t *testing.T, c *cluster.Cluster)
	}{
		{"CREATE INDEX", func(t *testing.T, c *cluster.Cluster) {
			mustExec(t, c.Session(), "CREATE INDEX pa_v ON pa (v)")
		}},
		{"ALTER TABLE ADD COLUMN", func(t *testing.T, c *cluster.Cluster) {
			mustExec(t, c.Session(), "ALTER TABLE pa ADD COLUMN extra bigint")
		}},
		{"shard move", func(t *testing.T, c *cluster.Cluster) {
			moveFirstShard(t, c, "pa")
		}},
	} {
		for _, c := range clusters {
			change.apply(t, c)
		}
		before := udfStats(t, cached.Session(), "SELECT citus_plancache_stats()")
		for _, step := range pushdownParityShapes {
			on := runParitySteps(t, cached, []parityStep{step})[0]
			off := runParitySteps(t, uncached, []parityStep{step})[0]
			compare(t, step, on, off)
		}
		after := udfStats(t, cached.Session(), "SELECT citus_plancache_stats()")
		shapes := int64(len(pushdownParityShapes))
		if d := after["invalidations"] - before["invalidations"]; d < shapes {
			t.Errorf("after %s: %d plan-cache invalidations, want one per shape (%d)", change.name, d, shapes)
		}
		if d := after["misses"] - before["misses"]; d < shapes {
			t.Errorf("after %s: %d shapes planned again, want %d", change.name, d, shapes)
		}
	}
	if hits := planCacheHits(t, uncached); hits != 0 {
		t.Fatalf("cluster without a plan cache counted %d hits", hits)
	}
}

// moveFirstShard moves the shard group of table's first shard to another
// worker.
func moveFirstShard(t *testing.T, c *cluster.Cluster, table string) {
	t.Helper()
	coord := c.Coordinator()
	sh := coord.Meta.Shards(table)[0]
	from, err := coord.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range coord.Meta.WorkerNodes() {
		if w.ID != from {
			if err := coord.MoveShardPlacement(c.Session(), sh.ID, from, w.ID); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no worker to move shard %d of %s to", sh.ID, table)
}

// TestMergeLeavesTheStatementCache: a fan-out's merge step runs from the
// parse tree its plan holds, so it puts nothing into the session statement
// cache. 300 executions on one session parse the client's statement once;
// when every merge put a new text into that cache, its flush every 256
// entries made the client's own statement parse again.
func TestMergeLeavesTheStatementCache(t *testing.T) {
	c := newParityCluster(t, engine.Features{})
	const q = "SELECT v / 500 AS g, count(*) FROM pa GROUP BY v / 500 ORDER BY g"
	s := c.Session()
	want := rowsText(mustExec(t, s, q))
	for i := 1; i < 300; i++ {
		if got := rowsText(mustExec(t, s, q)); got != want {
			t.Fatalf("execution %d: %q, want %q", i+1, got, want)
		}
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Coordinator().ParseTreesForTest(stmt.String()); n != 1 {
		t.Fatalf("the client's statement was parsed %d times over 300 executions, want 1", n)
	}
}
