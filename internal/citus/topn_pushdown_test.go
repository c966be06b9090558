package citus_test

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/types"
)

// topnCluster builds a 2-worker cluster, optionally with the TopN pushdown
// ablated off, and loads a distributed events table whose GROUP BY column
// (bucket) is not the distribution column — the partial-aggregate merge
// path, where workers previously always shipped every group.
func topnCluster(t *testing.T, disable bool) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Workers:    2,
		ShardCount: 8,
		Citus:      citus.Config{DeadlockInterval: -1},
		Features:   engine.Features{NoTopNPushdown: disable},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE events (tenant bigint, bucket bigint, val double precision)")
	mustExec(t, s, "SELECT create_distributed_table('events', 'tenant')")
	for tenant := 0; tenant < 20; tenant++ {
		for b := 0; b < 10; b++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d.5)",
				tenant, b, tenant*10+b))
		}
	}
	// The same rows in a columnar table, plus NULL buckets for every third
	// tenant: there the worker's grouped scan runs vectorized, and the
	// pushed-down TopN also bounds that scan.
	mustExec(t, s, "CREATE TABLE events_col (tenant bigint, bucket bigint, val double precision) USING columnar")
	mustExec(t, s, "SELECT create_distributed_table('events_col', 'tenant')")
	var rows []types.Row
	for tenant := int64(0); tenant < 20; tenant++ {
		for b := int64(0); b < 10; b++ {
			rows = append(rows, types.Row{tenant, b, float64(tenant*10+b) + 0.5})
		}
		if tenant%3 == 0 {
			rows = append(rows, types.Row{tenant, nil, float64(tenant)})
		}
	}
	if _, err := s.CopyFrom("events_col", []string{"tenant", "bucket", "val"}, rows); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTopNPushdownParity runs the same grouped TopN queries with the
// pushdown on and off and expects identical rows, while the counters prove
// the on-cluster actually routed through the worker-side bounded heap and
// shipped O(workers × k) rows to the coordinator merge.
func TestTopNPushdownParity(t *testing.T) {
	on := topnCluster(t, false)
	off := topnCluster(t, true)
	sOn, sOff := on.Session(), off.Session()

	shapes := []string{
		`SELECT bucket, count(*), sum(val) FROM %s GROUP BY bucket ORDER BY bucket LIMIT 3`,
		`SELECT bucket, count(*) FROM %s GROUP BY bucket ORDER BY bucket DESC LIMIT 4`,
		`SELECT bucket, avg(val) FROM %s GROUP BY bucket ORDER BY 1 LIMIT 3 OFFSET 2`,
		`SELECT bucket AS b, min(val) FROM %s GROUP BY bucket ORDER BY b LIMIT 2`,
		`SELECT bucket, max(val) FROM %s GROUP BY bucket ORDER BY bucket DESC LIMIT 2 OFFSET 3`,
	}
	// events_col has NULL buckets: first ascending, last descending
	var queries []string
	for _, table := range []string{"events", "events_col"} {
		for _, shape := range shapes {
			queries = append(queries, fmt.Sprintf(shape, table))
		}
	}
	for _, q := range queries {
		preOn := statCounters(t, sOn)
		resOn := mustExec(t, sOn, q)
		postOn := statCounters(t, sOn)

		preOff := statCounters(t, sOff)
		resOff := mustExec(t, sOff, q)
		postOff := statCounters(t, sOff)

		if got, want := rowsText(resOn), rowsText(resOff); got != want {
			t.Fatalf("%s:\npushdown:\n%s\nbaseline:\n%s", q, got, want)
		}
		if d := familyDelta(preOn, postOn, "citus_topn_pushdowns_total"); d == 0 {
			t.Errorf("%s: expected a TopN pushdown, counter unchanged", q)
		}
		if d := familyDelta(preOff, postOff, "citus_topn_pushdowns_total"); d != 0 {
			t.Errorf("%s: ablated cluster still pushed down (%d)", q, d)
		}
		mergedOn := familyDelta(preOn, postOn, "citus_merge_rows_total")
		mergedOff := familyDelta(preOff, postOff, "citus_merge_rows_total")
		// 10 groups land on (almost surely) both workers: without the
		// pushdown the merge collects ~2×10 rows, with it at most
		// workers × k.
		if mergedOn >= mergedOff {
			t.Errorf("%s: merge rows with pushdown (%d) not below baseline (%d)",
				q, mergedOn, mergedOff)
		}
		// Rows the coordinator never sees were dropped on the workers: by
		// the TopN heap over a row-store shard, and on a columnar shard
		// already by the bound inside the grouped scan, which leaves the
		// heap above it little or nothing to prune.
		dropped := "vec_topn_pruned_rows_total"
		if strings.Contains(q, "events_col") {
			dropped = "columnar_vec_topn_bound_rows_total"
		}
		if d := familyDelta(preOn, postOn, dropped); d == 0 {
			t.Errorf("%s: workers dropped no rows (%s unchanged)", q, dropped)
		}
	}
}

// TestTopNPushdownIneligible pins the shapes that must NOT ship
// ORDER BY/LIMIT to the workers: aggregate sort keys (a partial says
// nothing about global rank), HAVING (coordinator-side filtering could
// consume the worker's whole top-k), and parameterized limits.
func TestTopNPushdownIneligible(t *testing.T) {
	c := topnCluster(t, false)
	s := c.Session()

	queries := []struct{ name, q string }{
		{"order_by_agg", `SELECT bucket, count(*) FROM events GROUP BY bucket ORDER BY count(*) DESC, bucket LIMIT 3`},
		{"order_by_agg_position", `SELECT bucket, sum(val) FROM events GROUP BY bucket ORDER BY 2 DESC, 1 LIMIT 3`},
		{"having", `SELECT bucket, count(*) FROM events GROUP BY bucket HAVING count(*) > 19 ORDER BY bucket LIMIT 3`},
		{"no_limit", `SELECT bucket, count(*) FROM events GROUP BY bucket ORDER BY bucket`},
	}
	for _, tc := range queries {
		pre := statCounters(t, s)
		res := mustExec(t, s, tc.q)
		post := statCounters(t, s)
		if d := familyDelta(pre, post, "citus_topn_pushdowns_total"); d != 0 {
			t.Errorf("%s: pushed down an ineligible shape (%d)", tc.name, d)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows", tc.name)
		}
	}

	// and the ineligible shapes still answer correctly
	res := mustExec(t, s, `SELECT bucket, count(*) FROM events GROUP BY bucket ORDER BY count(*) DESC, bucket LIMIT 2`)
	expectRows(t, res, "0|20\n1|20")
}

// TestTopNPushdownPlanCacheInteraction re-executes a pushed-down prepared
// shape to make sure the cached distributed plan keeps the worker-side
// bound across executions.
func TestTopNPushdownPlanCacheInteraction(t *testing.T) {
	c := topnCluster(t, false)
	s := c.Session()
	q := `SELECT bucket, count(*) FROM events GROUP BY bucket ORDER BY bucket LIMIT 2`
	want := "0|20\n1|20"
	for i := 0; i < 3; i++ {
		res := mustExec(t, s, q)
		expectRows(t, res, want)
	}
}
