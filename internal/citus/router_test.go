package citus_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/types"
)

// TestDistributionValueHashedAsColumnType: a distribution value reaches the
// shard its column's type puts it on, whatever Go kind it arrives as — a
// quoted number in INSERT VALUES, a float truncated on store, a string in a
// COPY row, a quoted number in a router filter. Each shard holds enough keys
// that a worker's index probe must be typed too.
func TestDistributionValueHashedAsColumnType(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE d (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('d', 'k')")
	if _, err := s.CopyFrom("d", []string{"k", "v"}, copyRows(100, 300)); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, "INSERT INTO d VALUES ('21', 210)")
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = 21"), "210")
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = '21'"), "210")
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = $1", "21"), "210")
	if res := mustExec(t, s, "UPDATE d SET v = 1 WHERE k = 21"); res.Affected != 1 {
		t.Fatalf("UPDATE ... WHERE k = 21 affected %d rows, want 1", res.Affected)
	}

	mustExec(t, s, "INSERT INTO d VALUES (1.7, 17)")
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = 1"), "17")

	if _, err := s.CopyFrom("d", []string{"k", "v"}, []types.Row{{"31", int64(310)}}); err != nil {
		t.Fatal(err)
	}
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = 31"), "310")

	// a filter value that does not coerce does not route: the statement
	// fans out, and no row matches it
	expectRows(t, mustExec(t, s, "SELECT v FROM d WHERE k = 'x'"), "")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM d"), "203")
}

// TestRouterPlanExplainsOnDemand: a router plan made for an execution
// builds no EXPLAIN text; asked for it, it renders what EXPLAIN prints for
// the statement, apart from the plan cache's marker.
func TestRouterPlanExplainsOnDemand(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE d (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('d', 'k')")
	for _, q := range []string{"SELECT v FROM d WHERE k = 7", "UPDATE d SET v = 1 WHERE k = 7"} {
		built, lines, err := c.Coordinator().RouterPlanForTest(q)
		if err != nil || lines == nil {
			t.Fatalf("%s: no router plan (%v)", q, err)
		}
		if built {
			t.Errorf("%s: the router plan was made with its EXPLAIN text", q)
		}
		explain := strings.ReplaceAll(rowsText(mustExec(t, s, "EXPLAIN "+q)), "cached plan, ", "")
		if got := strings.Join(lines, "\n"); got != explain {
			t.Errorf("%s: the plan renders\n%s\nEXPLAIN prints\n%s", q, got, explain)
		}
	}
}

// parityStep is one statement of a router shape.
type parityStep struct {
	sql    string
	params []types.Datum
}

// parityOutcome is what one step showed a client: its columns, rows, tag and
// affected count (or error), and its EXPLAIN, with the cache's own marker and the
// merge relation's number removed.
type parityOutcome struct {
	result, explain string
}

// TestRouterCacheParity is the plan cache's differential oracle: every router
// shape runs twice on a cluster with the plan cache, so the second run is a
// hit, and twice on one without it. Both clusters see the same statements in
// the same order, so the n-th runs must match — rows, affected counts and
// EXPLAIN text, which names the node the task goes to — and on the cached
// cluster the two runs must plan alike. A shape that falls through to
// pushdown or join order falls through on both; a pushdown shape is a hit of
// its own (TestPushdownCacheParity).
func TestRouterCacheParity(t *testing.T) {
	cached := newParityCluster(t, engine.Features{})
	uncached := newParityCluster(t, engine.Features{NoPlanCache: true})

	// two keys whose shard groups differ
	meta := cached.Coordinator().Meta
	first, err := meta.ShardForValue("pa", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	other := int64(2)
	for ; other <= 16; other++ {
		if sh, _ := meta.ShardForValue("pa", other); sh.Index != first.Index {
			break
		}
	}
	if other > 16 {
		t.Fatal("keys 1..16 all hash to one shard group")
	}

	for _, tc := range []struct {
		name  string
		steps []parityStep
		// hit: the cached cluster's second run plans from the cache
		hit bool
	}{
		{name: "literal", hit: true, steps: []parityStep{{sql: "SELECT v FROM pa WHERE k = 5"}}},
		{name: "param", hit: true, steps: []parityStep{{sql: "SELECT v FROM pa WHERE k = $1", params: []types.Datum{int64(5)}}}},
		{name: "update", hit: true, steps: []parityStep{
			{sql: "UPDATE pa SET v = v + 1 WHERE k = 6"},
			{sql: "SELECT v FROM pa WHERE k = $1", params: []types.Datum{int64(6)}},
		}},
		{name: "delete", hit: true, steps: []parityStep{
			{sql: "DELETE FROM pa WHERE k = 7"},
			{sql: "SELECT count(*) FROM pa"},
		}},
		{name: "for update in a block", hit: true, steps: []parityStep{
			{sql: "BEGIN"},
			{sql: "SELECT v FROM pa WHERE k = 8 FOR UPDATE"},
			{sql: "UPDATE pa SET v = v * 2 WHERE k = 8"},
			{sql: "COMMIT"},
			{sql: "SELECT v FROM pa WHERE k = 8"},
		}},
		{name: "co-located join", steps: []parityStep{
			{sql: "SELECT pa.v, pb.w FROM pa JOIN pb ON pa.k = pb.k WHERE pa.k = 9 AND pb.k = 9"},
		}},
		{name: "reference table rides along", hit: true, steps: []parityStep{
			{sql: "SELECT v FROM pa WHERE k = 10 AND v IN (SELECT id * 100 FROM pref)"},
		}},
		{name: "reference table joined", steps: []parityStep{
			{sql: "SELECT pa.v, pref.name FROM pa, pref WHERE pa.k = 3 AND pref.id = pa.k"},
		}},
		{name: "reference only", hit: true, steps: []parityStep{{sql: "SELECT name FROM pref WHERE id = 2"}}},
		// the router does not take these; the pushdown shape is cached
		{name: "pins on two shards", hit: true, steps: []parityStep{
			{sql: fmt.Sprintf("SELECT pa.v, pb.w FROM pa JOIN pb ON pa.k = pb.k WHERE pa.k = 1 AND pb.k = %d", other)},
		}},
		{name: "null pin", hit: true, steps: []parityStep{
			{sql: "SELECT v FROM pa WHERE k = $1", params: []types.Datum{nil}},
			{sql: "SELECT v FROM pa WHERE k = NULL"},
		}},
		{name: "from subquery", steps: []parityStep{
			{sql: "SELECT sub.v FROM (SELECT v FROM pa WHERE k = 11) sub"},
		}},
		{name: "string and float values", hit: true, steps: []parityStep{
			{sql: "SELECT v FROM pa WHERE k = '12'"},
			{sql: "SELECT v FROM pa WHERE k = $1", params: []types.Datum{"12"}},
			{sql: "SELECT v FROM pa WHERE k = 12.0"},
			{sql: "UPDATE pa SET v = v + 1 WHERE k = '13'"},
			{sql: "SELECT v FROM pa WHERE k = 13"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2][2][]parityOutcome // [cached, uncached][run]
			for run := 0; run < 2; run++ {
				before := planCacheHits(t, cached)
				runs[0][run] = runParitySteps(t, cached, tc.steps)
				if moved := planCacheHits(t, cached) > before; run == 1 && moved != tc.hit {
					t.Errorf("second run planned from the cache: %v, want %v", moved, tc.hit)
				}
				runs[1][run] = runParitySteps(t, uncached, tc.steps)
			}
			for run := 0; run < 2; run++ {
				for i, step := range tc.steps {
					on, off := runs[0][run][i], runs[1][run][i]
					if on != off {
						t.Errorf("run %d, %q:\ncached:   %+v\nuncached: %+v", run+1, step.sql, on, off)
					}
					if again := runs[0][1][i].explain; on.explain != again {
						t.Errorf("%q: EXPLAIN changed between runs:\n%s\n%s", step.sql, on.explain, again)
					}
				}
			}
		})
	}
	if hits := planCacheHits(t, uncached); hits != 0 {
		t.Fatalf("cluster without a plan cache counted %d hits", hits)
	}
}

// newParityCluster boots a two-worker cluster holding two co-located
// distributed tables and a reference table, keys 1..16.
func newParityCluster(t *testing.T, f engine.Features) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8, Features: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE pa (k bigint PRIMARY KEY, v bigint)",
		"SELECT create_distributed_table('pa', 'k')",
		"CREATE TABLE pb (k bigint PRIMARY KEY, w bigint)",
		"SELECT create_distributed_table('pb', 'k', colocate_with := 'pa')",
		"CREATE TABLE pref (id bigint PRIMARY KEY, name text)",
		"SELECT create_reference_table('pref')",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 16; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pa VALUES (%d, %d)", k, k*100))
		mustExec(t, s, fmt.Sprintf("INSERT INTO pb VALUES (%d, %d)", k, -k))
		mustExec(t, s, fmt.Sprintf("INSERT INTO pref VALUES (%d, 'name-%d')", k, k))
	}
	return c
}

// mergeNameRE matches a merge step's relation, numbered per query.
var mergeNameRE = regexp.MustCompile(`citus_merge_\d+_\d+`)

// runParitySteps runs the steps in one session and reports each one.
func runParitySteps(t *testing.T, c *cluster.Cluster, steps []parityStep) []parityOutcome {
	t.Helper()
	s := c.Session()
	out := make([]parityOutcome, len(steps))
	for i, step := range steps {
		res, err := s.Exec(step.sql, step.params...)
		if err != nil {
			out[i].result = "error: " + err.Error()
		} else {
			out[i].result = fmt.Sprintf("%v: %s [%s, %d]", res.Columns, rowsText(res), res.Tag, res.Affected)
		}
		switch step.sql {
		case "BEGIN", "COMMIT":
			continue
		}
		ex, err := s.Exec("EXPLAIN "+step.sql, step.params...)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", step.sql, err)
		}
		out[i].explain = mergeNameRE.ReplaceAllString(strings.ReplaceAll(rowsText(ex), "cached plan, ", ""), "citus_merge_N")
	}
	return out
}

// planCacheHits reads the coordinator plan cache's hit count.
func planCacheHits(t *testing.T, c *cluster.Cluster) int64 {
	t.Helper()
	return udfStats(t, c.Session(), "SELECT citus_plancache_stats()")["hits"]
}
