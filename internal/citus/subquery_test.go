package citus_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
)

// subqueryTables makes d(k, g, v, s), distributed on k, and d2(k, w),
// co-located with it, and local tables l and l2 holding the same rows: the 40
// rows of TestDistinctMatchesLocalTable, and the 27 with k % 3 <> 0 and
// w = k % 5. lt is a local table and r a reference table, both of x.
func subqueryTables(t *testing.T, c *cluster.Cluster) *engine.Session {
	t.Helper()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE d (k bigint PRIMARY KEY, g bigint, v double precision, s text)",
		"SELECT create_distributed_table('d', 'k')",
		"CREATE TABLE d2 (k bigint PRIMARY KEY, w bigint)",
		"SELECT create_distributed_table('d2', 'k', colocate_with := 'd')",
		"CREATE TABLE l (k bigint PRIMARY KEY, g bigint, v double precision, s text)",
		"CREATE TABLE l2 (k bigint PRIMARY KEY, w bigint)",
		"CREATE TABLE lt (x bigint)",
		"INSERT INTO lt VALUES (1), (4), (9)",
		"CREATE TABLE r (x bigint PRIMARY KEY)",
		"SELECT create_reference_table('r')",
		"INSERT INTO r VALUES (2), (3)",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 40; k++ {
		g, v, str := fmt.Sprint(k%6), fmt.Sprint(float64(k%4)/2), fmt.Sprintf("'s%d'", k%3)
		if k%7 == 0 {
			g = "NULL"
		}
		if k%9 == 0 {
			v, str = "NULL", "NULL"
		}
		for _, table := range []string{"d", "l"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s, %s)", table, k, g, v, str))
		}
		if k%3 != 0 {
			for _, table := range []string{"d2", "l2"} {
				mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", table, k, k%5))
			}
		}
	}
	return s
}

// sortedText is a result's rows, one a line, sorted.
func sortedText(res *engine.Result) string {
	lines := strings.Split(rowsText(res), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestSubqueryMatchesLocalTable runs statements with expression subqueries on
// d/d2 and on l/l2 and compares the answers, and after each write the whole
// tables. A subquery that reads a distributed or a local table runs once, as
// a subplan whose result the shard tasks read; run inside each shard task it
// would see that shard's rows only. A subquery over reference tables, and
// Citus's co-located IN (TPC-H Q18's shape), stay in the shard tasks, and
// EXPLAIN shows no subplan for them.
func TestSubqueryMatchesLocalTable(t *testing.T) {
	c := newCluster(t, 2)
	s := subqueryTables(t, c)

	for _, tc := range []struct {
		q        string // %[1]s is d or l, %[2]s d2 or l2
		pushable bool   // stays in the shard tasks: no subplan
		write    bool
	}{
		{q: "SELECT count(*) FROM %[1]s WHERE k > (SELECT avg(k) FROM %[1]s)"},
		{q: "SELECT count(*) FROM %[1]s WHERE g = (SELECT max(w) FROM %[2]s)"},
		{q: "SELECT count(*) FROM %[1]s WHERE g IN (SELECT w FROM %[2]s)"},
		{q: "SELECT count(*) FROM %[1]s WHERE EXISTS (SELECT 1 FROM %[2]s WHERE w = 4)"},
		{q: "SELECT g, (SELECT count(*) FROM %[2]s) FROM %[1]s WHERE k = 1"},
		{q: "SELECT count(*) FROM %[1]s WHERE g IN (SELECT x FROM lt)"},
		{q: "SELECT count(*) FROM %[1]s WHERE g NOT IN (SELECT w FROM %[2]s WHERE w > 2)"},
		{q: "SELECT count(*) FROM %[1]s WHERE g IN (SELECT w FROM %[2]s WHERE w > (SELECT avg(w) FROM %[2]s))"},
		// these two subqueries land in the merge query, which runs on the
		// coordinator: their subplan is shipped there
		{q: "SELECT g, count(*) FROM %[1]s GROUP BY g HAVING count(*) > (SELECT count(*) FROM %[2]s) / 5 ORDER BY g"},
		{q: "SELECT count(*), (SELECT max(w) FROM %[2]s) FROM %[1]s"},
		{q: "SELECT count(*) FROM %[1]s a JOIN %[2]s b ON a.k = b.k AND b.w < (SELECT avg(w) FROM %[2]s)"},
		{q: "SELECT k, (SELECT count(*) FROM %[1]s) FROM %[1]s WHERE k = 5"},
		{q: "SELECT count(*) FROM (SELECT k FROM %[1]s WHERE g > (SELECT avg(w) FROM %[2]s)) AS sq"},
		{q: "SELECT count(*) FROM %[1]s WHERE g IN (SELECT x FROM r)", pushable: true},
		{q: "SELECT g, count(*) FROM %[1]s WHERE k IN (SELECT k FROM %[2]s GROUP BY k HAVING sum(w) > 2) GROUP BY g ORDER BY g", pushable: true},
		{q: "UPDATE %[1]s SET g = g + 10 WHERE g = (SELECT min(w) FROM %[2]s)", write: true},
		{q: "DELETE FROM %[1]s WHERE g IN (SELECT w FROM %[2]s WHERE w = 3)", write: true},
		{q: "INSERT INTO %[1]s (k, g) SELECT k + 100, g FROM %[1]s WHERE g = (SELECT max(g) FROM %[1]s)", write: true},
		{q: "UPDATE %[1]s SET v = (SELECT count(*) FROM %[2]s) WHERE k = 2", write: true},
		{q: "DELETE FROM %[1]s WHERE k = 8 AND k < (SELECT count(*) FROM %[1]s)", write: true},
		{q: "UPDATE %[1]s SET s = 'top' WHERE k IN (SELECT k FROM %[2]s WHERE w = 4)", pushable: true, write: true},
		// the target named in SET, WHERE and RETURNING keeps resolving on
		// the shards, whose tables are named otherwise
		{q: "UPDATE %[1]s SET g = %[1]s.g + 1 WHERE %[1]s.k = 3 RETURNING %[1]s.k, %[1]s.g", pushable: true, write: true},
		{q: "UPDATE %[1]s AS t SET v = t.k WHERE t.g > 2 RETURNING t.k, t.v", pushable: true, write: true},
		{q: "DELETE FROM %[1]s WHERE %[1]s.k = 9", pushable: true, write: true},
	} {
		var got [2]string
		for i, tables := range [][2]string{{"d", "d2"}, {"l", "l2"}} {
			q := fmt.Sprintf(tc.q, tables[0], tables[1])
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got[i] = sortedText(res) + res.Tag
			if tc.write {
				got[i] += "\n" + rowsText(mustExec(t, s, "SELECT * FROM "+tables[0]+" ORDER BY k"))
			}
		}
		q := fmt.Sprintf(tc.q, "d", "d2")
		if got[0] != got[1] {
			t.Errorf("%s:\ndistributed:\n%s\nlocal:\n%s", q, got[0], got[1])
		}
		plan := rowsText(mustExec(t, s, "EXPLAIN "+q))
		if has := strings.Contains(plan, "Distributed Subplan"); has == tc.pushable {
			t.Errorf("%s: subplan in the plan is %v, want %v:\n%s", q, has, !tc.pushable, plan)
		}
	}

	// a correlated subquery fails on both, as the engine runs uncorrelated
	// ones only
	for _, tables := range [][2]string{{"d", "d2"}, {"l", "l2"}} {
		q := fmt.Sprintf("SELECT count(*) FROM %[1]s WHERE g = (SELECT max(w) FROM %[2]s WHERE %[2]s.k = %[1]s.k)", tables[0], tables[1])
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%s: a correlated subquery ran", q)
		}
	}
	if names := leftoverResults(c); len(names) > 0 {
		t.Errorf("intermediate results survive: %v", names)
	}
}

// leftoverResults lists the subplan, broadcast, repartition and INSERT..SELECT
// results still registered on any engine of the cluster.
func leftoverResults(c *cluster.Cluster) []string {
	var out []string
	for _, eng := range c.Engines {
		for _, name := range eng.IntermediateResults() {
			for _, prefix := range []string{"citus_sub_", "citus_bcast_", "citus_repart_", "citus_insert_"} {
				if strings.HasPrefix(name, prefix) {
					out = append(out, eng.Name+":"+name)
				}
			}
		}
	}
	return out
}

// TestConcurrentSubplanSessions runs subplan statements from two sessions at
// once. Intermediate-result names are global to an engine, so each
// statement's must be its own: every session gets its own answer, and no
// result outlives its statement.
func TestConcurrentSubplanSessions(t *testing.T) {
	c := newCluster(t, 2)
	subqueryTables(t, c)
	want := map[int]string{}
	for w := 1; w <= 2; w++ {
		q := fmt.Sprintf("SELECT count(*) FROM l WHERE g IN (SELECT w FROM l2 WHERE w <= %d)", w)
		want[w] = rowsText(mustExec(t, c.Session(), q))
	}
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.Session()
			q := fmt.Sprintf("SELECT count(*) FROM d WHERE g IN (SELECT w FROM d2 WHERE w <= %d)", w)
			for i := 0; i < 20; i++ {
				res, err := sess.Exec(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := rowsText(res); got != want[w] {
					t.Errorf("%s = %s, want %s", q, got, want[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if names := leftoverResults(c); len(names) > 0 {
		t.Errorf("intermediate results survive: %v", names)
	}
}
