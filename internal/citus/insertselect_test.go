package citus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
)

// insertSelectTables makes the source isrc(k, d, g, v), distributed on k, and
// isrc2(k, w), co-located with it; the destinations idst(d, n), distributed on
// d, idk(k, v), co-located with isrc, the reference table iref(k, v) and the
// local table iloc(k, v); and for each a local table of the same name with l
// for i (lsrc, ldst, …) holding the same rows. isrc's rows 1–4 are the
// (k, d) pairs (1, 1), (2, 2), (3, 3), (4, 1); every later row has d = k + 100.
// idst holds (1, 0).
func insertSelectTables(t *testing.T, c *cluster.Cluster) *engine.Session {
	t.Helper()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE isrc (k bigint PRIMARY KEY, d bigint, g bigint, v bigint)",
		"SELECT create_distributed_table('isrc', 'k')",
		"CREATE TABLE isrc2 (k bigint PRIMARY KEY, w bigint)",
		"SELECT create_distributed_table('isrc2', 'k', colocate_with := 'isrc')",
		"CREATE TABLE idst (d bigint PRIMARY KEY, n bigint)",
		"SELECT create_distributed_table('idst', 'd')",
		"CREATE TABLE idk (k bigint PRIMARY KEY, v bigint)",
		"SELECT create_distributed_table('idk', 'k', colocate_with := 'isrc')",
		"CREATE TABLE iref (k bigint PRIMARY KEY, v bigint)",
		"SELECT create_reference_table('iref')",
		"CREATE TABLE iloc (k bigint PRIMARY KEY, v bigint)",
		"CREATE TABLE lsrc (k bigint PRIMARY KEY, d bigint, g bigint, v bigint)",
		"CREATE TABLE lsrc2 (k bigint PRIMARY KEY, w bigint)",
		"CREATE TABLE ldst (d bigint PRIMARY KEY, n bigint)",
		"CREATE TABLE ldk (k bigint PRIMARY KEY, v bigint)",
		"CREATE TABLE lref (k bigint PRIMARY KEY, v bigint)",
		"CREATE TABLE lloc (k bigint PRIMARY KEY, v bigint)",
		"INSERT INTO idst VALUES (1, 0)",
		"INSERT INTO ldst VALUES (1, 0)",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 30; k++ {
		d, v := k+100, fmt.Sprint(k*3%7)
		if k <= 4 {
			d = []int{1, 2, 3, 1}[k-1]
		}
		if k%9 == 0 {
			v = "NULL"
		}
		for _, p := range []string{"i", "l"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %ssrc VALUES (%d, %d, %d, %s)", p, k, d, k%5, v))
			if k%3 != 0 {
				mustExec(t, s, fmt.Sprintf("INSERT INTO %ssrc2 VALUES (%d, %d)", p, k, k%4))
			}
		}
	}
	return s
}

// localTwin names a statement's local tables in place of its distributed,
// reference and local i-tables.
var localTwin = strings.NewReplacer("isrc", "lsrc", "idst", "ldst", "idk", "ldk", "iref", "lref", "iloc", "lloc")

// TestInsertSelectMatchesLocalTable runs INSERT..SELECT statements against
// distributed, reference and local i-tables and against local l-tables holding
// the same rows, and after each compares the tag, the RETURNING rows and the
// whole destination table, and asserts the strategy EXPLAIN names. Every
// statement that is not co-located pulls its rows to the coordinator and ships
// them to the destination's placements, ON CONFLICT and RETURNING included;
// no intermediate result outlives its statement.
func TestInsertSelectMatchesLocalTable(t *testing.T) {
	c := newCluster(t, 2)
	s := insertSelectTables(t, c)
	const colocated, pull, router = "pushdown (co-located)", "pull to coordinator", "Router Insert"
	const reset = "DELETE FROM idst WHERE d <> 1"

	for _, tc := range []struct {
		name   string
		before string // run on both sides first
		q      string
		dest   string
		method string
		block  string // COMMIT or ROLLBACK: the statement runs inside BEGIN … block
		err    string // both sides fail; the distributed error says this
	}{
		{name: "on conflict do nothing", q: "INSERT INTO idst (d, n) SELECT d, k FROM isrc ON CONFLICT (d) DO NOTHING", dest: "idst", method: pull},
		{name: "returning", before: reset, q: "INSERT INTO idst (d, n) SELECT d, k FROM isrc WHERE d > 1 RETURNING d", dest: "idst", method: pull},
		{name: "merge, on conflict do nothing", before: reset, q: "INSERT INTO idst (d, n) SELECT d, count(*) FROM isrc GROUP BY d ON CONFLICT (d) DO NOTHING", dest: "idst", method: pull},
		{name: "merge, returning", before: reset, q: "INSERT INTO idst (d, n) SELECT d, count(*) FROM isrc WHERE d > 1 GROUP BY d RETURNING d", dest: "idst", method: pull},
		{name: "group by a non-distribution column, on conflict do update", q: "INSERT INTO idst (d, n) SELECT g, sum(v) FROM isrc GROUP BY g ON CONFLICT (d) DO UPDATE SET n = excluded.n RETURNING d, n", dest: "idst", method: pull},
		{name: "co-located", q: "INSERT INTO idk (k, v) SELECT k, v FROM isrc WHERE k <= 10", dest: "idk", method: colocated},
		{name: "co-located, on conflict do update", q: "INSERT INTO idk (k, v) SELECT k, g FROM isrc WHERE k <= 15 ON CONFLICT (k) DO UPDATE SET v = excluded.v RETURNING k, v", dest: "idk", method: colocated},
		{name: "distinct", q: "INSERT INTO idk (k, v) SELECT DISTINCT g + 100, 1 FROM isrc", dest: "idk", method: pull},
		{name: "order by limit", q: "INSERT INTO idk (k, v) SELECT k + 200, v FROM isrc ORDER BY k LIMIT 5 RETURNING k, v", dest: "idk", method: pull},
		{name: "subquery", q: "INSERT INTO idk (k, v) SELECT k + 300, g FROM isrc WHERE g = (SELECT max(w) FROM isrc2)", dest: "idk", method: pull},
		{name: "join, not co-located with the destination", q: "INSERT INTO idst (d, n) SELECT a.d, b.w FROM isrc a JOIN isrc2 b ON a.k = b.k WHERE a.k > 4 ON CONFLICT (d) DO NOTHING", dest: "idst", method: pull},
		{name: "reference destination", q: "INSERT INTO iref (k, v) SELECT k, v FROM isrc WHERE k % 3 = 0 RETURNING k", dest: "iref", method: pull},
		{name: "reference destination, on conflict do update", q: "INSERT INTO iref (k, v) SELECT k, g FROM isrc WHERE k % 2 = 0 ON CONFLICT (k) DO UPDATE SET v = excluded.v + 1", dest: "iref", method: pull},
		{name: "local destination", q: "INSERT INTO iloc (k, v) SELECT g, count(*) FROM isrc GROUP BY g RETURNING k, v", dest: "iloc", method: pull},
		{name: "local destination, on conflict do update", q: "INSERT INTO iloc (k, v) SELECT g, max(k) FROM isrc GROUP BY g ON CONFLICT (k) DO UPDATE SET v = excluded.v", dest: "iloc", method: pull},
		{name: "null distribution value", q: "INSERT INTO idst (d, n) SELECT v, k FROM isrc", dest: "idst", method: pull, err: `cannot insert NULL into distribution column "d"`},
		{name: "rolled back", q: "INSERT INTO idk (k, v) SELECT k + 400, v FROM isrc WHERE g = 1 RETURNING k", dest: "idk", method: pull, block: "ROLLBACK"},
		{name: "committed", q: "INSERT INTO idst (d, n) SELECT g + 10, count(*) FROM isrc GROUP BY g", dest: "idst", method: pull, block: "COMMIT"},
		// the target named, or aliased, in ON CONFLICT … DO UPDATE and RETURNING
		{name: "values, target named", before: reset, q: "INSERT INTO idst (d, n) VALUES (1, 5), (2, 5) ON CONFLICT (d) DO UPDATE SET n = idst.n + excluded.n RETURNING idst.d, idst.n", dest: "idst", method: router},
		{name: "values, target aliased", q: "INSERT INTO idst AS t (d, n) VALUES (2, 7), (3, 1) ON CONFLICT (d) DO UPDATE SET n = t.n + excluded.n RETURNING t.d, t.n, n", dest: "idst", method: router},
		{name: "co-located, target named", q: "INSERT INTO idk (k, v) SELECT k, g FROM isrc WHERE k <= 12 ON CONFLICT (k) DO UPDATE SET v = idk.v + excluded.v RETURNING idk.k, idk.v", dest: "idk", method: colocated},
		{name: "co-located, target aliased", q: "INSERT INTO idk AS t (k, v) SELECT k, g FROM isrc WHERE k <= 14 ON CONFLICT (k) DO UPDATE SET v = t.v * 2 RETURNING t.k, t.v", dest: "idk", method: colocated},
		{name: "pulled, target named", q: "INSERT INTO idst (d, n) SELECT g, count(*) FROM isrc GROUP BY g ON CONFLICT (d) DO UPDATE SET n = idst.n + excluded.n RETURNING idst.d, idst.n", dest: "idst", method: pull},
		{name: "pulled, target aliased", q: "INSERT INTO iref AS t (k, v) SELECT k, g FROM isrc WHERE k % 2 = 0 ON CONFLICT (k) DO UPDATE SET v = t.v + excluded.v RETURNING t.k, t.v", dest: "iref", method: pull},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := rowsText(mustExec(t, s, "EXPLAIN "+tc.q))
			if !strings.Contains(plan, tc.method) || strings.Contains(plan, "Distributed Subplan:") != (tc.method == pull) {
				t.Errorf("plan is not %s:\n%s", tc.method, plan)
			}
			var got [2]string
			for i, twin := range []func(string) string{func(q string) string { return q }, localTwin.Replace} {
				q, dest := twin(tc.q), "SELECT * FROM "+twin(tc.dest)+" ORDER BY 1"
				if tc.before != "" {
					mustExec(t, s, twin(tc.before))
				}
				before := rowsText(mustExec(t, s, dest))
				if tc.block != "" {
					mustExec(t, s, "BEGIN")
				}
				res, err := s.Exec(q)
				switch {
				case tc.err != "" && err == nil:
					t.Fatalf("%s: succeeded, want an error", q)
				case tc.err != "" && i == 0 && !strings.Contains(err.Error(), tc.err):
					t.Fatalf("%s: %v, want %q", q, err, tc.err)
				case tc.err == "" && err != nil:
					t.Fatalf("%s: %v", q, err)
				case err == nil:
					got[i] = res.Tag + "\n" + sortedText(res)
				}
				got[i] += "\n" + rowsText(mustExec(t, s, dest))
				if tc.block != "" {
					mustExec(t, s, tc.block)
					after := rowsText(mustExec(t, s, dest))
					if tc.block == "ROLLBACK" && after != before {
						t.Errorf("%s: rolled back, the destination holds\n%s\nwant\n%s", q, after, before)
					}
					got[i] += "\n" + tc.block + "\n" + after
				}
				if tc.err != "" && !strings.HasSuffix(got[i], "\n"+before) {
					t.Errorf("%s failed and wrote rows:\n%s", q, got[i])
				}
			}
			if got[0] != got[1] {
				t.Errorf("%s:\ndistributed:\n%s\nlocal:\n%s", tc.q, got[0], got[1])
			}
			if names := leftoverResults(c); len(names) > 0 {
				t.Errorf("intermediate results survive: %v", names)
			}
		})
	}
}

// TestConcurrentInsertSelectSessions runs pulled INSERT..SELECTs from two
// sessions at once. Their append results share each node's names, so every
// statement's must be its own: each inserts and returns exactly its rows, and
// no result outlives its statement.
func TestConcurrentInsertSelectSessions(t *testing.T) {
	c := newCluster(t, 2)
	insertSelectTables(t, c)
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.Session()
			for i := 0; i < 10; i++ {
				q := fmt.Sprintf("INSERT INTO idk (k, v) SELECT k + %d, %d FROM isrc RETURNING v", 1000*w+100*i, w)
				res, err := sess.Exec(q)
				if err != nil {
					t.Error(err)
					return
				}
				if want := strings.TrimSpace(strings.Repeat(fmt.Sprintf("%d\n", w), 30)); res.Tag != "INSERT 0 30" || rowsText(res) != want {
					t.Errorf("%s: %s, rows\n%s", q, res.Tag, rowsText(res))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	expectRows(t, mustExec(t, c.Session(), "SELECT v, count(*) FROM idk GROUP BY v ORDER BY v"), "1|300\n2|300")
	if names := leftoverResults(c); len(names) > 0 {
		t.Errorf("intermediate results survive: %v", names)
	}
}

// TestInsertSelectHiddenAggregate: an aggregate under BETWEEN, IN, IS NULL or
// LIKE makes the SELECT one group over every shard, as on a local table. The
// statement inserts the one row a local table gets, or fails with the
// planner's cross-shard aggregation error and writes nothing; it must not run
// shard by shard, inserting a row per shard.
func TestInsertSelectHiddenAggregate(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE psrc (k bigint PRIMARY KEY, s text)",
		"SELECT create_distributed_table('psrc', 'k')",
		"CREATE TABLE pdst (k bigint, v bigint)",
		"SELECT create_distributed_table('pdst', 'k', colocate_with := 'none')",
		"CREATE TABLE lsrc (k bigint PRIMARY KEY, s text)",
		"CREATE TABLE ldst (k bigint, v bigint)",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 40; k++ {
		for _, table := range []string{"psrc", "lsrc"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'a%d')", table, k, k))
		}
	}
	for _, cond := range []string{
		"count(*) BETWEEN 1 AND 1000",
		"count(*) IN (40, 41)",
		"max(s) IS NULL",
		"min(s) LIKE 'a%'",
	} {
		q := func(dst, src string) string {
			return "INSERT INTO " + dst + " (k, v) SELECT 1, CASE WHEN " + cond + " THEN 7 ELSE 0 END FROM " + src
		}
		mustExec(t, s, q("ldst", "lsrc"))
		want := rowsText(mustExec(t, s, "SELECT count(*), sum(v) FROM ldst"))
		_, err := s.Exec(q("pdst", "psrc"))
		got := rowsText(mustExec(t, s, "SELECT count(*), sum(v) FROM pdst"))
		switch {
		case err != nil && !strings.Contains(err.Error(), "not supported in cross-shard aggregation"):
			t.Errorf("%s: %v", cond, err)
		case err != nil && got != "0|NULL":
			t.Errorf("%s failed and wrote %s", cond, got)
		case err == nil && got != want:
			t.Errorf("%s: count(*), sum(v) = %s, want %s as on a local table", cond, got, want)
		}
		mustExec(t, s, "TRUNCATE pdst")
		mustExec(t, s, "TRUNCATE ldst")
	}
}

// TestAggregateUnderPredicateMatchesLocalTable: a cross-shard SELECT whose
// target list or HAVING puts an aggregate under BETWEEN, IN, IS NULL or LIKE
// merges the partial aggregates first and evaluates the predicate over the
// merged value, answering what a local table holding the same rows answers.
func TestAggregateUnderPredicateMatchesLocalTable(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE psrc (k bigint PRIMARY KEY, s text)",
		"SELECT create_distributed_table('psrc', 'k')",
		"CREATE TABLE lsrc (k bigint PRIMARY KEY, s text)",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 7; k++ {
		for _, table := range []string{"psrc", "lsrc"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'a%d')", table, k, k%3))
		}
	}
	for _, q := range []string{
		"SELECT 1, CASE WHEN count(*) BETWEEN 1 AND 1000 THEN 7 ELSE 0 END FROM psrc",
		"SELECT count(*) NOT BETWEEN 8 AND 9 FROM psrc",
		"SELECT max(s) IS NULL FROM psrc",
		"SELECT min(s) IS NOT NULL, max(k) IS NULL FROM psrc WHERE k > 100",
		"SELECT count(*) IN (3, 4) FROM psrc",
		"SELECT sum(k) NOT IN (28, 29) FROM psrc",
		"SELECT CASE WHEN min(s) LIKE 'a%' THEN 1 ELSE 0 END FROM psrc",
		"SELECT max(s) NOT ILIKE 'A2' FROM psrc",
		"SELECT s, count(*) FROM psrc GROUP BY s HAVING count(*) BETWEEN 1 AND 2",
		"SELECT s FROM psrc GROUP BY s HAVING max(k) IN (6, 7)",
		"SELECT s, min(k) FROM psrc GROUP BY s HAVING s LIKE 'a%' AND max(k) IS NOT NULL",
	} {
		want := mustExec(t, s, strings.ReplaceAll(q, "psrc", "lsrc"))
		got, err := s.Exec(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if sortedText(got) != sortedText(want) {
			t.Errorf("%s:\ndistributed:\n%s\nlocal:\n%s", q, sortedText(got), sortedText(want))
		}
	}
}
