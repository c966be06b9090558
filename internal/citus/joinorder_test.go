package citus_test

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
)

// joinOrderTables makes ja (40 rows) and jb (20 rows), distributed on k but
// not co-located, and local tables la and lb holding the same rows. Each has
// a bigint, a text and a float join key, with NULLs in all three.
func joinOrderTables(t *testing.T, c *cluster.Cluster) *engine.Session {
	t.Helper()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE ja (k bigint PRIMARY KEY, g bigint, t text, f double precision)",
		"SELECT create_distributed_table('ja', 'k')",
		"CREATE TABLE jb (k bigint PRIMARY KEY, w bigint, t text, f double precision)",
		"SELECT create_distributed_table('jb', 'k', colocate_with := 'none')",
		"CREATE TABLE la (k bigint PRIMARY KEY, g bigint, t text, f double precision)",
		"CREATE TABLE lb (k bigint PRIMARY KEY, w bigint, t text, f double precision)",
	} {
		mustExec(t, s, q)
	}
	orNull := func(null bool, v string) string {
		if null {
			return "NULL"
		}
		return v
	}
	for k := 1; k <= 40; k++ {
		row := fmt.Sprintf("(%d, %s, %s, %s)", k, orNull(k%7 == 0, fmt.Sprint(k%6)),
			orNull(k%9 == 0, fmt.Sprintf("'t%d'", k%4)), orNull(k%11 == 0, fmt.Sprint(float64(k%5)/2)))
		for _, table := range []string{"ja", "la"} {
			mustExec(t, s, "INSERT INTO "+table+" VALUES "+row)
		}
		if k > 20 {
			continue
		}
		row = fmt.Sprintf("(%d, %s, %s, %s)", k, orNull(k%8 == 0, fmt.Sprint(k%5)),
			orNull(k%6 == 0, fmt.Sprintf("'t%d'", k%3)), orNull(k%7 == 0, fmt.Sprint(float64(k%3)/2)))
		for _, table := range []string{"jb", "lb"} {
			mustExec(t, s, "INSERT INTO "+table+" VALUES "+row)
		}
	}
	return s
}

// TestJoinOrderMatchesLocalTable is the join-order planner's differential
// oracle: non-co-located joins of ja and jb against the same statements over
// la and lb. With 2 workers the smaller jb is broadcast — unless it is the
// preserved side of a LEFT JOIN, which is never broadcast, and the join is
// repartitioned instead; with 4 workers broadcasting costs more than
// repartitioning both (4·20 > 40 + 20), so every join is repartitioned. One
// statement runs inside a transaction block after an uncommitted INSERT into
// jb: the rows shipped to the workers must include it.
func TestJoinOrderMatchesLocalTable(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := newCluster(t, workers)
			s := joinOrderTables(t, c)
			for _, tc := range []struct {
				q         string // %[1]s is ja or la, %[2]s jb or lb
				jbOuterOK bool   // jb is the preserved side of a LEFT JOIN
			}{
				{q: "SELECT count(*) FROM %[1]s a JOIN %[2]s b ON a.g = b.w"},
				{q: "SELECT count(*) FROM %[2]s b JOIN %[1]s a ON b.w = a.g"},
				{q: "SELECT count(*) FROM %[1]s a LEFT JOIN %[2]s b ON a.g = b.w"},
				{q: "SELECT count(*) FROM %[2]s b LEFT JOIN %[1]s a ON b.w = a.g", jbOuterOK: true},
				{q: "SELECT a.k, b.k FROM %[1]s a JOIN %[2]s b ON a.t = b.t ORDER BY a.k, b.k LIMIT 15"},
				{q: "SELECT b.k, a.k FROM %[2]s b LEFT JOIN %[1]s a ON b.t = a.t ORDER BY b.k, a.k LIMIT 20", jbOuterOK: true},
				{q: "SELECT count(*), sum(a.k) FROM %[1]s a JOIN %[2]s b ON a.f = b.f"},
				{q: "SELECT a.k, b.f FROM %[1]s a LEFT JOIN %[2]s b ON a.f = b.f ORDER BY a.k, b.f"},
				{q: "SELECT b.w, count(*) FROM %[1]s a JOIN %[2]s b ON a.g = b.w GROUP BY b.w ORDER BY b.w"},
				{q: "SELECT a.g, count(b.k) FROM %[1]s a LEFT JOIN %[2]s b ON a.g = b.w GROUP BY a.g ORDER BY a.g"},
				{q: "SELECT a.k, b.k FROM %[1]s a JOIN %[2]s b ON a.g = b.w ORDER BY a.k DESC, b.k LIMIT 10"},
			} {
				joinOrderParity(t, s, tc.q)
				want := "broadcast join"
				if workers == 4 || tc.jbOuterOK {
					want = "re-partition join"
				}
				q := fmt.Sprintf(tc.q, "ja", "jb")
				if plan := rowsText(mustExec(t, s, "EXPLAIN "+q)); !strings.Contains(plan, want) {
					t.Errorf("%s: want a %s:\n%s", q, want, plan)
				}
			}

			mustExec(t, s, "BEGIN")
			for _, table := range []string{"jb", "lb"} {
				mustExec(t, s, "INSERT INTO "+table+" VALUES (99, 2, 't2', 1)")
			}
			q := "SELECT b.k, count(*) FROM %[1]s a JOIN %[2]s b ON a.g = b.w GROUP BY b.k ORDER BY b.k"
			joinOrderParity(t, s, q)
			want := "broadcast join, jb"
			if workers == 4 {
				want = "re-partition join"
			}
			if plan := rowsText(mustExec(t, s, "EXPLAIN "+fmt.Sprintf(q, "ja", "jb"))); !strings.Contains(plan, want) {
				t.Errorf("in the block: want a %s:\n%s", want, plan)
			}
			mustExec(t, s, "ROLLBACK")
			if names := leftoverResults(c); len(names) > 0 {
				t.Errorf("intermediate results survive: %v", names)
			}
		})
	}
}

// joinOrderParity runs q on ja/jb and on la/lb and compares the rows.
func joinOrderParity(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	var got [2]string
	for i, tables := range [][2]string{{"ja", "jb"}, {"la", "lb"}} {
		res, err := s.Exec(fmt.Sprintf(q, tables[0], tables[1]))
		if err != nil {
			t.Fatalf("%s: %v", fmt.Sprintf(q, tables[0], tables[1]), err)
		}
		got[i] = rowsText(res)
	}
	if got[0] != got[1] {
		t.Errorf("%s:\ndistributed:\n%s\nlocal:\n%s", fmt.Sprintf(q, "ja", "jb"), got[0], got[1])
	}
}

// TestLeftJoinNeverBroadcastsPreservedSide: with the costs tied, the
// join-order planner broadcast d, the preserved side of the LEFT JOIN, and
// every task of n3 emitted the d rows it could not match: 398 rows, not 250.
func TestLeftJoinNeverBroadcastsPreservedSide(t *testing.T) {
	c := newCluster(t, 2)
	s := subqueryTables(t, c)
	mustExec(t, s, "CREATE TABLE n3 (k bigint PRIMARY KEY, w bigint)")
	mustExec(t, s, "SELECT create_distributed_table('n3', 'k', colocate_with := 'none')")
	for k := 1; k <= 40; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO n3 VALUES (%d, %d)", k, k%5))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM d LEFT JOIN n3 ON d.g = n3.w"), "250")
}
