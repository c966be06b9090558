package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/heap"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// mustEncode encodes a row as a heap tuple holds it.
func mustEncode(t testing.TB, row ...types.Datum) []byte {
	t.Helper()
	b, err := rowbatch.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Name: "test", DeadlockInterval: 20 * time.Millisecond})
	t.Cleanup(e.Close)
	return e
}

func mustExec(t *testing.T, s *Session, q string, params ...types.Datum) *Result {
	t.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func rowsToString(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(types.Format(v))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func expectRows(t *testing.T, res *Result, want string) {
	t.Helper()
	got := strings.TrimSpace(rowsToString(res.Rows))
	want = strings.TrimSpace(want)
	if got != want {
		t.Fatalf("rows mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (id bigint PRIMARY KEY, name text, score double precision)")
	mustExec(t, s, "INSERT INTO t (id, name, score) VALUES (1, 'alice', 3.5), (2, 'bob', 1.25)")
	res := mustExec(t, s, "SELECT id, name, score FROM t ORDER BY id")
	expectRows(t, res, "1|alice|3.5\n2|bob|1.25")
	if res.Columns[1] != "name" {
		t.Fatalf("bad columns: %v", res.Columns)
	}
}

func TestSelectWhereAndParams(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (id bigint PRIMARY KEY, v bigint)")
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i*10))
	}
	res := mustExec(t, s, "SELECT v FROM t WHERE id = $1", int64(7))
	expectRows(t, res, "70")
	res = mustExec(t, s, "SELECT count(*) FROM t WHERE v BETWEEN 30 AND 60")
	expectRows(t, res, "4")
	res = mustExec(t, s, "SELECT count(*) FROM t WHERE id IN (1, 3, 5)")
	expectRows(t, res, "3")
}

func TestAggregates(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE sales (region text, amount bigint)")
	mustExec(t, s, "INSERT INTO sales (region, amount) VALUES ('east', 10), ('east', 20), ('west', 5), ('west', 5)")
	res := mustExec(t, s, "SELECT region, count(*), sum(amount), avg(amount), min(amount), max(amount) FROM sales GROUP BY region ORDER BY region")
	expectRows(t, res, "east|2|30|15.0|10|20\nwest|2|10|5.0|5|5")

	res = mustExec(t, s, "SELECT count(DISTINCT amount) FROM sales")
	expectRows(t, res, "3")

	res = mustExec(t, s, "SELECT region FROM sales GROUP BY region HAVING sum(amount) > 15 ORDER BY region")
	expectRows(t, res, "east")

	// aggregate over empty input yields one row
	res = mustExec(t, s, "SELECT count(*), sum(amount) FROM sales WHERE amount > 1000")
	expectRows(t, res, "0|NULL")
}

func TestGroupByPositionalAndExpression(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE ev (ts timestamp, n bigint)")
	mustExec(t, s, "INSERT INTO ev (ts, n) VALUES ('2020-02-01 10:00:00', 1), ('2020-02-01 23:00:00', 2), ('2020-02-02 01:00:00', 3)")
	res := mustExec(t, s, "SELECT date_trunc('day', ts), sum(n) FROM ev GROUP BY 1 ORDER BY 1")
	expectRows(t, res, "2020-02-01 00:00:00|3\n2020-02-02 00:00:00|3")
}

func TestJoins(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id bigint PRIMARY KEY, x text)")
	mustExec(t, s, "CREATE TABLE b (id bigint PRIMARY KEY, a_id bigint, y text)")
	mustExec(t, s, "INSERT INTO a (id, x) VALUES (1, 'one'), (2, 'two'), (3, 'three')")
	mustExec(t, s, "INSERT INTO b (id, a_id, y) VALUES (10, 1, 'b1'), (11, 1, 'b2'), (12, 2, 'b3')")

	res := mustExec(t, s, "SELECT a.x, b.y FROM a JOIN b ON a.id = b.a_id ORDER BY b.id")
	expectRows(t, res, "one|b1\none|b2\ntwo|b3")

	res = mustExec(t, s, "SELECT a.x, b.y FROM a LEFT JOIN b ON a.id = b.a_id ORDER BY a.id, b.id")
	expectRows(t, res, "one|b1\none|b2\ntwo|b3\nthree|NULL")

	res = mustExec(t, s, "SELECT count(*) FROM a, b WHERE a.id = b.a_id")
	expectRows(t, res, "3")

	// non-equi join falls back to nested loop: only a.id=1 < b.a_id=2
	res = mustExec(t, s, "SELECT count(*) FROM a JOIN b ON a.id < b.a_id")
	expectRows(t, res, "1")
}

func TestSubqueries(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (deviceid bigint, metric double precision)")
	mustExec(t, s, "INSERT INTO r (deviceid, metric) VALUES (1, 10), (1, 20), (2, 30)")

	// derived table (the VeniceDB query shape)
	res := mustExec(t, s, "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS device_avg FROM r GROUP BY deviceid) AS subq")
	expectRows(t, res, "22.5")

	// scalar subquery
	res = mustExec(t, s, "SELECT (SELECT max(metric) FROM r)")
	expectRows(t, res, "30.0")

	// IN subquery
	mustExec(t, s, "CREATE TABLE keep (id bigint)")
	mustExec(t, s, "INSERT INTO keep (id) VALUES (1)")
	res = mustExec(t, s, "SELECT count(*) FROM r WHERE deviceid IN (SELECT id FROM keep)")
	expectRows(t, res, "2")
}

func TestOrderLimitDistinct(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (a bigint, b bigint)")
	mustExec(t, s, "INSERT INTO t (a, b) VALUES (1, 9), (2, 8), (3, 7), (3, 6), (2, 8)")

	res := mustExec(t, s, "SELECT a FROM t ORDER BY b DESC, a LIMIT 2")
	expectRows(t, res, "1\n2")

	res = mustExec(t, s, "SELECT DISTINCT a, b FROM t ORDER BY a, b")
	expectRows(t, res, "1|9\n2|8\n3|6\n3|7")

	res = mustExec(t, s, "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 2")
	expectRows(t, res, "2\n3")

	// ORDER BY a column not in the select list (hidden sort column)
	res = mustExec(t, s, "SELECT a FROM t WHERE b < 8 ORDER BY b")
	expectRows(t, res, "3\n3")
}

func TestIndexScanIsUsed(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE big (id bigint PRIMARY KEY, v text)")
	for i := 0; i < 500; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big (id, v) VALUES (%d, 'v%d')", i, i))
	}
	res := mustExec(t, s, "EXPLAIN SELECT v FROM big WHERE id = 250")
	plan := rowsToString(res.Rows)
	if !strings.Contains(plan, "Index Scan") {
		t.Fatalf("expected index scan, got:\n%s", plan)
	}
	res = mustExec(t, s, "SELECT v FROM big WHERE id = 250")
	expectRows(t, res, "v250")

	// range scan through the index
	res = mustExec(t, s, "SELECT count(*) FROM big WHERE id >= 100 AND id < 110")
	expectRows(t, res, "10")
}

// TestIndexProbeTakesColumnType: a quoted number probing a bigint B-tree finds
// the rows the filter finds — for SELECT, UPDATE and DELETE, by equality and
// by range, as a literal and as a parameter. `k + 0` keeps a conjunct off the
// index, so it is the filter path's answer.
func TestIndexProbeTakesColumnType(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE loc (k bigint PRIMARY KEY, v bigint)")
	for k := 1; k <= 50; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO loc VALUES (%d, %d)", k, k*10))
	}
	plan := rowsToString(mustExec(t, s, "EXPLAIN SELECT v FROM loc WHERE k = '7'").Rows)
	if !strings.Contains(plan, "Index Scan using loc_pkey") {
		t.Fatalf("expected an index scan:\n%s", plan)
	}
	for _, tc := range []struct {
		index, filter string
		params        []types.Datum
	}{
		{"SELECT v FROM loc WHERE k = '7'", "SELECT v FROM loc WHERE k + 0 = '7'", nil},
		{"SELECT v FROM loc WHERE k = $1", "SELECT v FROM loc WHERE k + 0 = $1", []types.Datum{"7"}},
		// the string takes the bigint type of k + 0 as it takes k's: both
		// paths count 45..50, not the textual 45..50 and 5..9
		{"SELECT count(*) FROM loc WHERE k >= '45'", "SELECT count(*) FROM loc WHERE k + 0 >= '45'", nil},
		{"SELECT count(*) FROM loc WHERE k BETWEEN '3' AND '9'", "SELECT count(*) FROM loc WHERE k + 0 BETWEEN '3' AND '9'", nil},
		{"SELECT count(*) FROM loc WHERE k < '10'", "SELECT count(*) FROM loc WHERE '10' > k + 0", nil},
	} {
		want := rowsToString(mustExec(t, s, tc.filter, tc.params...).Rows)
		if got := rowsToString(mustExec(t, s, tc.index, tc.params...).Rows); got != want || got == "" {
			t.Errorf("%s: index path %q, filter path %q", tc.index, got, want)
		}
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM loc WHERE k + 0 >= '45'"), "6")
	if res := mustExec(t, s, "UPDATE loc SET v = 0 WHERE k = '8'"); res.Affected != 1 {
		t.Errorf("UPDATE ... WHERE k = '8' affected %d rows, want 1", res.Affected)
	}
	if res := mustExec(t, s, "DELETE FROM loc WHERE k = '9'"); res.Affected != 1 {
		t.Errorf("DELETE ... WHERE k = '9' affected %d rows, want 1", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM loc WHERE v = 0"), "1")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM loc"), "49")
}

func TestCompositeKeyIndex(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE o (w bigint, d bigint, id bigint, PRIMARY KEY (w, d, id))")
	mustExec(t, s, "INSERT INTO o (w, d, id) VALUES (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)")
	res := mustExec(t, s, "SELECT count(*) FROM o WHERE w = 1 AND d = 1")
	expectRows(t, res, "2")
	res = mustExec(t, s, "SELECT count(*) FROM o WHERE w = 1")
	expectRows(t, res, "3")
	res = mustExec(t, s, "EXPLAIN SELECT count(*) FROM o WHERE w = 1 AND d = 1 AND id = 2")
	if !strings.Contains(rowsToString(res.Rows), "Index Scan") {
		t.Fatal("expected composite index scan")
	}
}

func TestJSONBAndGIN(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE github_events (event_id text PRIMARY KEY, data jsonb)")
	mustExec(t, s, `INSERT INTO github_events (event_id, data) VALUES
		('e1', '{"created_at": "2020-02-01", "payload": {"commits": [{"message": "fix postgres bug"}, {"message": "other"}]}}'),
		('e2', '{"created_at": "2020-02-01", "payload": {"commits": [{"message": "add feature"}]}}'),
		('e3', '{"created_at": "2020-02-02", "payload": {"commits": [{"message": "postgres tuning"}]}}')`)
	mustExec(t, s, `CREATE INDEX text_search_idx ON github_events USING gin ((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) gin_trgm_ops)`)

	// the paper's dashboard query
	q := `SELECT (data->>'created_at')::date, sum(jsonb_array_length(data->'payload'->'commits'))
	      FROM github_events
	      WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%'
	      GROUP BY 1 ORDER BY 1 ASC`
	res := mustExec(t, s, q)
	expectRows(t, res, "2020-02-01 00:00:00|2\n2020-02-02 00:00:00|1")

	// verify the GIN index is chosen
	res = mustExec(t, s, "EXPLAIN "+q)
	if !strings.Contains(rowsToString(res.Rows), "trigram") {
		t.Fatalf("expected trigram index scan:\n%s", rowsToString(res.Rows))
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 10), (2, 20), (3, 30)")

	res := mustExec(t, s, "UPDATE t SET v = v + 1 WHERE k = 2")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 2"), "21")

	res = mustExec(t, s, "DELETE FROM t WHERE v > 25")
	if res.Affected != 1 {
		t.Fatalf("deleted = %d", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "2")
}

func TestOnConflict(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 'a')")

	if _, err := s.Exec("INSERT INTO t (k, v) VALUES (1, 'dup')"); err == nil {
		t.Fatal("expected unique violation")
	}
	res := mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 'dup') ON CONFLICT (k) DO NOTHING")
	if res.Affected != 0 {
		t.Fatal("DO NOTHING should not insert")
	}
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 'new') ON CONFLICT (k) DO UPDATE SET v = excluded.v")
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 1"), "new")
	// the conflicting row was written before the column was added: excluded.*
	// still lines up with the table's columns
	mustExec(t, s, "ALTER TABLE t ADD COLUMN n bigint")
	mustExec(t, s, "INSERT INTO t (k, v, n) VALUES (1, 'late', 7) ON CONFLICT (k) DO UPDATE SET v = excluded.v, n = excluded.n")
	expectRows(t, mustExec(t, s, "SELECT v, n FROM t WHERE k = 1"), "late|7")
}

func TestReturning(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	res := mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 10) RETURNING k, v")
	expectRows(t, res, "1|10")
	res = mustExec(t, s, "UPDATE t SET v = v * 2 WHERE k = 1 RETURNING v")
	expectRows(t, res, "20")
}

func TestTransactionsCommitRollback(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 1)")
	mustExec(t, s, "COMMIT")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "1")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (2, 2)")
	mustExec(t, s, "ROLLBACK")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "1")

	// failed statement poisons the transaction
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("INSERT INTO t (k, v) VALUES (1, 1)"); err == nil {
		t.Fatal("expected unique violation")
	}
	if _, err := s.Exec("SELECT 1"); err == nil {
		t.Fatal("expected 'transaction is aborted' error")
	}
	res := mustExec(t, s, "COMMIT")
	if res.Tag != "ROLLBACK" {
		t.Fatalf("COMMIT of failed txn should roll back, got %s", res.Tag)
	}
}

func TestMVCCIsolation(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession()
	s2 := e.NewSession()
	mustExec(t, s1, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s1, "INSERT INTO t (k, v) VALUES (1, 100)")

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE t SET v = 200 WHERE k = 1")
	// s1 sees its own write; s2 still sees the old version
	expectRows(t, mustExec(t, s1, "SELECT v FROM t WHERE k = 1"), "200")
	expectRows(t, mustExec(t, s2, "SELECT v FROM t WHERE k = 1"), "100")
	mustExec(t, s1, "COMMIT")
	expectRows(t, mustExec(t, s2, "SELECT v FROM t WHERE k = 1"), "200")
}

func TestConcurrentUpdateChase(t *testing.T) {
	e := newTestEngine(t)
	s0 := e.NewSession()
	mustExec(t, s0, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s0, "INSERT INTO c (k, v) VALUES (1, 0)")

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			for i := 0; i < iters; i++ {
				if _, err := sess.Exec("UPDATE c SET v = v + 1 WHERE k = 1"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent update failed: %v", err)
	}
	expectRows(t, mustExec(t, s0, "SELECT v FROM c WHERE k = 1"),
		fmt.Sprintf("%d", workers*iters))
}

func TestLocalDeadlockDetection(t *testing.T) {
	e := newTestEngine(t)
	s0 := e.NewSession()
	mustExec(t, s0, "CREATE TABLE d (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s0, "INSERT INTO d (k, v) VALUES (1, 0), (2, 0)")

	s1 := e.NewSession()
	s2 := e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE d SET v = 1 WHERE k = 1")
	mustExec(t, s2, "UPDATE d SET v = 2 WHERE k = 2")

	done := make(chan error, 2)
	go func() {
		_, err := s1.Exec("UPDATE d SET v = 1 WHERE k = 2")
		done <- err
	}()
	go func() {
		_, err := s2.Exec("UPDATE d SET v = 2 WHERE k = 1")
		done <- err
	}()
	var failures int
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				failures++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock was not detected")
		}
	}
	if failures == 0 {
		t.Fatal("expected one transaction to be cancelled")
	}
	s1.Exec("ROLLBACK")
	s2.Exec("ROLLBACK")
}

func TestPreparedTransactions(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k) VALUES (1)")
	mustExec(t, s, "PREPARE TRANSACTION 'gid1'")

	// not yet visible
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "0")
	if got := e.Txns.ListPrepared(); len(got) != 1 || got[0].GID != "gid1" {
		t.Fatalf("prepared list = %+v", got)
	}

	// commit from a different session — the prepared state is global
	s2 := e.NewSession()
	mustExec(t, s2, "COMMIT PREPARED 'gid1'")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "1")

	// rollback prepared
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k) VALUES (2)")
	mustExec(t, s, "PREPARE TRANSACTION 'gid2'")
	mustExec(t, s2, "ROLLBACK PREPARED 'gid2'")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "1")

	if _, err := s2.Exec("COMMIT PREPARED 'nonexistent'"); err == nil {
		t.Fatal("expected error for unknown gid")
	}
}

func TestPreparedTransactionHoldsLocks(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 0)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET v = 1 WHERE k = 1")
	mustExec(t, s, "PREPARE TRANSACTION 'hold'")

	// a concurrent update must block until the prepared txn resolves
	s2 := e.NewSession()
	done := make(chan struct{})
	go func() {
		mustExec(t, s2, "UPDATE t SET v = 2 WHERE k = 1")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("update should block on prepared transaction's lock")
	case <-time.After(100 * time.Millisecond):
	}
	mustExec(t, s, "COMMIT PREPARED 'hold'")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("update did not proceed after COMMIT PREPARED")
	}
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 1"), "2")
}

func TestVacuumReclaimsDeadTuples(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 0)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "UPDATE t SET v = v + 1 WHERE k = 1")
	}
	res := mustExec(t, s, "VACUUM t")
	if res.Affected != 10 {
		t.Fatalf("vacuumed %d dead tuples, want 10", res.Affected)
	}
	// data still correct after vacuum
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 1"), "10")
}

func TestCopyFrom(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v text)")
	n, err := s.CopyFrom("t", []string{"k", "v"}, []types.Row{
		{int64(1), "a"}, {int64(2), "b"}, {int64(3), "c"},
	})
	if err != nil || n != 3 {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t"), "3")
}

// TestInsertAndCopyFillColumnsAlike: INSERT and COPY map a column list out of
// the table's order onto its columns the same way — a DEFAULT fills what the
// list leaves out, NOT NULL and type checks see the filled row — and fail
// the same way. A DEFAULT that cannot be computed fails only a row that
// needs it.
func TestInsertAndCopyFillColumnsAlike(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, d text DEFAULT 'dflt', n bigint NOT NULL, x double precision)")
	mustExec(t, s, "CREATE TABLE src (a bigint, b bigint)")
	mustExec(t, s, "INSERT INTO t (n, k) VALUES (10, 1), (20, 2)")
	if n, err := s.CopyFrom("t", []string{"n", "k"}, []types.Row{{int64(30), int64(3)}, {int64(40), int64(4)}}); err != nil || n != 2 {
		t.Fatalf("copy: %d, %v", n, err)
	}
	mustExec(t, s, "INSERT INTO src (a, b) VALUES (50, 5), (60, 6)")
	mustExec(t, s, "INSERT INTO t (n, k) SELECT a, b FROM src")
	mustExec(t, s, "INSERT INTO t (x, k, n, d) VALUES (1.5, 7, 70, NULL)")
	if _, err := s.CopyFrom("t", []string{"x", "k", "n", "d"}, []types.Row{{int64(2), int64(8), "80", nil}}); err != nil {
		t.Fatal(err)
	}
	expectRows(t, mustExec(t, s, "SELECT k, d, n, x FROM t ORDER BY k"),
		"1|dflt|10|NULL\n2|dflt|20|NULL\n3|dflt|30|NULL\n4|dflt|40|NULL\n5|dflt|50|NULL\n6|dflt|60|NULL\n7|NULL|70|1.5\n8|NULL|80|2.0")

	for _, c := range []struct {
		sql  string
		cols []string
		row  types.Row
		want string
	}{
		{"INSERT INTO t (k, d) VALUES (9, 'e')", []string{"k", "d"}, types.Row{int64(9), "e"},
			`null value in column "n" violates not-null constraint`},
		{"INSERT INTO t (n, k) VALUES ('many', 9)", []string{"n", "k"}, types.Row{"many", int64(9)},
			`column "n": `},
		{"INSERT INTO t (n, nope) VALUES (1, 9)", []string{"n", "nope"}, types.Row{int64(1), int64(9)},
			`column "nope" of relation "t" does not exist`},
	} {
		_, ierr := s.Exec(c.sql)
		_, cerr := s.CopyFrom("t", c.cols, []types.Row{c.row})
		if ierr == nil || cerr == nil || ierr.Error() != cerr.Error() || !strings.Contains(ierr.Error(), c.want) {
			t.Errorf("%s: INSERT fails with %v, COPY with %v; want both %q", c.sql, ierr, cerr, c.want)
		}
	}

	mustExec(t, s, "CREATE TABLE bad (k bigint, v bigint DEFAULT k)")
	mustExec(t, s, "INSERT INTO bad (k) SELECT a FROM src WHERE a < 0") // no row needs the default
	mustExec(t, s, "INSERT INTO bad (k, v) VALUES (1, 1)")
	_, ierr := s.Exec("INSERT INTO bad (k) VALUES (2)")
	_, cerr := s.CopyFrom("bad", []string{"k"}, []types.Row{{int64(2)}})
	if want := `column "k" cannot be referenced here`; ierr == nil || cerr == nil || ierr.Error() != want || cerr.Error() != want {
		t.Fatalf("a default that does not compile: INSERT fails with %v, COPY with %v; want %q", ierr, cerr, want)
	}
	expectRows(t, mustExec(t, s, "SELECT k, v FROM bad"), "1|1")
}

// TestReclaimedSlotStaysInvisible: a heap slot vacuum reclaimed while an index
// still names it — a heap pass whose callback leaves the entry where it is —
// and that a stale writer then stamped an Xmax on, is skipped by the unique
// check of an INSERT, by an index scan and by UPDATE and DELETE.
func TestReclaimedSlotStaysInvisible(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE u (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO u (k, v) VALUES (1, 0)")
	mustExec(t, s, "ROLLBACK")
	st, _ := e.store("u")
	root := heap.NilTID
	// the heap only: the index keeps the entry
	n := st.heap.Vacuum(e.Txns, e.Txns.GlobalXmin(), st.hotCols, func(tid heap.TID, _ []byte, _ heap.TID) { root = tid })
	if n != 1 || root == heap.NilTID {
		t.Fatalf("vacuum reclaimed %d versions (root %d), want the aborted insert", n, root)
	}
	stale := e.Txns.Begin()
	st.heap.MarkDeleted(root, stale.XID(), heap.NilTID, false)
	if err := e.Txns.Commit(stale); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, "INSERT INTO u (k, v) VALUES (1, 1)")
	expectRows(t, mustExec(t, s, "SELECT v FROM u WHERE k = 1"), "1")
	if res := mustExec(t, s, "UPDATE u SET v = 2 WHERE k = 1"); res.Affected != 1 {
		t.Fatalf("UPDATE touched %d rows, want 1", res.Affected)
	}
	if res := mustExec(t, s, "DELETE FROM u WHERE k = 1"); res.Affected != 1 {
		t.Fatalf("DELETE touched %d rows, want 1", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM u"), "0")
}

func TestAlterTableAddColumn(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t (k) VALUES (1)")
	mustExec(t, s, "ALTER TABLE t ADD COLUMN note text")
	// old rows read the new column as NULL
	expectRows(t, mustExec(t, s, "SELECT k, note FROM t"), "1|NULL")
	mustExec(t, s, "INSERT INTO t (k, note) VALUES (2, 'hello')")
	expectRows(t, mustExec(t, s, "SELECT note FROM t WHERE k = 2"), "hello")
}

func TestColumnarTable(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE facts (k bigint, v double precision) USING columnar")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO facts (k, v) VALUES (%d, %d.5)", i, i))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*), min(k), max(k) FROM facts"), "100|0|99")
	if _, err := s.Exec("UPDATE facts SET v = 0 WHERE k = 1"); err == nil {
		t.Fatal("columnar tables must reject UPDATE")
	}
	if _, err := s.Exec("DELETE FROM facts WHERE k = 1"); err == nil {
		t.Fatal("columnar tables must reject DELETE")
	}
}

func TestForeignKeys(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE parent (id bigint PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE child (id bigint PRIMARY KEY, pid bigint REFERENCES parent (id))")
	mustExec(t, s, "INSERT INTO parent (id) VALUES (1)")
	mustExec(t, s, "INSERT INTO child (id, pid) VALUES (10, 1)")
	if _, err := s.Exec("INSERT INTO child (id, pid) VALUES (11, 99)"); err == nil {
		t.Fatal("expected foreign key violation")
	}
	// NULL FK column is allowed
	mustExec(t, s, "INSERT INTO child (id, pid) VALUES (12, NULL)")
}

func TestSelectForUpdateBlocks(t *testing.T) {
	e := newTestEngine(t)
	s1 := e.NewSession()
	mustExec(t, s1, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s1, "INSERT INTO t (k, v) VALUES (1, 0)")

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "SELECT * FROM t WHERE k = 1 FOR UPDATE")

	s2 := e.NewSession()
	done := make(chan struct{})
	go func() {
		mustExec(t, s2, "UPDATE t SET v = 9 WHERE k = 1")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("FOR UPDATE lock not held")
	case <-time.After(100 * time.Millisecond):
	}
	mustExec(t, s1, "COMMIT")
	<-done
}

func TestWALReplayRebuildsState(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, 10), (2, 20)")
	mustExec(t, s, "UPDATE t SET v = 15 WHERE k = 1")
	mustExec(t, s, "DELETE FROM t WHERE k = 2")

	// uncommitted work must not survive
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (3, 30)")
	// (no commit)

	e2 := newTestEngine(t)
	if err := e2.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	s2 := e2.NewSession()
	res := mustExec(t, s2, "SELECT k, v FROM t ORDER BY k")
	expectRows(t, res, "1|15")
}

func TestWALReplayPreparedPending(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (k) VALUES (1)")
	mustExec(t, s, "PREPARE TRANSACTION 'pending'")

	e2 := newTestEngine(t)
	if err := e2.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	s2 := e2.NewSession()
	// still invisible: prepared but unresolved
	expectRows(t, mustExec(t, s2, "SELECT count(*) FROM t"), "0")
	if got := e2.Txns.ListPrepared(); len(got) != 1 || got[0].GID != "pending" {
		t.Fatalf("prepared after replay: %+v", got)
	}
	// resolving it makes the insert visible
	mustExec(t, s2, "COMMIT PREPARED 'pending'")
	expectRows(t, mustExec(t, s2, "SELECT count(*) FROM t"), "1")
}

func TestCaseAndScalarFunctions(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	res := mustExec(t, s, "SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END")
	expectRows(t, res, "yes")
	res = mustExec(t, s, "SELECT upper('abc'), length('hello'), coalesce(NULL, 'x'), abs(-3)")
	expectRows(t, res, "ABC|5|x|3")
	res = mustExec(t, s, "SELECT substr('abcdef', 2, 3), 1 + 2 * 3, 7 / 2, 7 % 3")
	expectRows(t, res, "bcd|7|3|1")
	res = mustExec(t, s, "SELECT md5('x') = md5('x'), md5('x') = md5('y')")
	expectRows(t, res, "true|false")
}

func TestNullSemantics(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (1, NULL), (2, 5)")
	// NULL comparisons never match
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t WHERE v = 5"), "1")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t WHERE v <> 5"), "0")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t WHERE v IS NULL"), "1")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM t WHERE v IS NOT NULL"), "1")
	// aggregates skip NULLs
	expectRows(t, mustExec(t, s, "SELECT count(v), sum(v) FROM t"), "1|5")
}

func TestExplainSelect(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY)")
	res := mustExec(t, s, "EXPLAIN SELECT count(*) FROM t WHERE k > 5")
	if len(res.Rows) == 0 {
		t.Fatal("empty explain")
	}
}

func TestStoredProcedure(t *testing.T) {
	e := newTestEngine(t)
	e.RegisterProcedure("bump", func(s *Session, args []types.Datum) error {
		_, err := s.Exec("UPDATE t SET v = v + $1 WHERE k = $2", args[0], args[1])
		return err
	})
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO t (k, v) VALUES (7, 0)")
	mustExec(t, s, "CALL bump(5, 7)")
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 7"), "5")
	// the CALL's arguments bind the statement's parameters
	mustExec(t, s, "CALL bump($1, $2)", int64(5), int64(7))
	expectRows(t, mustExec(t, s, "SELECT v FROM t WHERE k = 7"), "10")
	// an argument's subquery runs in the CALL's own transaction, which
	// commits with it
	mustExec(t, s, "CALL bump((SELECT 5), 7)")
	if s.Txn() != nil {
		t.Fatal("an autocommit CALL left its transaction open")
	}
	expectRows(t, mustExec(t, e.NewSession(), "SELECT v FROM t WHERE k = 7"), "15")
}

// TestCountStarReadsNoColumn: a scan for a query that names none of its
// table's columns reads none of them, an empty set and not nil, which reads
// every one, and row at a time still counts every row: of a heap table, rows
// stored before an ADD COLUMN included, and of a columnar table.
func TestCountStarReadsNoColumn(t *testing.T) {
	e := newTestEngine(t)
	e.SetFeatures(Features{NoVectorized: true})
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE h (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "CREATE TABLE c (k bigint, v text) USING columnar")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "INSERT INTO h (k, v) VALUES ($1, 'x')", int64(i))
		mustExec(t, s, "INSERT INTO c (k, v) VALUES ($1, 'x')", int64(i))
	}
	mustExec(t, s, "ALTER TABLE h ADD COLUMN w bigint")
	mustExec(t, s, "INSERT INTO h (k, v, w) VALUES (10, 'y', 1)")
	for table, want := range map[string]string{"h": "11", "c": "10"} {
		q := "SELECT count(*) FROM " + table
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		pool := &conjunctPool{needed: collectNeededColumns(stmt.(*sql.SelectStmt))}
		if needed := pool.neededFor(table, []scopeCol{{name: "k"}, {name: "v"}}); needed == nil || len(needed) != 0 {
			t.Fatalf("%s reads columns %#v, want an empty set (nil reads all)", q, needed)
		}
		expectRows(t, mustExec(t, s, q), want)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM h WHERE w IS NULL"), "10")
	// the columnar scan of no column loads no column chunk's pages
	hits, misses := e.Pool.Stats()
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM c"), "10")
	if h, m := e.Pool.Stats(); h+m != hits+misses {
		t.Fatalf("count(*) on a columnar table touched %d pages", h+m-hits-misses)
	}
}

// TestSessionStmtCacheBounded: the statement cache is all the per-text state a
// session keeps, on a worker as anywhere, and it is bounded: more distinct
// texts than sessionStmtCacheCap never hold more entries than that. A text the
// flush dropped is parsed again on its next use; one seen since is a hit.
func TestSessionStmtCacheBounded(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE sc (k bigint PRIMARY KEY)")
	text := func(i int) string { return fmt.Sprintf("SELECT k FROM sc WHERE k = %d", i) }
	const texts = sessionStmtCacheCap + 44
	for i := 0; i < texts; i++ {
		mustExec(t, s, text(i))
		if n := len(s.stmtCache); n > sessionStmtCacheCap {
			t.Fatalf("after %d distinct texts the cache holds %d entries, cap %d", i+1, n, sessionStmtCacheCap)
		}
	}
	if n := len(s.stmtCache); n != 44 {
		t.Fatalf("%d entries after %d distinct texts, want the 44 since the flush", n, texts)
	}
	if _, ok := s.stmtCache[text(0)]; ok {
		t.Fatal("the first text survived the flush")
	}
	if _, ok := s.stmtCache[text(texts-1)]; !ok {
		t.Fatal("the last text is not cached")
	}
}

// TestDropIndex: DROP INDEX takes a B-tree or a GIN index away — plans kept
// from before it stop searching it, writes stop maintaining it — refuses a
// primary key's and an unknown index unless IF EXISTS, and a node rebuilt
// from the log, with or without a checkpoint under it, has no such index.
func TestDropIndex(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE di (k bigint PRIMARY KEY, v bigint, body text)")
	mustExec(t, s, "CREATE INDEX di_v ON di (v)")
	mustExec(t, s, "CREATE INDEX di_body ON di USING gin ((body) gin_trgm_ops)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, "INSERT INTO di VALUES ($1, $2, $3)", int64(i), int64(i%5), fmt.Sprintf("body %d", i))
	}
	byV, byBody := "SELECT count(*) FROM di WHERE v = 3", "SELECT count(*) FROM di WHERE body LIKE '%ody 1%'"
	plans := func() string {
		return rowsToString(mustExec(t, s, "EXPLAIN "+byV).Rows) + rowsToString(mustExec(t, s, "EXPLAIN "+byBody).Rows)
	}
	if p := plans(); !strings.Contains(p, "di_v") || !strings.Contains(p, "di_body") {
		t.Fatalf("the indexes are not searched:\n%s", p)
	}
	expectRows(t, mustExec(t, s, byV), "4")
	expectRows(t, mustExec(t, s, byBody), "11")

	mustExec(t, s, "DROP INDEX di_v")
	mustExec(t, s, "DROP INDEX IF EXISTS di_body")
	if p := plans(); strings.Contains(p, "di_v") || strings.Contains(p, "di_body") {
		t.Fatalf("a dropped index is still searched:\n%s", p)
	}
	mustExec(t, s, "UPDATE di SET v = 3 WHERE k = 0")
	mustExec(t, s, "INSERT INTO di VALUES (100, 3, 'body 100')")
	expectRows(t, mustExec(t, s, byV), "6")
	expectRows(t, mustExec(t, s, byBody), "12")
	st, _ := e.store("di")
	if len(st.btrees) != 1 || len(st.gins) != 0 {
		t.Fatalf("%d B-trees and %d GIN indexes left, want the primary key's alone", len(st.btrees), len(st.gins))
	}

	mustExec(t, s, "DROP INDEX IF EXISTS di_v")
	// index names are one namespace: another table cannot take di_body or
	// di_pkey, so DROP INDEX and its replay always find the same table
	mustExec(t, s, "CREATE TABLE dj (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "CREATE INDEX di_body ON di (body)")
	for _, q := range []string{"CREATE INDEX di_body ON dj (v)", "CREATE INDEX di_pkey ON dj (v)"} {
		if _, err := s.Exec(q); err == nil {
			t.Fatalf("%s succeeded", q)
		}
	}
	mustExec(t, s, "CREATE INDEX IF NOT EXISTS di_body ON dj (v)")
	mustExec(t, s, "DROP INDEX di_body")
	if st, _ := e.store("di"); len(st.btrees) != 1 {
		t.Fatalf("DROP INDEX di_body left di with %d B-trees", len(st.btrees))
	}
	for _, q := range []string{"DROP INDEX di_v", "DROP INDEX di_pkey"} {
		if _, err := s.Exec(q); err == nil {
			t.Fatalf("%s succeeded", q)
		}
	}

	// the same schema on a node rebuilt from the log, then from a base
	for _, checkpoint := range []bool{false, true} {
		if checkpoint && !e.Checkpoint() {
			t.Fatal("the checkpoint was not taken")
		}
		r := newTestEngine(t)
		if err := r.RecoverFrom(e.WAL, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Catalog.IndexTable("di_v"); ok {
			t.Fatalf("checkpoint %v: the rebuilt node has di_v", checkpoint)
		}
		rs := r.NewSession()
		expectRows(t, mustExec(t, rs, byV), "6")
		mustExec(t, rs, "CREATE INDEX di_v ON di (v)")
		expectRows(t, mustExec(t, rs, byV), "6")
	}
}
