package engine

import (
	"math"
	"testing"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

func TestExistsSubquery(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE p (id bigint PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE q (id bigint PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO p (id) VALUES (1), (2)")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM p WHERE EXISTS (SELECT 1 FROM q)"), "0")
	mustExec(t, s, "INSERT INTO q (id) VALUES (9)")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM p WHERE EXISTS (SELECT 1 FROM q)"), "2")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM p WHERE NOT EXISTS (SELECT 1 FROM q WHERE id = 5)"), "2")
}

func TestInsertSelectLocal(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE src (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "CREATE TABLE dst (k bigint PRIMARY KEY, total bigint)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "INSERT INTO src (k, v) VALUES ($1, $2)", int64(i), int64(i*10))
	}
	res := mustExec(t, s, "INSERT INTO dst (k, total) SELECT k, v * 2 FROM src WHERE k < 5")
	if res.Affected != 5 {
		t.Fatalf("inserted %d", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT sum(total) FROM dst"), "200")
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE n (id bigint PRIMARY KEY, parent bigint)")
	mustExec(t, s, "INSERT INTO n (id, parent) VALUES (1, 0), (2, 1), (3, 1), (4, 2)")
	res := mustExec(t, s, `SELECT child.id, par.id FROM n AS child JOIN n AS par ON child.parent = par.id ORDER BY child.id`)
	expectRows(t, res, "2|1\n3|1\n4|2")
}

func TestDistinctOnExpression(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (v bigint)")
	mustExec(t, s, "INSERT INTO t (v) VALUES (1), (2), (3), (4), (5), (6)")
	res := mustExec(t, s, "SELECT DISTINCT v % 3 FROM t ORDER BY 1")
	expectRows(t, res, "0\n1\n2")
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "create table ci (K bigint primary key, V text)")
	mustExec(t, s, "insert into ci (k, v) values (1, 'x')")
	expectRows(t, mustExec(t, s, "select v from ci where k = 1"), "x")
}

func TestUpdateWithSubqueryInWhere(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "CREATE TABLE allow (k bigint PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO a (k, v) VALUES (1, 0), (2, 0), (3, 0)")
	mustExec(t, s, "INSERT INTO allow (k) VALUES (1), (3)")
	res := mustExec(t, s, "UPDATE a SET v = 1 WHERE k IN (SELECT k FROM allow)")
	if res.Affected != 2 {
		t.Fatalf("affected %d", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT sum(v) FROM a"), "2")
}

func TestHavingWithoutGroupBy(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE h (v bigint)")
	mustExec(t, s, "INSERT INTO h (v) VALUES (1), (2)")
	expectRows(t, mustExec(t, s, "SELECT sum(v) FROM h HAVING sum(v) > 2"), "3")
	res := mustExec(t, s, "SELECT sum(v) FROM h HAVING sum(v) > 100")
	if len(res.Rows) != 0 {
		t.Fatalf("having should filter the single group: %v", res.Rows)
	}
}

func TestAmbiguousColumnIsAnError(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE x1 (id bigint PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE x2 (id bigint PRIMARY KEY)")
	if _, err := s.Exec("SELECT id FROM x1, x2"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestAggregateOfExpression(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE li (price double precision, discount double precision)")
	mustExec(t, s, "INSERT INTO li (price, discount) VALUES (100, 0.1), (200, 0.2)")
	expectRows(t, mustExec(t, s, "SELECT sum(price * (1 - discount)) FROM li"), "250.0")
	// aggregates inside arithmetic
	expectRows(t, mustExec(t, s, "SELECT sum(price) / count(*) FROM li"), "150.0")
	// the same aggregate used twice is computed once and shared
	expectRows(t, mustExec(t, s, "SELECT sum(price) + sum(price) FROM li"), "600.0")
}

func TestColumnarProjectionPlanUsesNeededColumns(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE w (a bigint, b bigint, c bigint) USING columnar")
	mustExec(t, s, "INSERT INTO w (a, b, c) VALUES (1, 2, 3), (4, 5, 6)")
	// projection pushdown must not change results
	expectRows(t, mustExec(t, s, "SELECT sum(a) FROM w"), "5")
	expectRows(t, mustExec(t, s, "SELECT sum(a), max(c) FROM w"), "5|6")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM w WHERE b > 2"), "1")
	res := mustExec(t, s, "SELECT * FROM w ORDER BY a")
	expectRows(t, res, "1|2|3\n4|5|6")
}

func TestOrderByMixedDirections(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (a bigint, b bigint)")
	mustExec(t, s, "INSERT INTO m (a, b) VALUES (1, 1), (1, 2), (2, 1), (2, 2)")
	expectRows(t, mustExec(t, s, "SELECT a, b FROM m ORDER BY a DESC, b ASC"),
		"2|1\n2|2\n1|1\n1|2")
}

func TestEmptyInList(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE ei (v bigint)")
	mustExec(t, s, "INSERT INTO ei (v) VALUES (1)")
	// IN with no matching values
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ei WHERE v IN (2, 3)"), "0")
	// IN over an empty subquery result
	mustExec(t, s, "CREATE TABLE none (v bigint)")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ei WHERE v IN (SELECT v FROM none)"), "0")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ei WHERE v NOT IN (SELECT v FROM none)"), "1")
}

// TestCachedStatementKeepsVolatileFunctionsLive: constant folding must stop
// at volatile functions. The second execution below is served from the
// session statement cache; it still has to read the clock and the RNG anew.
func TestCachedStatementKeepsVolatileFunctionsLive(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	const q = "SELECT random(), now(), 1 + 2"
	first := mustExec(t, s, q)
	hits := metStmtCacheHits.Value()
	second := mustExec(t, s, q)
	if metStmtCacheHits.Value() == hits {
		t.Fatal("second execution missed the session statement cache")
	}
	if first.Rows[0][0] == second.Rows[0][0] {
		t.Errorf("random() repeated %v across executions", first.Rows[0][0])
	}
	if t1, t2 := first.Rows[0][1].(time.Time), second.Rows[0][1].(time.Time); !t2.After(t1) {
		t.Errorf("now() did not advance across executions: %v then %v", t1, t2)
	}
	if second.Rows[0][2] != int64(3) {
		t.Errorf("1 + 2 = %v", second.Rows[0][2])
	}
}

// TestGroupKeyGroupsAsFormattedText: the hash aggregate's key — bigints and
// timestamps in fixed width, never formatted — puts two values in one group
// exactly when their types.Format texts are the same, which is what its key
// was before: 1 and '1' are one key and 1.0 another, NULL is none of them, a
// timestamp groups with itself in another zone, with any other within its
// microsecond and with its own text.
func TestGroupKeyGroupsAsFormattedText(t *testing.T) {
	utc := time.Date(2024, 1, 15, 10, 30, 0, 123456000, time.UTC)
	values := []types.Datum{
		nil, "NULL", "", int64(1), "1", float64(1), "1.0", "01", "+1", "-0", int64(0), "0", int64(-1), "-1",
		int64(math.MinInt64), "-9223372036854775808", "9223372036854775808", int64(100), "100", true, "true",
		utc, utc.In(time.FixedZone("east", 2*3600)), utc.Add(999 * time.Nanosecond), utc.Add(time.Microsecond),
		"2024-01-15 10:30:00.123456", "2024-01-15 10:30:00.1234560", "2024-01-15T10:30:00.123456Z",
		utc.Truncate(time.Second), "2024-01-15 10:30:00", "2024-01-15 10:30:00.0", "2024-01-15 10:30:00 ",
		utc.Truncate(24 * time.Hour), "2024-01-15 00:00:00", "2024-01-15",
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), "0000-01-01 00:00:00", time.Unix(0, 0).UTC(), "1970-01-01 00:00:00",
		jsonb.MustParse(`{"a": 1}`), `{"a": 1}`, jsonb.MustParse(`1`),
	}
	for i, a := range values {
		for j, b := range values {
			was := hashKeyString([]types.Datum{a}) == hashKeyString([]types.Datum{b})
			is := string(appendGroupKey(nil, []types.Datum{a})) == string(appendGroupKey(nil, []types.Datum{b}))
			if was != is {
				t.Errorf("%T %v and %T %v: one group by their text: %v, by the key: %v", a, a, b, b, was, is)
			}
			// and as the second of two columns, beside every first
			for _, first := range []types.Datum{nil, int64(7), "x", utc} {
				was := hashKeyString([]types.Datum{first, a}) == hashKeyString([]types.Datum{values[(i+j)%len(values)], b})
				is := string(appendGroupKey(nil, []types.Datum{first, a})) == string(appendGroupKey(nil, []types.Datum{values[(i+j)%len(values)], b}))
				if was != is {
					t.Errorf("(%v, %v) and (%v, %v): one group by their text: %v, by the key: %v", first, a, values[(i+j)%len(values)], b, was, is)
				}
			}
		}
	}

	// through the executor: a key column that holds all of them at once
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE mixed (id bigint, n bigint, t text, ts timestamp, u text)`)
	mustExec(t, s, `INSERT INTO mixed VALUES (1, 1, '1', '2024-01-15 10:30:00', NULL), (2, 1, '1', '2024-01-15T12:30:00+02:00', '2024-01-15 10:30:00'),
		(3, NULL, NULL, NULL, NULL), (4, 2, '1.0', '2024-01-15 10:30:00.0000005', NULL)`)
	expectRows(t, mustExec(t, s, `SELECT CASE WHEN id % 2 = 1 THEN n ELSE t END, count(*) FROM mixed GROUP BY 1 ORDER BY 2 DESC, 1`), `
1|2
NULL|1
1.0|1`)
	expectRows(t, mustExec(t, s, `SELECT COALESCE(n, 1), COALESCE(t, '1'), count(*), sum(id) FROM mixed GROUP BY 1, 2 ORDER BY 3 DESC`), `
1|1|3|6
2|1.0|1|4`)
	expectRows(t, mustExec(t, s, `SELECT CASE WHEN id = 2 THEN u ELSE ts END, count(*) FROM mixed WHERE ts IS NOT NULL GROUP BY 1`), `
2024-01-15 10:30:00|3`)
}
