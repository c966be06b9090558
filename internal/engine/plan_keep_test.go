package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"citusgo/internal/trace"
	"citusgo/internal/types"
)

// keptStep is one statement of TestWorkerPlanCacheParity and the parameter
// sets it runs with, one execution each (none: one execution without).
type keptStep struct {
	q      string
	params [][]types.Datum
	write  bool // an UPDATE or a DELETE: SET transaction_isolation leaves its plan kept
}

func (st keptStep) runs() [][]types.Datum {
	if len(st.params) == 0 {
		return [][]types.Datum{nil}
	}
	return st.params
}

func args(vals ...types.Datum) []types.Datum { return vals }

var keptSteps = []keptStep{
	// point reads and a range through the primary key
	{q: "SELECT g, v, s FROM t WHERE k = $1", params: [][]types.Datum{args(int64(5)), args(int64(17)), args(int64(999))}},
	{q: "SELECT k, g FROM t WHERE k BETWEEN $1 AND $2 ORDER BY k", params: [][]types.Datum{args(int64(10), int64(14)), args(int64(30), int64(33))}},
	// a sequential scan until CREATE INDEX gives g an index
	{q: "SELECT k FROM t WHERE g = $1 ORDER BY k", params: [][]types.Datum{args(int64(2)), args(int64(4))}},
	{q: "SELECT * FROM t WHERE k = $1", params: [][]types.Datum{args(int64(3))}},
	// a vectorized grouped aggregate over the heap, with a parameter in its filter
	{q: "SELECT g, count(*), sum(v) FROM t WHERE v > $1 GROUP BY g ORDER BY g", params: [][]types.Datum{args(2.0), args(5.5)}},
	// TopN over a columnar grouped aggregate, the bound a parameter
	{q: "SELECT g, count(*), sum(w) FROM c GROUP BY g ORDER BY g LIMIT $1", params: [][]types.Datum{args(int64(2)), args(int64(4))}},
	// hash joins: vectorized under an aggregate, row at a time under a sort
	{q: "SELECT t.g, sum(u.w), count(*) FROM t, u WHERE t.k = u.k GROUP BY t.g ORDER BY t.g"},
	{q: "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k WHERE u.w < $1 ORDER BY t.k", params: [][]types.Datum{args(int64(-30)), args(int64(-5))}},
	// a scalar and an IN subquery, run per execution
	{q: "SELECT k FROM t WHERE v > (SELECT avg(v) FROM t) ORDER BY k"},
	{q: "SELECT count(*) FROM t WHERE k IN (SELECT k FROM u WHERE w > $1)", params: [][]types.Datum{args(int64(-20)), args(int64(-8))}},
	// the trigram index asked for each execution's pattern, row at a time
	// and vectorized
	{q: "SELECT id FROM docs WHERE doc ->> 'msg' ILIKE $1 ORDER BY id", params: [][]types.Datum{args("%postgres%"), args("%fix%"), args(nil), args("%x%")}},
	{q: "SELECT count(*) FROM docs WHERE doc ->> 'msg' ILIKE $1", params: [][]types.Datum{args("%postgres%"), args("%fix%"), args("%x%")}},
	// writes, through the primary key and through a scan
	{q: "UPDATE t SET v = v + $2 WHERE k = $1 RETURNING k, v", params: [][]types.Datum{args(int64(3), 1.5), args(int64(4), 2.5)}, write: true},
	{q: "UPDATE t SET s = $3 WHERE k > $1 AND k < $2 RETURNING k, s", params: [][]types.Datum{args(int64(20), int64(24), "a"), args(int64(35), int64(38), "b")}, write: true},
	{q: "DELETE FROM u WHERE k = $1", params: [][]types.Datum{args(int64(7)), args(int64(8))}, write: true},
	{q: "DELETE FROM u WHERE w < $1", params: [][]types.Datum{args(int64(-38))}, write: true},
}

// loadKeptSchema creates the tables of TestWorkerPlanCacheParity on e: heap
// tables t and u, a columnar table c of several stripes, and a table of text
// under a trigram index.
func loadKeptSchema(t *testing.T, e *Engine) {
	t.Helper()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, g bigint, v double precision, s text)")
	mustExec(t, s, "CREATE TABLE u (k bigint PRIMARY KEY, w bigint)")
	mustExec(t, s, "CREATE TABLE c (k bigint, g bigint, w bigint) USING columnar")
	mustExec(t, s, "CREATE TABLE docs (id bigint PRIMARY KEY, doc jsonb)")
	mustExec(t, s, "CREATE INDEX docs_trgm ON docs USING gin ((doc ->> 'msg') gin_trgm_ops)")
	for k := 1; k <= 40; k++ {
		g := fmt.Sprint(k % 5)
		if k%7 == 0 {
			g = "NULL"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %d.25, 's%d')", k, g, k%9, k%4))
		mustExec(t, s, fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", k, -k))
	}
	for stripe := 0; stripe < 3; stripe++ {
		for k := stripe * 30; k < (stripe+1)*30; k++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO c VALUES (%d, %d, %d)", k, k%6, k*3))
		}
		e.Checkpoint() // closes the stripe
	}
	for id, body := range []string{"fix postgres", "postgres rocks", "a fix", "nothing here", "PostgreSQL fixes", "xyz"} {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO docs VALUES (%d, '{"msg": "%s"}')`, id, body))
	}
}

// outcome is what one execution showed a client.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v %s\n%s", res.Columns, res.Tag, rowsToString(res.Rows))
}

// TestWorkerPlanCacheParity is the differential oracle of kept plans: every
// statement runs on an engine whose sessions keep plans in their statement
// cache and on one with the cache off (Features.NoPlanCache), over the same
// rows, in the same order, and must show the same thing each time. The
// second execution of a text must be a cache hit with no plan span: the
// kept plan serves it, whatever its $n. Then each change a kept plan
// depends on is applied to both engines in turn, and the next execution
// must plan again and still agree.
func TestWorkerPlanCacheParity(t *testing.T) {
	kept := New(Config{Name: "kept", DeadlockInterval: 20 * time.Millisecond})
	t.Cleanup(kept.Close)
	kept.Tracer = trace.New(1, "kept", trace.Config{})
	oracle := New(Config{Name: "oracle", DeadlockInterval: 20 * time.Millisecond, Features: Features{NoPlanCache: true}})
	t.Cleanup(oracle.Close)
	loadKeptSchema(t, kept)
	loadKeptSchema(t, oracle)
	ks, osess := kept.NewSession(), oracle.NewSession()

	// both runs one statement on each engine and compares; planned reports
	// whether the kept engine's execution planned.
	both := func(t *testing.T, q string, params []types.Datum) (planned bool) {
		t.Helper()
		got := outcome(ks.Exec(q, params...))
		want := outcome(osess.Exec(q, params...))
		if got != want {
			t.Errorf("%s %v:\nkept:   %s\noracle: %s", q, params, got, want)
		}
		return slices.ContainsFunc(kept.Tracer.Collect(ks.LastTraceID), func(sp trace.Span) bool {
			return sp.Kind == "plan"
		})
	}
	both2 := func(q string) { // a step outside the oracle's comparison
		t.Helper()
		mustExec(t, ks, q)
		mustExec(t, osess, q)
	}
	// runAll runs every step's parameter sets, the first execution of each
	// text after a change planning it again when replans says so, every
	// later one served from the cache without a plan.
	runAll := func(t *testing.T, replans func(keptStep) bool) {
		t.Helper()
		for _, st := range keptSteps {
			for i, params := range st.runs() {
				hits := metStmtCacheHits.Value()
				planned := both(t, st.q, params)
				hit := metStmtCacheHits.Value() > hits
				if i == 0 && replans != nil {
					if want := replans(st); planned != want {
						t.Errorf("%s: planned=%v after the change, want %v", st.q, planned, want)
					}
					continue
				}
				if !hit || planned {
					t.Errorf("%s %v: execution %d: cache hit=%v, planned=%v; want a hit served by the kept plan",
						st.q, params, i+1, hit, planned)
				}
			}
		}
	}
	all := func(keptStep) bool { return true }

	// the shapes the steps mean to keep are the ones planned
	for q, want := range map[string]string{
		"SELECT id FROM docs WHERE doc ->> 'msg' ILIKE $1 ORDER BY id":                       "Bitmap Index Scan using docs_trgm",
		"SELECT count(*) FROM docs WHERE doc ->> 'msg' ILIKE $1":                             "Vectorized Bitmap Heap Scan on docs",
		"SELECT g, count(*), sum(v) FROM t WHERE v > $1 GROUP BY g ORDER BY g":               "Vectorized Heap Scan on t",
		"SELECT t.g, sum(u.w), count(*) FROM t, u WHERE t.k = u.k GROUP BY t.g ORDER BY t.g": "Vectorized Hash Join",
	} {
		if plan := rowsToString(mustExec(t, ks, "EXPLAIN "+q, "%postgres%").Rows); !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN %s: no %q in\n%s", q, want, plan)
		}
	}

	runAll(t, all) // first executions: every text is parsed and planned
	runAll(t, nil) // every execution a hit, every plan kept
	runAll(t, nil)

	// now() and random() are read per execution, never frozen into a plan
	const volatile = "SELECT k, random(), now() FROM t WHERE k = $1"
	first := mustExec(t, ks, volatile, int64(1))
	time.Sleep(time.Millisecond)
	second := mustExec(t, ks, volatile, int64(1))
	if first.Rows[0][1] == second.Rows[0][1] {
		t.Errorf("random() repeated %v across executions of a kept plan", first.Rows[0][1])
	}
	if t1, t2 := first.Rows[0][2].(time.Time), second.Rows[0][2].(time.Time); !t2.After(t1) {
		t.Errorf("now() did not advance across executions of a kept plan: %v then %v", t1, t2)
	}

	explain := func(q string) string {
		return rowsToString(mustExec(t, ks, "EXPLAIN "+q).Rows)
	}
	const byG = "SELECT k FROM t WHERE g = $1 ORDER BY k"
	const grouped = "SELECT g, count(*), sum(v) FROM t WHERE v > $1 GROUP BY g ORDER BY g"
	for _, change := range []struct {
		name    string
		apply   func(t *testing.T)
		replans func(keptStep) bool
	}{
		{"CREATE INDEX", func(t *testing.T) {
			if strings.Contains(explain(byG), "Index Scan") {
				t.Fatalf("g has no index yet:\n%s", explain(byG))
			}
			both2("CREATE INDEX t_g ON t (g)")
			if !strings.Contains(explain(byG), "Index Scan using t_g") {
				t.Errorf("after CREATE INDEX:\n%s", explain(byG))
			}
		}, all},
		{"ADD COLUMN", func(t *testing.T) {
			both2("ALTER TABLE t ADD COLUMN extra bigint")
			both2("UPDATE t SET extra = k * 2 WHERE k < 6")
		}, all},
		{"TRUNCATE", func(t *testing.T) {
			both2("TRUNCATE u")
			for k := 1; k <= 40; k += 2 {
				both2(fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", k, -3*k))
			}
		}, all},
		{"SET transaction_isolation = serializable", func(t *testing.T) {
			both2("SET transaction_isolation = 'serializable'")
			if strings.Contains(explain(grouped), "Vectorized") {
				t.Errorf("a heap aggregate under SERIALIZABLE:\n%s", explain(grouped))
			}
		}, func(st keptStep) bool { return !st.write }},
		{"SetFeatures NoVectorized", func(t *testing.T) {
			both2("SET transaction_isolation = 'read committed'")
			kept.SetFeatures(Features{NoVectorized: true})
			oracle.SetFeatures(Features{NoPlanCache: true, NoVectorized: true})
			if strings.Contains(explain(grouped), "Vectorized") {
				t.Errorf("NoVectorized:\n%s", explain(grouped))
			}
		}, all},
	} {
		t.Run(change.name, func(t *testing.T) {
			change.apply(t)
			runAll(t, change.replans)
			runAll(t, nil)
		})
	}

	// the kept SELECT * gained the column ADD COLUMN made
	if cols := mustExec(t, ks, "SELECT * FROM t WHERE k = $1", int64(3)).Columns; !slices.Contains(cols, "extra") {
		t.Errorf("SELECT * after ADD COLUMN: columns %v", cols)
	}

	// one kept parallel columnar plan, run 50 times
	kept.SetFeatures(Features{VecParallelism: 2})
	oracle.SetFeatures(Features{NoPlanCache: true, VecParallelism: 2})
	const topn = "SELECT g, count(*), sum(w) FROM c GROUP BY g ORDER BY g LIMIT $1"
	both(t, topn, args(int64(3)))
	scans := metVecParallelScans.Value()
	for i := 0; i < 50; i++ {
		if both(t, topn, args(int64(1+i%6))) {
			t.Fatalf("execution %d of the parallel columnar plan planned again", i+2)
		}
	}
	// the counter is the process's: it counts the oracle's scans too
	if n := metVecParallelScans.Value() - scans; n != 2*50 {
		t.Errorf("%d parallel scans in 50 executions on each engine, want 100", n)
	}
}

// TestTruncateReplansKeptIndexScan: TRUNCATE gives every index of the table
// a new tree, so a point read kept in the session must plan again and probe
// the new one — it finds the row inserted after the TRUNCATE. Another row
// goes in first, so the new row is not where the old tree points.
func TestTruncateReplansKeptIndexScan(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 'old'), (2, 'other')")
	const read = "SELECT v FROM kv WHERE k = $1"
	expectRows(t, mustExec(t, s, read, int64(1)), "old")
	expectRows(t, mustExec(t, s, read, int64(1)), "old") // served by the kept index scan
	mustExec(t, s, "TRUNCATE kv")
	mustExec(t, s, "INSERT INTO kv VALUES (5, 'filler'), (1, 'new')")
	expectRows(t, mustExec(t, s, read, int64(1)), "new")
	expectRows(t, mustExec(t, s, read, int64(2)), "")
	// the same for a kept UPDATE's index probe
	const bump = "UPDATE kv SET v = v || '!' WHERE k = $1"
	mustExec(t, s, bump, int64(1))
	mustExec(t, s, "TRUNCATE kv")
	mustExec(t, s, "INSERT INTO kv VALUES (6, 'filler'), (1, 'again')")
	if res := mustExec(t, s, bump, int64(1)); res.Affected != 1 {
		t.Fatalf("the UPDATE after TRUNCATE updated %d rows, want 1", res.Affected)
	}
	expectRows(t, mustExec(t, s, read, int64(1)), "again!")
}

// TestStalePlansAreLetGo: once a session sees the schema version move, it
// drops every plan kept under the old one, whether or not that text runs
// again — a plan holds the storage and index trees a TRUNCATE or a DROP
// TABLE let go of. The parse tree stays, to be found stale at its lookup.
func TestStalePlansAreLetGo(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 'a')")
	const read, write = "SELECT v FROM kv WHERE k = $1", "UPDATE kv SET v = $2 WHERE k = $1"
	mustExec(t, s, read, int64(1))
	mustExec(t, s, write, int64(1), "b")
	if s.stmtCache[read].sel == nil || s.stmtCache[write].dml == nil {
		t.Fatal("no plans kept")
	}
	mustExec(t, s, "TRUNCATE kv")
	mustExec(t, s, "SELECT count(*) FROM kv") // another text: the session sees the new version
	for _, q := range []string{read, write} {
		if cs := s.stmtCache[q]; cs == nil || cs.sel != nil || cs.dml != nil {
			t.Errorf("%s: entry %+v after TRUNCATE, want its parse tree without a plan", q, cs)
		}
	}
	invalid := metStmtCacheInvalid.Value()
	expectRows(t, mustExec(t, s, read, int64(1)), "")
	if metStmtCacheInvalid.Value() != invalid+1 {
		t.Error("the stale entry was not counted as an invalidation at its lookup")
	}
}
