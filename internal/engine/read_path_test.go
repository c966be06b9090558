package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/ssi"
	"citusgo/internal/types"
)

// The read path: every scan, DML target collection and FK check runs an
// access path through storage.read, and UPDATE, DELETE and SELECT … FOR
// UPDATE lock their targets in one loop (lockTargets).

// TestHeldSnapshotNeverChases: a transaction that holds its snapshot —
// REPEATABLE READ, SERIALIZABLE with SSI on or off — fails with the
// serialization error when a row it would lock was updated after its
// snapshot, where READ COMMITTED follows the update chain (PostgreSQL's
// "could not serialize access due to concurrent update").
func TestHeldSnapshotNeverChases(t *testing.T) {
	levels := []struct {
		name, iso string
		f         Features
	}{
		{"repeatable read", "repeatable read", Features{}},
		{"serializable", "serializable", Features{}},
		{"serializable without SSI", "serializable", Features{NoSSI: true}},
	}
	stmts := []string{
		"UPDATE c SET v = v + 1 WHERE k = 1",
		"DELETE FROM c WHERE k = 1",
		"SELECT v FROM c WHERE k = 1 FOR UPDATE",
	}
	for _, l := range levels {
		for _, stmt := range stmts {
			t.Run(l.name+"/"+strings.Fields(stmt)[0], func(t *testing.T) {
				e := newTestEngine(t)
				e.SetFeatures(l.f)
				s0, s1 := e.NewSession(), e.NewSession()
				mustExec(t, s0, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint)")
				mustExec(t, s0, "INSERT INTO c (k, v) VALUES (1, 10)")
				mustExec(t, s1, "SET transaction_isolation = '"+l.iso+"'")
				mustExec(t, s1, "BEGIN")
				expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "10")
				mustExec(t, s0, "UPDATE c SET v = 111 WHERE k = 1")
				_, err := s1.Exec(stmt)
				if !errors.Is(err, ssi.ErrSerializationFailure) || !strings.Contains(err.Error(), "could not serialize access due to concurrent update") {
					t.Errorf("%s after a concurrent update: err = %v, want the concurrent-update serialization failure", stmt, err)
				}
				if err == nil {
					if res, err := s1.Exec("SELECT v FROM c WHERE k = 1"); err == nil && len(res.Rows) != 1 {
						t.Errorf("the snapshot shows row 1 %d times: %v", len(res.Rows), res.Rows)
					}
				}
				mustExec(t, s1, "ROLLBACK")
				expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "111")
			})
		}
	}
	t.Run("read committed chases", func(t *testing.T) {
		e := newTestEngine(t)
		s0, s1 := e.NewSession(), e.NewSession()
		mustExec(t, s0, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint)")
		mustExec(t, s0, "INSERT INTO c (k, v) VALUES (1, 10)")
		mustExec(t, s1, "BEGIN")
		expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "10")
		mustExec(t, s0, "UPDATE c SET v = 111 WHERE k = 1")
		expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1 FOR UPDATE"), "111")
		mustExec(t, s1, "UPDATE c SET v = v + 1 WHERE k = 1")
		mustExec(t, s1, "COMMIT")
		expectRows(t, mustExec(t, s0, "SELECT v FROM c WHERE k = 1"), "112")
	})
}

// incrementOnce runs one transaction of s that reads c's row 1 and then
// adds one to it. It returns false, having rolled back, when the UPDATE
// failed with the serialization error.
func incrementOnce(s *Session) (bool, error) {
	if _, err := s.Exec("BEGIN"); err != nil {
		return false, err
	}
	res, err := s.Exec("SELECT v FROM c WHERE k = 1")
	if err != nil {
		return false, err
	}
	read := res.Rows[0][0].(int64)
	runtime.Gosched() // let another session update the row under this snapshot
	res, err = s.Exec("UPDATE c SET v = v + 1 WHERE k = 1 RETURNING v")
	if errors.Is(err, ssi.ErrSerializationFailure) {
		_, err = s.Exec("ROLLBACK")
		return false, err
	}
	if err != nil {
		return false, err
	}
	if wrote := res.Rows[0][0].(int64); wrote != read+1 {
		return false, fmt.Errorf("read %d under the snapshot, wrote %d", read, wrote)
	}
	_, err = s.Exec("COMMIT")
	return err == nil, err
}

// TestRepeatableReadRetriesConcurrentUpdates: REPEATABLE READ sessions
// incrementing one row lose no increment. Each transaction commits what it
// read plus one, or fails with the serialization error and retries. It runs
// under -race in make stress.
func TestRepeatableReadRetriesConcurrentUpdates(t *testing.T) {
	e := newTestEngine(t)
	s0 := e.NewSession()
	mustExec(t, s0, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s0, "INSERT INTO c (k, v) VALUES (1, 0)")
	const sessions, iters = 8, 10
	var wg sync.WaitGroup
	var committed, retries atomic.Int64
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Exec("ROLLBACK") // a session that fails gives its row lock back
			if _, err := s.Exec("SET transaction_isolation = 'repeatable read'"); err != nil {
				errs <- err
				return
			}
			for done := 0; done < iters; {
				ok, err := incrementOnce(s)
				if err != nil {
					errs <- err
					return
				}
				if ok {
					committed.Add(1)
					done++
				} else {
					retries.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if committed.Load() != sessions*iters {
		t.Fatalf("%d increments committed, want %d", committed.Load(), sessions*iters)
	}
	expectRows(t, mustExec(t, s0, "SELECT v FROM c WHERE k = 1"), fmt.Sprint(committed.Load()))
	t.Logf("%d increments, %d retried", committed.Load(), retries.Load())
}

// TestSerializableWithoutSSIIsSnapshotIsolation: with Features.NoSSI a
// SERIALIZABLE transaction still reads every statement under its first
// snapshot.
func TestSerializableWithoutSSIIsSnapshotIsolation(t *testing.T) {
	e := newTestEngine(t)
	e.SetFeatures(Features{NoSSI: true})
	s0, s1 := e.NewSession(), e.NewSession()
	mustExec(t, s0, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s0, "INSERT INTO c (k, v) VALUES (1, 1)")
	mustExec(t, s1, "SET transaction_isolation = 'serializable'")
	mustExec(t, s1, "BEGIN")
	expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "1")
	mustExec(t, s0, "UPDATE c SET v = 2 WHERE k = 1")
	expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "1")
	mustExec(t, s1, "COMMIT")
	expectRows(t, mustExec(t, s1, "SELECT v FROM c WHERE k = 1"), "2")
}

// TestForeignKeyChecksReadEveryPath: an FK check finds a referenced value
// through a B-tree, through a heap's pages and through a columnar table's
// stripes, and refuses an absent one each way.
func TestForeignKeyChecksReadEveryPath(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	for _, ref := range []string{
		"CREATE TABLE ref (k bigint PRIMARY KEY, v bigint)",
		"CREATE TABLE ref (k bigint, v bigint)",
		"CREATE TABLE ref (k bigint, v bigint) USING columnar",
	} {
		mustExec(t, s, ref)
		mustExec(t, s, "INSERT INTO ref VALUES (1, 1), (3, 3)")
		mustExec(t, s, "CREATE TABLE ch (id bigint PRIMARY KEY, r bigint REFERENCES ref (k))")
		if _, err := s.Exec("INSERT INTO ch VALUES (1, 3)"); err != nil {
			t.Errorf("%s: a present key refused: %v", ref, err)
		}
		if _, err := s.Exec("INSERT INTO ch VALUES (2, 2)"); err == nil || !strings.Contains(err.Error(), "violates foreign key") {
			t.Errorf("%s: an absent key: err = %v, want the foreign-key violation", ref, err)
		}
		mustExec(t, s, "DROP TABLE ch")
		mustExec(t, s, "DROP TABLE ref")
	}
}

// poolAccesses returns how many page accesses fn charged the engine's
// buffer pool.
func poolAccesses(e *Engine, fn func()) int64 {
	hits, misses := e.Pool.Stats()
	fn()
	hitsAfter, missesAfter := e.Pool.Stats()
	return hitsAfter - hits + missesAfter - misses
}

// TestSerializablePageScansCharge: a scan of every page charges the buffer
// pool each page under SERIALIZABLE as under READ COMMITTED, a SELECT's and
// an UPDATE's target scan alike.
func TestSerializablePageScansCharge(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE pc (k bigint PRIMARY KEY, v bigint)")
	for i := 0; i < 1000; i++ {
		mustExec(t, s, "INSERT INTO pc (k, v) VALUES ($1, $1)", int64(i))
	}
	st, _ := e.store("pc")
	pages := int64(st.heap.NumPages())
	e.Pool.SetCapacity(8)
	e.Pool.SetIOLatency(0, 1) // count, do not sleep
	for _, iso := range []string{"read committed", "serializable"} {
		mustExec(t, s, "SET transaction_isolation = '"+iso+"'")
		for _, q := range []string{"SELECT k FROM pc WHERE v < 0", "UPDATE pc SET v = v WHERE v < 0"} {
			if got := poolAccesses(e, func() { mustExec(t, s, q) }); got != pages {
				t.Errorf("%s: %q charged %d page accesses, want the table's %d pages", iso, q, got, pages)
			}
		}
	}
}

// TestAccessPathParity: every access path — equality, prefix, range, GIN
// (searchable, unsearchable and NULL patterns) — selects, updates, locks
// and deletes the rows an unindexed twin table does, under READ COMMITTED
// and SERIALIZABLE; and DML reads through the path it plans.
func TestAccessPathParity(t *testing.T) {
	shapes := []struct {
		name, where, plan string
		params            []types.Datum
	}{
		{"equality", "k = $1", "Index Scan using px_pkey on px", []types.Datum{int64(17)}},
		{"prefix", "g = $1", "Index Scan using px_gh on px", []types.Datum{int64(3)}},
		{"full key", "g = $1 AND h = $2", "Index Scan using px_gh on px", []types.Datum{int64(4), int64(2)}},
		{"between", "k BETWEEN $1 AND $2", "Index Scan using px_pkey on px", []types.Datum{int64(100), int64(140)}},
		{"less than", "k < $1", "Index Scan using px_pkey on px", []types.Datum{int64(30)}},
		{"at least", "k >= $1", "Index Scan using px_pkey on px", []types.Datum{int64(1150)}},
		{"gin", "s ILIKE $1", "Bitmap Heap Scan on px", []types.Datum{"%LO 11%"}},
		{"gin unsearchable", "s ILIKE $1", "Bitmap Heap Scan on px", []types.Datum{"%7%"}},
		{"gin null", "s ILIKE $1", "Bitmap Heap Scan on px", []types.Datum{nil}},
	}
	var values strings.Builder
	for k := 1; k <= 1200; k++ {
		g, h, str := fmt.Sprint(k%20), fmt.Sprint(k%7), fmt.Sprintf("'hello %d world'", k)
		if k%13 == 0 {
			g = "NULL"
		}
		if k%11 == 0 {
			h = "NULL"
		}
		if k%17 == 0 {
			str = "NULL"
		}
		if k > 1 {
			values.WriteString(", ")
		}
		fmt.Fprintf(&values, "(%d, %s, %s, %s)", k, g, h, str)
	}
	sorted := func(rows []types.Row) string {
		lines := strings.Split(strings.TrimSpace(rowsToString(rows)), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, iso := range []string{"read committed", "serializable"} {
		t.Run(iso, func(t *testing.T) {
			e := newTestEngine(t)
			s := e.NewSession()
			mustExec(t, s, "CREATE TABLE px (k bigint PRIMARY KEY, g bigint, h bigint, s text)")
			mustExec(t, s, "CREATE INDEX px_gh ON px (g, h)")
			mustExec(t, s, "CREATE INDEX px_s ON px USING gin ((s) gin_trgm_ops)")
			mustExec(t, s, "CREATE TABLE tw (k bigint, g bigint, h bigint, s text)")
			mustExec(t, s, "SET transaction_isolation = '"+iso+"'")
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					for _, tbl := range []string{"px", "tw"} {
						mustExec(t, s, "TRUNCATE "+tbl)
						mustExec(t, s, "INSERT INTO "+tbl+" (k, g, h, s) VALUES "+values.String())
					}
					plan := rowsToString(mustExec(t, s, "EXPLAIN SELECT * FROM px WHERE "+sh.where, sh.params...).Rows)
					if !strings.Contains(plan, sh.plan) {
						t.Errorf("EXPLAIN: want %q in\n%s", sh.plan, plan)
					}
					for _, q := range []string{
						"SELECT * FROM %s WHERE " + sh.where,
						"SELECT k, h FROM %s WHERE " + sh.where + " FOR UPDATE",
						"UPDATE %s SET h = h + 1, s = s || '!' WHERE " + sh.where + " RETURNING k, h, s",
						"DELETE FROM %s WHERE " + sh.where,
						"SELECT * FROM %s",
					} {
						var got [2]*Result
						for i, tbl := range []string{"px", "tw"} {
							got[i] = mustExec(t, s, fmt.Sprintf(q, tbl), sh.params...)
						}
						if got[0].Affected != got[1].Affected || sorted(got[0].Rows) != sorted(got[1].Rows) {
							t.Errorf("%s: the indexed table gives %d affected and\n%s\nthe twin %d and\n%s",
								q, got[0].Affected, sorted(got[0].Rows), got[1].Affected, sorted(got[1].Rows))
						}
					}
				})
			}
			// a range UPDATE reads the index's candidates, not every page
			st, _ := e.store("px")
			pages := int64(st.heap.NumPages())
			e.Pool.SetCapacity(8)
			e.Pool.SetIOLatency(0, 1)
			if got := poolAccesses(e, func() { mustExec(t, s, "UPDATE px SET g = g WHERE k BETWEEN $1 AND $2", int64(40), int64(41)) }); got >= pages {
				t.Errorf("a two-row range UPDATE charged %d page accesses, the table has %d pages", got, pages)
			}
		})
	}
}

// sireadKeys returns the names of the keys the SSI-tracked transaction of s
// holds SIREAD locks on, among keys: a fresh writer probing one key alone
// gets an rw-antidependency from the reader exactly when it holds that key.
func sireadKeys(t *testing.T, e *Engine, s *Session, keys map[string]ssi.Key) []string {
	t.Helper()
	var held []string
	for name, k := range keys {
		w := e.Txns.Begin()
		wst, _ := e.SSI.Register(w)
		if err := e.SSI.OnWrite(wst, k); err != nil {
			t.Fatal(err)
		}
		for _, st := range e.SSI.Sessions() {
			if st.VID == w.VID && st.InConflicts > 0 {
				held = append(held, name)
			}
		}
		e.SSI.Finish(wst, false)
		e.Txns.Abort(w)
	}
	sort.Strings(held)
	return held
}

// TestReadPathCost pins what a point read, a point update and a short range
// read allocate, and the SIREAD locks each access path takes.
func TestReadPathCost(t *testing.T) {
	t.Run("allocations", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates")
		}
		e := New(Config{Name: "cost", DeadlockInterval: -1})
		t.Cleanup(e.Close)
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, f0 text, f1 text, f2 text)")
		for i := 1; i <= 1000; i++ {
			mustExec(t, s, "INSERT INTO kv VALUES ($1, $2, $3, $4)", int64(i),
				fmt.Sprintf("a%09d", i), fmt.Sprintf("b%09d", i), fmt.Sprintf("c%09d", i))
		}
		k := int64(0)
		next := func() int64 { k = k%1000 + 1; return k }
		for _, c := range []struct {
			name  string
			bound float64
			run   func()
		}{
			{"10-row BETWEEN SELECT", 43, func() {
				lo := next() % 990
				mustExec(t, s, "SELECT * FROM kv WHERE k BETWEEN $1 AND $2", lo+1, lo+10)
			}},
			{"point SELECT *", 18, func() { mustExec(t, s, "SELECT * FROM kv WHERE k = $1", next()) }},
			{"point UPDATE", 24, func() { mustExec(t, s, "UPDATE kv SET f1 = $2 WHERE k = $1", next(), "x") }},
		} {
			if got := testing.AllocsPerRun(2000, c.run); got > c.bound {
				t.Errorf("%s: %.1f allocations, want at most %.1f", c.name, got, c.bound)
			}
		}
	})

	t.Run("SIREAD keys", func(t *testing.T) {
		e := New(Config{Name: "siread", DeadlockInterval: -1})
		t.Cleanup(e.Close)
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, f0 text, f1 text, f2 text)")
		mustExec(t, s, "CREATE INDEX kv_f0 ON kv USING gin ((f0) gin_trgm_ops)")
		mustExec(t, s, "CREATE TABLE child (id bigint PRIMARY KEY, kv bigint REFERENCES kv (k))")
		for i := 1; i <= 100; i++ {
			mustExec(t, s, "INSERT INTO kv VALUES ($1, $2, $3, $4)", int64(i),
				fmt.Sprintf("a%09d", i), fmt.Sprintf("b%09d", i), fmt.Sprintf("c%09d", i))
		}
		st, _ := e.store("kv")
		pkey := st.btrees["kv_pkey"]
		tid := st.searchVersions(pkey, index.Key{int64(5)})[0]
		page := int32(int64(tid) / heap.TuplesPerPage)
		id := st.table.ID
		keys := map[string]ssi.Key{
			"table": ssi.TableKey(id),
			"page":  ssi.PageKey(id, page),
			"tuple": ssi.TupleKey(id, int64(tid), page),
			"key":   ssi.IndexKey(id, ssiKeyHash("kv_pkey", indexKeyString(index.Key{int64(5)}))),
		}
		mustExec(t, s, "SET transaction_isolation = 'serializable'")
		for _, c := range []struct {
			path, q string
			want    string // the keys held, after promotion: a table lock covers a range's tuple locks
		}{
			{"equality", "SELECT * FROM kv WHERE k = 5", "key tuple"},
			{"equality UPDATE", "UPDATE kv SET f1 = 'z' WHERE k = 5", "key tuple"},
			{"range", "SELECT * FROM kv WHERE k BETWEEN 4 AND 6", "table"},
			{"range DELETE", "DELETE FROM kv WHERE k BETWEEN 4 AND 6", "table"},
			{"GIN", "SELECT * FROM kv WHERE f0 ILIKE '%000005%'", "table"},
			{"pages", "SELECT * FROM kv WHERE f2 = 'c000000005'", "table"},
			{"FK check", "INSERT INTO child VALUES (1, 5)", ""},
		} {
			mustExec(t, s, "BEGIN")
			mustExec(t, s, c.q)
			if got := strings.Join(sireadKeys(t, e, s, keys), " "); got != c.want {
				t.Errorf("%s (%s): SIREAD locks on %q, want %q", c.path, c.q, got, c.want)
			}
			var locks int
			for _, ss := range e.SSI.Sessions() {
				if ss.VID == s.Txn().VID {
					locks = ss.SIREADLocks
				}
			}
			if want := len(strings.Fields(c.want)); locks != want {
				t.Errorf("%s: %d SIREAD locks, want %d", c.path, locks, want)
			}
			mustExec(t, s, "ROLLBACK")
		}
	})
}
