package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"citusgo/internal/types"
)

// btreeLens returns every B-tree of table's entry count, by index name.
func btreeLens(t *testing.T, e *Engine, table string) map[string]int {
	t.Helper()
	st, ok := e.store(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	lens := map[string]int{}
	for name, b := range st.btrees {
		lens[name] = b.tree.Len()
	}
	return lens
}

// TestHOTIndexEntries counts index entries through updates: N updates that
// keep every indexed column leave every B-tree's Len() where the load left
// it; N updates that change an indexed column add N entries to every B-tree;
// VACUUM leaves one entry per live row in each.
func TestHOTIndexEntries(t *testing.T) {
	const n = 300
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE h (k bigint PRIMARY KEY, v bigint, s text)")
	mustExec(t, s, "CREATE INDEX h_v ON h (v)")
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{int64(i), int64(i % 7), "loaded"}
	}
	if _, err := s.CopyFrom("h", nil, rows); err != nil {
		t.Fatal(err)
	}
	expect := func(stage string, want int) {
		t.Helper()
		for name, got := range btreeLens(t, e, "h") {
			if got != want {
				t.Fatalf("%s: %s holds %d entries, want %d", stage, name, got, want)
			}
		}
	}
	expect("loaded", n)
	hot := metHOTUpdates.Value()
	for i := 0; i < n; i++ {
		mustExec(t, s, "UPDATE h SET s = $1 WHERE k = $2", fmt.Sprintf("kept%d", i), int64(i))
	}
	expect("after key-keeping updates", n)
	if got := metHOTUpdates.Value() - hot; got != n {
		t.Fatalf("%d heap-only updates counted, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		mustExec(t, s, "UPDATE h SET v = v + 1000 WHERE k = $1", int64(i))
	}
	expect("after key-changing updates", 2*n)
	mustExec(t, s, "VACUUM h")
	expect("after VACUUM", n)

	expectRows(t, mustExec(t, s, "SELECT count(*) FROM h WHERE v >= 1000"), fmt.Sprint(n))
	for i := 0; i < n; i += 37 {
		expectRows(t, mustExec(t, s, "SELECT v, s FROM h WHERE k = $1", int64(i)), fmt.Sprintf("%d|kept%d", 1000+i%7, i))
		res := mustExec(t, s, "SELECT count(*) FROM h WHERE v = $1", int64(1000+i%7))
		if want := (n - i%7 + 6) / 7; res.Rows[0][0] != int64(want) {
			t.Fatalf("v = %d: %v rows, want %d", 1000+i%7, res.Rows[0][0], want)
		}
	}
}

// TestCreateIndexOverHOTChains: an index created over HOT chains whose
// versions differ in its column — updates that kept every column indexed
// then, one chain going 0 → 1 → 1 → 0 — indexes each root and each version
// whose value differs from its predecessor's, and that version becomes a root
// in every index. A snapshot older than the chains and a new one both read
// through the new index what a scan of the table returns, before and after
// VACUUM; VACUUM leaves one entry a row.
func TestCreateIndexOverHOTChains(t *testing.T) {
	const n = 10
	e := newTestEngine(t)
	s, old := e.NewSession(), e.NewSession()
	mustExec(t, s, "CREATE TABLE c (k bigint PRIMARY KEY, v bigint, s text)")
	for k := 0; k < n; k++ {
		mustExec(t, s, "INSERT INTO c VALUES ($1, 0, 'a')", int64(k))
	}
	// a transaction-long snapshot, taken before any update
	mustExec(t, old, "SET transaction_isolation = 'serializable'")
	mustExec(t, old, "BEGIN")
	expectRows(t, mustExec(t, old, "SELECT count(*) FROM c"), fmt.Sprint(n))
	mustExec(t, s, "UPDATE c SET v = 1")
	mustExec(t, s, "UPDATE c SET s = 'x'")
	mustExec(t, s, "UPDATE c SET v = 0 WHERE k < 5")
	if lens := btreeLens(t, e, "c"); lens["c_pkey"] != n {
		t.Fatalf("the updates were not heap-only: %v", lens)
	}
	mustExec(t, s, "CREATE INDEX c_v ON c (v)")
	// k < 5: the root, the version v turned 1 in and the one it turned 0
	// again in; k >= 5: the root and the version v turned 1 in
	lens := btreeLens(t, e, "c")
	if want := 5*3 + 5*2; lens["c_v"] != want || lens["c_pkey"] != want {
		t.Fatalf("after CREATE INDEX: %v, want %d entries in each", lens, want)
	}
	// the same query through the index and through a scan of the table
	parity := func(sess *Session, who string) {
		t.Helper()
		for v := int64(0); v < 3; v++ {
			viaIndex := mustExec(t, sess, "SELECT k, v, s FROM c WHERE v = $1 ORDER BY k", v)
			scanned := mustExec(t, sess, "SELECT k, v, s FROM c WHERE v + 0 = $1 ORDER BY k", v)
			if got, want := rowsToString(viaIndex.Rows), rowsToString(scanned.Rows); got != want {
				t.Fatalf("%s, v = %d: the index returns\n%s\na scan\n%s", who, v, got, want)
			}
		}
		for k := int64(0); k < n; k++ {
			if res := mustExec(t, sess, "SELECT v FROM c WHERE k = $1", k); len(res.Rows) != 1 {
				t.Fatalf("%s, k = %d: %d rows through the primary key", who, k, len(res.Rows))
			}
		}
	}
	parity(s, "new snapshot")
	parity(old, "old snapshot")
	expectRows(t, mustExec(t, old, "SELECT count(*) FROM c WHERE v = 0"), fmt.Sprint(n))
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM c WHERE v = 0"), "5")
	mustExec(t, s, "VACUUM c")
	parity(old, "old snapshot after VACUUM")
	mustExec(t, old, "COMMIT")
	mustExec(t, s, "VACUUM c")
	parity(s, "new snapshot after VACUUM")
	for name, got := range btreeLens(t, e, "c") {
		if got != n {
			t.Fatalf("after the last VACUUM %s holds %d entries, want %d", name, got, n)
		}
	}
	// the chains the index split are chains again: a key-keeping update is
	// heap-only, one of v is not
	mustExec(t, s, "UPDATE c SET s = 'y'")
	mustExec(t, s, "UPDATE c SET v = 2 WHERE k = 0")
	if lens := btreeLens(t, e, "c"); lens["c_v"] != n+1 || lens["c_pkey"] != n+1 {
		t.Fatalf("after one update of v: %v, want %d entries in each", lens, n+1)
	}
	parity(s, "after the updates")
}

// TestHOTVacuumRace: lookups of every key through the primary key — SELECTs
// and the unique check of an INSERT … ON CONFLICT DO NOTHING — run while
// other sessions update the rows' unindexed column, heap-only, and vacuum.
// Every SELECT returns exactly one row, and every INSERT finds its key taken.
// Run it under -race.
func TestHOTVacuumRace(t *testing.T) {
	const n, rounds = 64, 150
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	for k := 0; k < n; k++ {
		mustExec(t, s, "INSERT INTO r VALUES ($1, 0)", int64(k))
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			ws := e.NewSession()
			for i := 0; !stop.Load(); i++ {
				if _, err := ws.Exec("UPDATE r SET v = v + 1 WHERE k = $1", int64((i*7+w)%n)); err != nil {
					errs <- err
					return
				}
				if i%16 == 0 {
					if _, err := ws.Exec("VACUUM r"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rs := e.NewSession()
			for round := 0; round < rounds; round++ {
				for k := int64(0); k < n; k++ {
					if r == 0 {
						res, err := rs.Exec("SELECT v FROM r WHERE k = $1", k)
						if err == nil && len(res.Rows) != 1 {
							err = fmt.Errorf("round %d: k = %d returned %d rows", round, k, len(res.Rows))
						}
						if err != nil {
							errs <- err
							return
						}
						continue
					}
					res, err := rs.Exec("INSERT INTO r VALUES ($1, -1) ON CONFLICT DO NOTHING", k)
					if err == nil && res.Affected != 0 {
						err = fmt.Errorf("round %d: k = %d inserted a second time", round, k)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mustExec(t, s, "VACUUM r")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM r"), fmt.Sprint(n))
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM r WHERE v < 0"), "0")
	if lens := btreeLens(t, e, "r"); lens["r_pkey"] != n {
		t.Fatalf("after the last VACUUM: %v, want %d entries", lens, n)
	}
}

// FuzzHOTParity is the HOT oracle. A seeded schedule of INSERT, UPDATE that
// keeps every indexed column, UPDATE that changes one, DELETE, VACUUM and
// CREATE INDEX runs on x — a primary key, a B-tree on v and a trigram GIN on
// s, and later a B-tree on w — and in the same transactions on y, its twin
// with no index at all, while a SERIALIZABLE session (the engine's
// transaction-long snapshot) now and then holds an old snapshot open. After
// every step a query through each of x's indexes — equality, range and
// trigram, row at a time and vectorized — must return what the same query
// returns on y, under the current snapshot and under the old one.
func FuzzHOTParity(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := splitmix(seed)
		pick := func(n int) int { return int(rng() % uint64(n)) }
		e := newTestEngine(t)
		s, old := e.NewSession(), e.NewSession()
		mustExec(t, s, "CREATE TABLE x (k bigint PRIMARY KEY, v bigint, s text, w bigint)")
		mustExec(t, s, "CREATE INDEX x_v ON x (v)")
		mustExec(t, s, "CREATE INDEX x_s ON x USING gin ((s) gin_trgm_ops)")
		mustExec(t, s, "CREATE TABLE y (k bigint, v bigint, s text, w bigint)")
		mustExec(t, old, "SET transaction_isolation = 'serializable'")
		words := []string{"abc", "bcd", "cde", "abd", "xyz"}
		text := func() string { return words[pick(len(words))] + " " + words[pick(len(words))] }
		var keys []int64
		next := int64(0)
		oldOpen := false
		both := func(q string, params ...types.Datum) {
			t.Helper()
			mustExec(t, s, "BEGIN")
			rx := mustExec(t, s, strings.ReplaceAll(q, "@", "x"), params...)
			ry := mustExec(t, s, strings.ReplaceAll(q, "@", "y"), params...)
			mustExec(t, s, "COMMIT")
			if rx.Affected != ry.Affected {
				t.Fatalf("seed %d: %q %v: %d rows on x, %d on its twin", seed, q, params, rx.Affected, ry.Affected)
			}
		}
		check := func(sess *Session, who string) {
			t.Helper()
			queries := []struct {
				q      string
				params []types.Datum
			}{
				{"SELECT k, v, s, w FROM @ WHERE v = $1", []types.Datum{int64(pick(6))}},
				{"SELECT k, v, s, w FROM @ WHERE v BETWEEN $1 AND $2", []types.Datum{int64(pick(3)), int64(2 + pick(4))}},
				{"SELECT k, v, s, w FROM @ WHERE s LIKE $1", []types.Datum{"%" + words[pick(len(words))] + "%"}},
				{"SELECT count(*), sum(v) FROM @ WHERE s LIKE $1", []types.Datum{"%" + words[pick(len(words))] + "%"}},
				{"SELECT k, v, s, w FROM @ WHERE w = $1", []types.Datum{int64(pick(4))}},
			}
			if len(keys) > 0 {
				queries = append(queries, struct {
					q      string
					params []types.Datum
				}{"SELECT k, v, s, w FROM @ WHERE k = $1", []types.Datum{keys[pick(len(keys))]}})
			}
			for _, c := range queries {
				rx := mustExec(t, sess, strings.ReplaceAll(c.q, "@", "x"), c.params...)
				ry := mustExec(t, sess, strings.ReplaceAll(c.q, "@", "y"), c.params...)
				gx, gy := sortedRows(rx.Rows), sortedRows(ry.Rows)
				if gx != gy {
					t.Fatalf("seed %d, %s: %q %v\nx (indexed):\n%s\ny (no index):\n%s", seed, who, c.q, c.params, gx, gy)
				}
			}
		}
		for step, steps := 0, 60+pick(60); step < steps; step++ {
			switch op := pick(100); {
			case op < 25 || len(keys) == 0:
				k := next
				next++
				keys = append(keys, k)
				both("INSERT INTO @ VALUES ($1, $2, $3, $4)", k, int64(pick(6)), text(), int64(pick(4)))
			case op < 50: // keeps every indexed column, until x_w exists
				both("UPDATE @ SET w = $1 WHERE k = $2", int64(pick(4)), keys[pick(len(keys))])
			case op < 62:
				both("UPDATE @ SET v = $1 WHERE k = $2", int64(pick(6)), keys[pick(len(keys))])
			case op < 70:
				both("UPDATE @ SET s = $1 WHERE k = $2", text(), keys[pick(len(keys))])
			case op < 74: // every row, key kept
				both("UPDATE @ SET w = w + 1")
			case op < 80:
				i := pick(len(keys))
				both("DELETE FROM @ WHERE k = $1", keys[i])
				keys = slices.Delete(keys, i, i+1)
			case op < 88:
				mustExec(t, s, "VACUUM x")
			case op < 90:
				mustExec(t, s, "CREATE INDEX IF NOT EXISTS x_w ON x (w)")
			case op < 96:
				if oldOpen {
					mustExec(t, old, "COMMIT")
				} else {
					mustExec(t, old, "BEGIN")
				}
				oldOpen = !oldOpen
			default: // a key that is there is taken
				if len(keys) > 0 {
					if _, err := s.Exec("INSERT INTO x VALUES ($1, 0, 'dup', 0)", keys[pick(len(keys))]); err == nil {
						t.Fatalf("seed %d: a second row under a key that is there", seed)
					}
				}
			}
			check(s, "current snapshot")
			if oldOpen {
				check(old, "old snapshot")
			}
		}
		if oldOpen {
			mustExec(t, old, "COMMIT")
		}
		mustExec(t, s, "VACUUM x")
		check(s, "after the last VACUUM")
		live := len(mustExec(t, s, "SELECT k FROM y").Rows)
		for name, got := range btreeLens(t, e, "x") {
			if got != live {
				t.Fatalf("seed %d: after the last VACUUM %s holds %d entries for %d rows", seed, name, got, live)
			}
		}
	})
}

// sortedRows renders rows one a line, sorted.
func sortedRows(rows []types.Row) string {
	lines := strings.Split(strings.TrimSpace(rowsToString(rows)), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestUpdateFreesOldKey: an UPDATE that moves a row to another primary key
// frees the old one at once, committed or in the same transaction — the
// unique check takes the versions under the key, not the row's newest
// version wherever its key went — while another transaction's update still
// in progress keeps the key taken, as an insert in progress does.
func TestUpdateFreesOldKey(t *testing.T) {
	e := newTestEngine(t)
	s, other := e.NewSession(), e.NewSession()
	mustExec(t, s, "CREATE TABLE u (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO u VALUES (1, 0)")
	mustExec(t, s, "UPDATE u SET k = 2 WHERE k = 1")
	mustExec(t, s, "INSERT INTO u VALUES (1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE u SET k = 3 WHERE k = 2")
	mustExec(t, s, "INSERT INTO u VALUES (2, 2)")
	if _, err := other.Exec("INSERT INTO u VALUES (3, 3)"); err == nil {
		t.Fatal("a key an update in progress moves a row to was free to another transaction")
	}
	if _, err := other.Exec("INSERT INTO u VALUES (1, 3)"); err == nil {
		t.Fatal("a committed row's key was free to another transaction")
	}
	mustExec(t, s, "COMMIT")
	expectRows(t, mustExec(t, s, "SELECT k, v FROM u ORDER BY k"), "1|1\n2|2\n3|0")
}
