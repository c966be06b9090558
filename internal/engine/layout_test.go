package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/jsonb"
	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// liveBytes is how much more heap is live after build than before it, with
// what build returns kept alive: the layout tests of internal/index measure
// an index this way, these measure a table.
func liveBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// copyAsReceived COPYs rows into table as a worker receives them: encoded
// into one wire batch and decoded from it (rowbatch.Batch.Rows), each row's
// strings and documents in an array of that row's own.
func copyAsReceived(t *testing.T, s *Session, table string, rows []types.Row) {
	t.Helper()
	wire, err := rowbatch.Append(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := rowbatch.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CopyFrom(table, nil, bt.Rows()); err != nil {
		t.Fatal(err)
	}
}

// txnDDL and txnRows are txn_mixed's shape: a bigint key, a bigint and a
// 50-byte text.
const txnDDL = "CREATE TABLE accounts (key bigint PRIMARY KEY, v bigint, filler text)"

func txnRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{int64(i), int64(i % 1000), fmt.Sprintf("%050d", i)}
	}
	return rows
}

// TestHeapBytesPerRow gates what a stored row costs: its tuple, its slot and
// its primary key entry. The log is sealed first — it drops what is appended
// to it — so what is measured is the table's alone. The crud shape
// (crud_point's: a bigint key and ten 50-byte texts) must fit 640 bytes, the
// txn shape (txn_mixed's: two bigints and a 50-byte text) 160 (144 measured,
// about 10 more under -race); a row of the ingest shape (ingest_live's: a
// text key and a jsonb document) must cost at most a quarter more than its
// tuple's encoding — a key that pinned the array the COPY decoded the row
// into would keep a second copy of the document.
func TestHeapBytesPerRow(t *testing.T) {
	const n = 20_000
	crud := func(i int) types.Row {
		row := types.Row{int64(i)}
		for f := 0; f < 10; f++ {
			row = append(row, fmt.Sprintf("%02d%048d", f, i))
		}
		return row
	}
	for _, c := range []struct {
		name  string
		ddl   string
		rows  func() []types.Row
		limit func(encoded float64) float64
	}{
		{"crud", "CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY, " +
			"f0 text, f1 text, f2 text, f3 text, f4 text, f5 text, f6 text, f7 text, f8 text, f9 text)",
			func() []types.Row {
				rows := make([]types.Row, n)
				for i := range rows {
					rows[i] = crud(i)
				}
				return rows
			},
			func(float64) float64 { return 640 }},
		{"txn", txnDDL, func() []types.Row { return txnRows(n) }, func(float64) float64 { return 160 }},
		{"ingest", pushEventsDDL, func() []types.Row { return pushEvents(1, 0, n) },
			func(encoded float64) float64 { return 1.25 * encoded }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(t)
			s := e.NewSession()
			mustExec(t, s, c.ddl)
			table := strings.Fields(c.ddl)[2]
			encoded := 0
			for _, row := range c.rows() {
				b, err := rowbatch.AppendCells(nil, row) // a tuple's bytes
				if err != nil {
					t.Fatal(err)
				}
				encoded += len(b)
			}
			e.WAL.Seal()
			per := liveBytes(func() any {
				copyAsReceived(t, s, table, c.rows())
				return e
			}) / n
			mean := float64(encoded) / n
			t.Logf("%.0f live bytes per row, its tuple %.0f bytes encoded", per, mean)
			if limit := c.limit(mean); per > limit {
				t.Errorf("%.0f live bytes per row, want at most %.0f", per, limit)
			}
		})
	}
}

// TestCheckpointBytesPerRow: a checkpoint's image of a heap table holds its
// pages' arrays and a bit per tuple, not a slice header per row, so taking
// one of a 20 000-row table allocates at most 8 bytes a row.
func TestCheckpointBytesPerRow(t *testing.T) {
	const n = 20_000
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, txnDDL)
	copyAsReceived(t, s, "accounts", txnRows(n))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if !e.Checkpoint() {
		t.Fatal("the checkpoint was not taken")
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a checkpoint allocated %.2f bytes per row", per)
	if per > 8 {
		t.Errorf("a checkpoint allocated %.2f bytes per row, want at most 8", per)
	}
}

// TestVacuumChurnKeepsOneVersion: 20 rounds of UPDATE of every row of a
// 10 000-row table, each followed by VACUUM, leave the engine costing at most
// 1.5 times what it cost after the first round, and the first round at most
// 1.2 times what the load cost: vacuum compacts the pages it reclaimed
// versions on, and a page none is left on keeps neither its array nor its
// slots; the updates keep the key, so they are heap-only and the primary
// key's B-tree never hears of them — after every VACUUM it holds one entry a
// row, where the load left it; and the lock table gives back what the
// round's row locks grew it to. The log is sealed, as in TestHeapBytesPerRow,
// so that the table alone is measured.
func TestVacuumChurnKeepsOneVersion(t *testing.T) {
	const n, rounds = 10_000, 20
	// no deadlock detector: a daemon goroutine would keep an engine, this
	// one or an earlier run's, alive after its test has closed it
	e := New(Config{Name: "test", DeadlockInterval: -1})
	t.Cleanup(e.Close)
	s := e.NewSession()
	mustExec(t, s, txnDDL)
	e.WAL.Seal()
	rows := txnRows(n)
	var before, loaded, one, churned runtime.MemStats
	measure := func(m *runtime.MemStats) {
		// the second collection frees what sync.Pools let go at the first
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	measure(&before)
	copyAsReceived(t, s, "accounts", rows)
	measure(&loaded)
	st, _ := e.store("accounts")
	for r := 0; r < rounds; r++ {
		mustExec(t, s, "UPDATE accounts SET v = v + 1, filler = $1", fmt.Sprintf("%050d", r))
		mustExec(t, s, "VACUUM accounts")
		for _, b := range st.btrees {
			if got := b.tree.Len(); got != n {
				t.Fatalf("round %d: %s holds %d entries after VACUUM, want one for each of the %d rows", r, b.def.Name, got, n)
			}
		}
		if r == 0 {
			measure(&one)
		}
	}
	measure(&churned)
	runtime.KeepAlive(rows)
	per := func(m runtime.MemStats) float64 { return (float64(m.HeapAlloc) - float64(before.HeapAlloc)) / n }
	t.Logf("live bytes per row: %.0f loaded, %.0f after one round of UPDATE and VACUUM, %.0f after %d",
		per(loaded), per(one), per(churned), rounds)
	if per(one) > 1.2*per(loaded) {
		t.Errorf("%.0f live bytes per row after one round of UPDATE and VACUUM, want at most 1.2 × the %.0f loaded", per(one), per(loaded))
	}
	if per(churned) > 1.5*per(one) {
		t.Errorf("%.0f live bytes per row after %d rounds of UPDATE and VACUUM, want at most 1.5 × %.0f", per(churned), rounds, per(one))
	}
	sum := rounds * n
	for _, row := range rows {
		sum += int(row[1].(int64))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM accounts"), fmt.Sprintf("%d|%d", n, sum))
}

// TestDecodeColumnsReservesOnce: a vector gets room for the rest of the
// batch at its first value that is not NULL, so a column whose first rows
// are NULL grows once, not by doubling through the batch.
func TestDecodeColumnsReservesOnce(t *testing.T) {
	const m = 1024
	tuples := make([][]byte, m)
	for i := range tuples {
		var d types.Datum
		if i >= 3 {
			d = int64(i)
		}
		tup, err := rowbatch.EncodeRow(types.Row{d})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tup
	}
	allocs := testing.AllocsPerRun(20, func() {
		vs := make([]vec.Vector, 1)
		decodeColumns(vs, []int{0}, tuples, nil, nil)
		if vs[0].Len() != m {
			t.Fatalf("%d values decoded, want %d", vs[0].Len(), m)
		}
	})
	// the vector slice, the null bitmap and the values, each made about
	// twice: once small, once for the whole batch
	if allocs > 8 {
		t.Fatalf("decodeColumns made %.0f allocations for %d values", allocs, m)
	}
}

// TestIndexKeysOwnTheirBytes: a B-tree key over text or jsonb holds its own
// copy of the bytes, not a view of the tuple's page array — the array a
// compaction replaces, which a key would otherwise keep alive as long as it
// lives. Every tuple's bytes are overwritten, and each index must still find
// every key.
func TestIndexKeysOwnTheirBytes(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kt (k text PRIMARY KEY, d jsonb)")
	mustExec(t, s, "CREATE INDEX kt_d ON kt (d)")
	var keys []types.Row
	for i := 0; i < 100; i++ {
		row := types.Row{fmt.Sprintf("key-%03d", i), jsonb.MustParse(fmt.Sprintf(`{"n": %d}`, i))}
		mustExec(t, s, "INSERT INTO kt VALUES ($1, $2)", row...)
		keys = append(keys, row)
	}
	st, _ := e.store("kt")
	st.heap.AllTuples(func(_ heap.TID, tup heap.Tuple) bool {
		clear(tup.Data)
		return true
	})
	checked := 0
	for _, b := range st.btrees {
		col := 0
		if b.def.Name == "kt_d" {
			col = 1
		}
		for _, row := range keys {
			found := false
			b.tree.SearchEqual(index.Key{row[col]}, func(tids []heap.TID) { found = len(tids) == 1 })
			if !found {
				t.Fatalf("%s: key %v is lost once its tuple's bytes are overwritten", b.def.Name, row[col])
			}
			checked++
		}
	}
	if checked != 200 {
		t.Fatalf("checked %d keys, want 200", checked)
	}
}

// TestIntKeyEntriesHoldNoObject: a bigint primary key keeps its keys in its
// leaves' arrays, so a load through COPY leaves at most 0.1 more live heap
// objects a row than the same load into a table without the key (a box per
// entry would be one more).
func TestIntKeyEntriesHoldNoObject(t *testing.T) {
	const n = 20_000
	objects := func(ddl string) float64 {
		e := newTestEngine(t)
		s := e.NewSession()
		mustExec(t, s, ddl)
		e.WAL.Seal()
		rows := txnRows(n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		copyAsReceived(t, s, "accounts", rows)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		runtime.KeepAlive(rows)
		return (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	}
	keyed, plain := objects(txnDDL), objects(strings.Replace(txnDDL, " PRIMARY KEY", "", 1))
	t.Logf("live heap objects per row: %.3f with the key, %.3f without", keyed, plain)
	if keyed-plain > 0.1 {
		t.Errorf("the key costs %.3f live heap objects a row, want at most 0.1", keyed-plain)
	}
}
