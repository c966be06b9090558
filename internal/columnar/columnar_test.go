package columnar

import (
	"strings"
	"testing"

	"citusgo/internal/bufpool"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

func TestInsertAndScan(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 3, nil)
	t1 := mgr.Begin()
	for i := 0; i < 100; i++ {
		tbl.Insert(t1.XID(), types.Row{int64(i), float64(i) * 1.5, "x"})
	}
	_ = mgr.Commit(t1)
	count := 0
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(row types.Row) bool {
		if row[0].(int64) == 50 && row[1].(float64) != 75 {
			t.Fatalf("bad row: %v", row)
		}
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("scanned %d rows", count)
	}
	if tbl.EstimatedRows() != 100 {
		t.Fatalf("estimate = %d", tbl.EstimatedRows())
	}
}

func TestStripeVisibility(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 1, nil)
	t1 := mgr.Begin()
	tbl.Insert(t1.XID(), types.Row{int64(1)})
	// uncommitted stripes are invisible to other snapshots
	count := 0
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(types.Row) bool { count++; return true })
	if count != 0 {
		t.Fatal("uncommitted stripe visible")
	}
	// but visible to the writer
	tbl.Scan(mgr, mgr.TakeSnapshot(t1), nil, func(types.Row) bool { count++; return true })
	if count != 1 {
		t.Fatal("own stripe invisible")
	}
	mgr.Abort(t1)
	count = 0
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(types.Row) bool { count++; return true })
	if count != 0 {
		t.Fatal("aborted stripe visible")
	}
}

// TestTransactionsShareAStripe: a stripe outlives the transaction that opened
// it. The rows of three transactions fill one stripe, a segment each, and a
// new stripe starts only once the last one is frozen or full.
func TestTransactionsShareAStripe(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 1, nil)
	load := func(n int) {
		tn := mgr.Begin()
		for i := 0; i < n; i++ {
			tbl.Insert(tn.XID(), types.Row{int64(i)})
		}
		_ = mgr.Commit(tn)
	}
	for i := 0; i < 3; i++ {
		load(2)
	}
	if len(tbl.stripes) != 1 || len(tbl.stripes[0].segs) != 3 {
		t.Fatalf("%d stripes, %d segments in the first", len(tbl.stripes), len(tbl.stripes[0].segs))
	}
	if views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil)); len(views) != 1 || views[0].NumRows() != 6 {
		t.Fatalf("the three committed segments read as %d views", len(views))
	}

	tbl.FrozenStripes(mgr, mgr.TakeSnapshot(nil)) // what a checkpoint does
	load(1)
	if len(tbl.stripes) != 2 {
		t.Fatalf("a frozen stripe took more rows: %d stripes", len(tbl.stripes))
	}
	load(StripeRows)
	if len(tbl.stripes) != 3 || tbl.stripes[1].n != StripeRows || tbl.stripes[2].n != 1 {
		t.Fatalf("%d stripes, the second of %d rows", len(tbl.stripes), tbl.stripes[1].n)
	}
}

// TestSegmentVisibility: one stripe holds the rows of committed, aborted and
// in-progress transactions, interleaved, and each snapshot reads exactly the
// runs of segments it sees — its own rows among them.
func TestSegmentVisibility(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 2, nil)
	insert := func(tbl *Table, tx *txn.Txn, tag string, n int) {
		for i := 0; i < n; i++ {
			tbl.Insert(tx.XID(), types.Row{int64(i), tag})
		}
	}
	// each view's tags, views apart by "|"
	read := func(tbl *Table, snap txn.Snapshot) string {
		var out []string
		for _, v := range tbl.VisibleStripes(mgr, snap) {
			chunk := tbl.LoadChunk(v, nil, nil)
			tags := ""
			for r := 0; r < v.NumRows(); r++ {
				tags += chunk[1].Datum(r).(string)
			}
			out = append(out, tags)
		}
		return strings.Join(out, "|")
	}

	// two writers interleave their rows, and a third comes in between
	committed, aborted, open := mgr.Begin(), mgr.Begin(), mgr.Begin()
	insert(tbl, committed, "c", 3)
	insert(tbl, aborted, "a", 2)
	insert(tbl, committed, "c", 2)
	insert(tbl, open, "o", 2)
	insert(tbl, committed, "c", 1)
	insert(tbl, aborted, "a", 1)
	if len(tbl.stripes) != 1 || len(tbl.stripes[0].segs) != 6 {
		t.Fatalf("%d stripes, %d segments", len(tbl.stripes), len(tbl.stripes[0].segs))
	}
	if got := read(tbl, mgr.TakeSnapshot(nil)); got != "" {
		t.Fatalf("rows of transactions in progress are visible: %q", got)
	}
	if got := read(tbl, mgr.TakeSnapshot(committed)); got != "ccc|cc|c" {
		t.Fatalf("the writer reads %q of its own rows", got)
	}
	_ = mgr.Commit(committed)
	mgr.Abort(aborted)
	for _, c := range []struct {
		snap txn.Snapshot
		want string
	}{
		{mgr.TakeSnapshot(nil), "ccc|cc|c"},
		{mgr.TakeSnapshot(open), "ccc|ccooc"},
	} {
		if got := read(tbl, c.snap); got != c.want {
			t.Fatalf("snapshot of %d reads %q, want %q", c.snap.Self, got, c.want)
		}
	}
	_ = mgr.Commit(open)
	if got := read(tbl, mgr.TakeSnapshot(nil)); got != "ccc|ccooc" {
		t.Fatalf("after the last commit: %q", got)
	}

	// Not a prefix: a snapshot taken while an earlier writer was still open —
	// a REPEATABLE READ or SERIALIZABLE transaction's — sees its own later
	// rows of the stripe and never that writer's, not even once it committed.
	tbl = NewTable(2, 2, nil)
	early := mgr.Begin()
	insert(tbl, early, "e", 2)
	late := mgr.Begin()
	snap := mgr.TakeSnapshot(late)
	insert(tbl, late, "l", 2)
	_ = mgr.Commit(early)
	if got := read(tbl, snap); got != "ll" {
		t.Fatalf("the later writer's snapshot reads %q", got)
	}
	if views := tbl.VisibleStripes(mgr, snap); views[0].lo != 2 || tbl.LoadChunk(views[0], nil, nil)[0].Datum(1) != types.Datum(int64(1)) {
		t.Fatalf("its view starts at row %d", views[0].lo)
	}
	if got := read(tbl, mgr.TakeSnapshot(nil)); got != "ee" {
		t.Fatalf("a fresh snapshot reads %q", got)
	}
	_ = mgr.Commit(late)
	if got := read(tbl, mgr.TakeSnapshot(nil)); got != "eell" {
		t.Fatalf("after both commits: %q", got)
	}
}

// TestViewsChargeTheirOwnPages: a table's page count is its chunks' pages at
// the rate LoadChunk charges, and two views of one stripe charge the pages
// their own rows lie on, not the stripe's first ones twice.
func TestViewsChargeTheirOwnPages(t *testing.T) {
	mgr := txn.NewManager()
	pool := bufpool.New(bufpool.Config{CapacityPages: 100000, IOLatency: 1})
	tbl := NewTable(1, 2, pool)
	load := func(n int, commit bool) {
		tn := mgr.Begin()
		for i := 0; i < n; i++ {
			tbl.Insert(tn.XID(), types.Row{int64(i), int64(i)})
		}
		if commit {
			_ = mgr.Commit(tn)
		} else {
			mgr.Abort(tn)
		}
	}
	load(2*rowsPerPage, true) // pages 0 and 1
	load(rowsPerPage, false)  // page 2, never read
	load(rowsPerPage+1, true) // pages 3 and 4
	if got, want := tbl.NumPages(), 2*5; got != want {
		t.Fatalf("%d pages, want %d: two columns of five", got, want)
	}
	views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))
	if len(views) != 2 {
		t.Fatalf("%d views", len(views))
	}
	_, before := pool.Stats()
	for _, v := range views {
		tbl.LoadChunk(v, []int{0}, nil)
	}
	if _, after := pool.Stats(); after-before != 4 {
		t.Fatalf("the two views read %d distinct pages of the column, want 4", after-before)
	}
}

func TestColumnProjectionReducesIO(t *testing.T) {
	// the point of columnar storage: scanning one column of a wide table
	// touches a fraction of the pages
	mgr := txn.NewManager()
	pool := bufpool.New(bufpool.Config{CapacityPages: 100000, IOLatency: 1})
	wide := NewTable(1, 10, pool)
	t1 := mgr.Begin()
	for i := 0; i < StripeRows; i++ {
		row := make(types.Row, 10)
		for c := range row {
			row[c] = int64(i * c)
		}
		wide.Insert(t1.XID(), row)
	}
	_ = mgr.Commit(t1)

	_, missesBefore := pool.Stats()
	wide.Scan(mgr, mgr.TakeSnapshot(nil), []int{0}, func(types.Row) bool { return true })
	_, missesOneCol := pool.Stats()
	wide.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(types.Row) bool { return true })
	_, missesAll := pool.Stats()

	oneCol := missesOneCol - missesBefore
	allCols := missesAll - missesOneCol
	if allCols < 8*oneCol {
		t.Fatalf("projection saved too little I/O: 1 col = %d pages, 10 cols = %d pages", oneCol, allCols)
	}
}

func TestTruncate(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 1, nil)
	t1 := mgr.Begin()
	tbl.Insert(t1.XID(), types.Row{int64(1)})
	_ = mgr.Commit(t1)
	tbl.Truncate()
	if tbl.EstimatedRows() != 0 || len(tbl.stripes) != 0 {
		t.Fatal("truncate left data")
	}
}
