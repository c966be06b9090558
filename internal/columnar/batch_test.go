package columnar

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// TestBatchVisibility drives the chunk-granular API through the same MVCC
// matrix the row-at-a-time scan honours: aborted stripes invisible,
// uncommitted stripes invisible to others but visible to their writer.
func TestBatchVisibility(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 2, nil)

	t1 := mgr.Begin()
	tbl.Insert(t1.XID(), types.Row{int64(1), "committed"})
	_ = mgr.Commit(t1)

	t2 := mgr.Begin()
	tbl.Insert(t2.XID(), types.Row{int64(2), "aborted"})
	mgr.Abort(t2)

	t3 := mgr.Begin()
	tbl.Insert(t3.XID(), types.Row{int64(3), "in-progress"})

	views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))
	if len(views) != 1 {
		t.Fatalf("outside snapshot sees %d stripes, want 1 (committed only)", len(views))
	}
	chunk := tbl.LoadChunk(views[0], nil, nil)
	if got := chunk[1].Datum(0); got != "committed" {
		t.Fatalf("visible stripe holds %v", got)
	}

	// the in-progress writer sees its own stripe plus the committed one
	views = tbl.VisibleStripes(mgr, mgr.TakeSnapshot(t3))
	if len(views) != 2 {
		t.Fatalf("writer snapshot sees %d stripes, want 2", len(views))
	}

	mgr.Abort(t3)
	if n := len(tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))); n != 1 {
		t.Fatalf("after abort, %d stripes visible", n)
	}
}

func TestChunkStats(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 4, nil)
	t1 := mgr.Begin()
	d1 := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	d2 := time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)
	tbl.Insert(t1.XID(), types.Row{int64(7), nil, d2, int64(1)})
	tbl.Insert(t1.XID(), types.Row{int64(-3), nil, d1, "mixed"})
	tbl.Insert(t1.XID(), types.Row{int64(12), nil, nil, int64(2)})
	_ = mgr.Commit(t1)

	v := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))[0]

	min, max, ok := v.Stats(0)
	if !ok || min != int64(-3) || max != int64(12) {
		t.Fatalf("int stats = %v..%v ok=%v", min, max, ok)
	}
	// NULLs carry no stats
	if _, _, ok := v.Stats(1); ok {
		t.Fatal("all-NULL column reported stats")
	}
	// NULLs interleaved with values are ignored, not poisonous
	min, max, ok = v.Stats(2)
	if !ok || !min.(time.Time).Equal(d1) || !max.(time.Time).Equal(d2) {
		t.Fatalf("time stats = %v..%v ok=%v", min, max, ok)
	}
	// mixed-type chunks must refuse to offer stats (no sound ordering)
	if _, _, ok := v.Stats(3); ok {
		t.Fatal("mixed-type column reported stats")
	}
}

// TestInProgressXminConcurrentScan runs scans against a snapshot taken
// while another transaction is mid-insert: the scan must see either none
// or all of that transaction's rows, never a torn prefix. Run under
// -race, this also proves readers never touch an in-progress stripe's
// mutable fields.
func TestInProgressXminConcurrentScan(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 2, nil)

	base := mgr.Begin()
	for i := 0; i < 100; i++ {
		tbl.Insert(base.XID(), types.Row{int64(i), "base"})
	}
	_ = mgr.Commit(base)

	const extra = 500
	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mgr.Begin()
		for i := 0; i < extra; i++ {
			tbl.Insert(w.XID(), types.Row{int64(1000 + i), "extra"})
		}
		_ = mgr.Commit(w)
		close(writerDone)
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				count := 0
				tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(row types.Row) bool {
					count++
					return true
				})
				if count != 100 && count != 100+extra {
					t.Errorf("torn scan: %d rows (want 100 or %d)", count, 100+extra)
					return
				}
			}
		}()
	}
	wg.Wait()

	count := 0
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(types.Row) bool { count++; return true })
	if count != 100+extra {
		t.Fatalf("final scan = %d rows", count)
	}
}

// TestTruncateDuringScan holds stripe views across a Truncate: the
// append-only backing arrays keep the views readable, and concurrent
// scans racing a Truncate+reload cycle stay well-formed under -race.
func TestTruncateDuringScan(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 2, nil)
	load := func(tag string, n int) {
		w := mgr.Begin()
		for i := 0; i < n; i++ {
			tbl.Insert(w.XID(), types.Row{int64(i), tag})
		}
		_ = mgr.Commit(w)
	}
	load("gen1", 200)

	// A view taken before Truncate stays valid after it.
	views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))
	tbl.Truncate()
	total := 0
	for _, v := range views {
		chunk := tbl.LoadChunk(v, []int{1}, nil)
		for r := 0; r < v.NumRows(); r++ {
			if got := chunk[1].Datum(r); got != "gen1" {
				t.Fatalf("stale view returned %v", got)
			}
			total++
		}
	}
	if total != 200 {
		t.Fatalf("stale views yielded %d rows", total)
	}

	// Concurrent scans racing Truncate + reload cycles: every row a scan
	// observes must be internally consistent (tag matches its generation).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(row types.Row) bool {
					if _, ok := row[1].(string); !ok {
						t.Errorf("malformed row: %v", row)
						return false
					}
					return true
				})
			}
		}()
	}
	for g := 0; g < 10; g++ {
		load("gen2", 50)
		tbl.Truncate()
	}
	close(stop)
	wg.Wait()

	if tbl.EstimatedRows() != 0 || len(tbl.stripes) != 0 {
		t.Fatal("truncate left data behind")
	}
}

// TestScanScratchRowAliasing pins the documented contract: the Row handed
// to the callback is reused, so retained rows must be copied.
func TestScanScratchRowAliasing(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 1, nil)
	w := mgr.Begin()
	tbl.Insert(w.XID(), types.Row{int64(1)})
	tbl.Insert(w.XID(), types.Row{int64(2)})
	_ = mgr.Commit(w)

	var retained []types.Row
	var copied []int64
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(row types.Row) bool {
		retained = append(retained, row) // aliasing bug: same backing array
		copied = append(copied, row[0].(int64))
		return true
	})
	if copied[0] != 1 || copied[1] != 2 {
		t.Fatalf("copied values = %v", copied)
	}
	// the retained (un-copied) rows all alias the scratch buffer
	if &retained[0][0] != &retained[1][0] {
		t.Fatal("scan allocated per-row; scratch reuse regressed")
	}
}

// scanRows collects what the row-at-a-time path returns.
func scanRows(tbl *Table, mgr *txn.Manager, snap txn.Snapshot, needed []int) []types.Row {
	var rows []types.Row
	tbl.Scan(mgr, snap, needed, func(row types.Row) bool {
		rows = append(rows, row.Clone())
		return true
	})
	return rows
}

// chunkRows reads the same rows through the batch API, vector by vector.
func chunkRows(tbl *Table, mgr *txn.Manager, snap txn.Snapshot) []types.Row {
	var rows []types.Row
	for _, v := range tbl.VisibleStripes(mgr, snap) {
		chunk := tbl.LoadChunk(v, nil, nil)
		for r := 0; r < v.NumRows(); r++ {
			row := make(types.Row, len(chunk))
			for ci := range chunk {
				row[ci] = chunk[ci].Datum(r)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestChunkKinds: a column chunk is a vector of the kind of its first
// non-NULL value, a leading run of NULLs notwithstanding, and a value of a
// second type — which only a direct Insert can bring, SQL casts to the
// column's type — demotes that one chunk to boxed datums: both paths still
// return every row as it was inserted, the stripe offers no statistics for
// the column, and the kernels still select what types.Compare selects.
func TestChunkKinds(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 5, nil)
	day := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	inserted := []types.Row{
		{nil, nil, nil, nil, nil},
		{nil, int64(4), "x", nil, day},
		{int64(1), nil, "y", 1.5, nil},
		{int64(2), int64(6), "x", 2.5, day.AddDate(0, 0, 1)},
	}
	w := mgr.Begin()
	for _, row := range inserted {
		tbl.Insert(w.XID(), row)
	}
	view := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(w))[0]
	chunk := tbl.LoadChunk(view, nil, nil)
	for ci, want := range []vec.Kind{vec.KindInt, vec.KindInt, vec.KindString, vec.KindFloat, vec.KindTime} {
		if chunk[ci].Kind != want || chunk[ci].Nulls == nil {
			t.Fatalf("column %d: kind %d (want %d), mask %v", ci, chunk[ci].Kind, want, chunk[ci].Nulls)
		}
		if _, _, ok := view.Stats(ci); !ok || !view.HasNulls(ci) {
			t.Fatalf("column %d: typed chunk without statistics, or its NULLs forgotten", ci)
		}
	}

	// foreign values: a string among ints, a float among strings
	foreign := []types.Row{
		{int64(3), "seven", 8.5, 3.5, day},
		{int64(4), int64(5), "z", 4.5, day},
	}
	for _, row := range foreign {
		tbl.Insert(w.XID(), row)
	}
	inserted = append(inserted, foreign...)
	_ = mgr.Commit(w)

	snap := mgr.TakeSnapshot(nil)
	view = tbl.VisibleStripes(mgr, snap)[0]
	chunk = tbl.LoadChunk(view, nil, chunk)
	for ci, want := range []vec.Kind{vec.KindInt, vec.KindGeneric, vec.KindGeneric, vec.KindFloat, vec.KindTime} {
		if chunk[ci].Kind != want {
			t.Fatalf("column %d after the foreign values: kind %d, want %d", ci, chunk[ci].Kind, want)
		}
		if _, _, ok := view.Stats(ci); ok != (want != vec.KindGeneric) {
			t.Fatalf("column %d (kind %d): statistics usable = %v", ci, want, ok)
		}
	}
	if got := scanRows(tbl, mgr, snap, nil); !reflect.DeepEqual(got, inserted) {
		t.Fatalf("row path returns\n%v\nwant\n%v", got, inserted)
	}
	if got := chunkRows(tbl, mgr, snap); !reflect.DeepEqual(got, inserted) {
		t.Fatalf("vectors return\n%v\nwant\n%v", got, inserted)
	}
	for _, f := range []vec.Filter{
		{Col: 1, Op: vec.Ge, K: int64(5)}, {Col: 1, Op: vec.Lt, K: "t"}, {Col: 2, Op: vec.Eq, K: "x"},
		{Col: 2, Between: true, Lo: int64(8), Hi: 9.0}, {Col: 1, NullTest: true},
	} {
		var want vec.Sel
		for r, row := range inserted {
			d := row[f.Col]
			switch {
			case f.NullTest:
				if d == nil {
					want = append(want, int32(r))
				}
			case d == nil:
			case f.Between:
				if types.Compare(d, f.Lo) >= 0 && types.Compare(d, f.Hi) <= 0 {
					want = append(want, int32(r))
				}
			case (f.Op == vec.Ge && types.Compare(d, f.K) >= 0) || (f.Op == vec.Lt && types.Compare(d, f.K) < 0) ||
				(f.Op == vec.Eq && types.Compare(d, f.K) == 0):
				want = append(want, int32(r))
			}
		}
		if got := f.Apply(&chunk[f.Col], nil, nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s over the demoted chunk selects %v, the row evaluator %v", f.String(), got, want)
		}
	}
}

// TestTimestampRoundTrip: whatever time goes in comes out identical, zone
// and all, on both paths; only UTC times inside UnixNano's range are held as
// nanoseconds.
func TestTimestampRoundTrip(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 2, nil)
	utc := time.Date(2024, 3, 1, 10, 20, 30, 456, time.UTC)
	times := []time.Time{
		utc,
		utc.In(time.FixedZone("", 5*3600+1800)), // a fixed-offset zone
		{},                                      // the zero time
		time.Date(1600, 2, 29, 0, 0, 0, 0, time.UTC),
	}
	w := mgr.Begin()
	var inserted []types.Row
	for _, ts := range times {
		inserted = append(inserted, types.Row{utc, ts})
		tbl.Insert(w.XID(), inserted[len(inserted)-1])
	}
	_ = mgr.Commit(w)
	snap := mgr.TakeSnapshot(nil)
	chunk := tbl.LoadChunk(tbl.VisibleStripes(mgr, snap)[0], nil, nil)
	if chunk[0].Kind != vec.KindTime || chunk[1].Kind != vec.KindGeneric {
		t.Fatalf("kinds %d and %d, want nanoseconds and boxed datums", chunk[0].Kind, chunk[1].Kind)
	}
	for how, got := range map[string][]types.Row{"row path": scanRows(tbl, mgr, snap, nil), "vectors": chunkRows(tbl, mgr, snap)} {
		for r := range inserted {
			for c := range inserted[r] {
				// ==, not Equal: the same instant in another zone is another datum
				if got[r][c] != inserted[r][c] {
					t.Fatalf("%s: row %d column %d reads back %#v, want %#v", how, r, c, got[r][c], inserted[r][c])
				}
			}
		}
	}
}

// TestStringDictionaryInStripe fills one stripe's text column with 1, 255,
// 256 and (the most a stripe takes) StripeRows distinct values.
func TestStringDictionaryInStripe(t *testing.T) {
	for _, distinct := range []int{1, 255, 256, StripeRows} {
		mgr := txn.NewManager()
		tbl := NewTable(1, 1, nil)
		w := mgr.Begin()
		for i := 0; i < StripeRows; i++ {
			tbl.Insert(w.XID(), types.Row{fmt.Sprintf("v%05d", i%distinct)})
		}
		_ = mgr.Commit(w)
		snap := mgr.TakeSnapshot(nil)
		if len(tbl.stripes) != 1 {
			t.Fatalf("%d stripes", len(tbl.stripes))
		}
		chunk := tbl.LoadChunk(tbl.VisibleStripes(mgr, snap)[0], nil, nil)
		if chunk[0].Kind != vec.KindString || len(chunk[0].Dict) != distinct {
			t.Fatalf("%d distinct values: kind %d, dictionary of %d", distinct, chunk[0].Kind, len(chunk[0].Dict))
		}
		for r, row := range scanRows(tbl, mgr, snap, nil) {
			if want := fmt.Sprintf("v%05d", r%distinct); row[0] != want || chunk[0].Datum(r) != want {
				t.Fatalf("%d distinct values: row %d is %v / %v, want %s", distinct, r, row[0], chunk[0].Datum(r), want)
			}
		}
	}
}

// TestOwnStripeViewIsAPrefix: a transaction reads its own open stripe while
// it keeps inserting into it (a cursor, a parallel scan's goroutines). A view
// is the rows the stripe held when it was taken: every reader sees exactly
// those, whole, however far the writer has got — across the start of a NULL
// mask, dictionary growth and a demotion. Run under -race this also proves
// that the readers touch nothing the writer writes.
func TestOwnStripeViewIsAPrefix(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 4, nil)
	w := mgr.Begin()
	rowAt := func(i int) types.Row {
		row := types.Row{int64(i), fmt.Sprintf("s%d", i%300), float64(i) / 2, int64(i)}
		if i >= 700 && i%7 == 0 {
			row[2] = nil // the mask starts late
		}
		if i >= 1500 && i%5 == 0 {
			row[3] = "foreign" // and so does the demotion
		}
		return row
	}
	const total = 3000
	tbl.Insert(w.XID(), rowAt(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []vec.Vector
			for {
				select {
				case <-stop:
					return
				default:
				}
				views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(w))
				if len(views) != 1 {
					t.Errorf("the writer's snapshot sees %d stripes", len(views))
					return
				}
				view := views[0]
				n := view.NumRows()
				min, max, ok := view.Stats(0)
				if !ok || min != types.Datum(int64(0)) || max.(int64) < int64(n-1) {
					t.Errorf("stats of a view of %d rows: %v..%v ok=%v", n, min, max, ok)
					return
				}
				buf = tbl.LoadChunk(view, nil, buf)
				for ci := range buf {
					if buf[ci].Len() != n {
						t.Errorf("view of %d rows, column %d has %d", n, ci, buf[ci].Len())
						return
					}
				}
				for _, r := range []int{0, n / 2, n - 1} {
					for ci, want := range rowAt(r) {
						if got := buf[ci].Datum(r); got != want {
							t.Errorf("view of %d rows: row %d column %d is %v, want %v", n, r, ci, got, want)
							return
						}
					}
				}
			}
		}()
	}
	for i := 1; i < total; i++ {
		tbl.Insert(w.XID(), rowAt(i))
	}
	close(stop)
	wg.Wait()
	_ = mgr.Commit(w)
	if got := scanRows(tbl, mgr, mgr.TakeSnapshot(nil), []int{0, 3}); len(got) != total || got[total-5][3] != "foreign" {
		t.Fatalf("after the commit: %d rows, row %d = %v", len(got), total-5, got[total-5])
	}
}

// TestAdoptedStripesAreShared: a checkpoint's image holds the committed runs
// of a table's stripes, each stripe frozen, and a table rebuilt from it
// adopts the very same stripes — their committed, aborted and still-open
// segments alike, of which it shows the committed ones only. Both tables
// keep taking rows and serving scans at once; neither writes to what they
// share.
func TestAdoptedStripesAreShared(t *testing.T) {
	mgr := txn.NewManager()
	src := NewTable(1, 2, nil)
	load := func(tx *txn.Txn, tag string, n int) {
		for r := 0; r < n; r++ {
			src.Insert(tx.XID(), types.Row{int64(r), tag})
		}
	}
	commit := func() {
		tx := mgr.Begin()
		load(tx, "s", 50)
		if err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	aborted := mgr.Begin()
	load(aborted, "aborted", 10)
	mgr.Abort(aborted)
	commit()
	open := mgr.Begin() // in progress: not in the image
	load(open, "open", 1)
	commit()
	views := src.FrozenStripes(mgr, mgr.TakeSnapshot(nil))
	if len(views) != 3 || len(src.stripes) != 1 {
		t.Fatalf("image holds %d runs of %d stripes, want the 3 committed runs of one", len(views), len(src.stripes))
	}
	dst := NewTable(2, 2, nil)
	dst.Adopt(views, 1)
	if len(dst.stripes) != 1 || &dst.stripes[0].cols[0] != &src.stripes[0].cols[0] {
		t.Fatal("the rebuilt table does not share the source's stripe")
	}

	count := func(tbl *Table) int {
		n := 0
		tbl.Scan(mgr, mgr.TakeSnapshot(nil), nil, func(types.Row) bool { n++; return true })
		return n
	}
	var wg sync.WaitGroup
	for _, tbl := range []*Table{src, dst} {
		wg.Add(2)
		go func(tbl *Table) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := mgr.Begin()
				tbl.Insert(tx.XID(), types.Row{int64(i), "more"})
				if err := mgr.Commit(tx); err != nil {
					t.Error(err)
				}
			}
		}(tbl)
		go func(tbl *Table) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if n := count(tbl); n < 150 {
					t.Errorf("scan saw %d rows, want at least the 150 shared ones", n)
				}
			}
		}(tbl)
	}
	wg.Wait()
	if got := count(dst); got != 170 {
		t.Fatalf("rebuilt table holds %d rows, want 150 adopted + 20 of its own", got)
	}
	if got := count(src); got != 170 {
		t.Fatalf("source table shows %d rows, want 170 (its open transaction's row is invisible)", got)
	}
	// The open transaction commits. Its row shows in the source; the rebuilt
	// table stamped it XID 0 and never shows it — a recovery takes it from
	// the log's tail instead.
	if err := mgr.Commit(open); err != nil {
		t.Fatal(err)
	}
	if got := count(src); got != 171 {
		t.Fatalf("source table shows %d rows after the commit, want 171", got)
	}
	for _, row := range scanRows(dst, mgr, mgr.TakeSnapshot(nil), nil) {
		if tag := row[1].(string); tag != "s" && tag != "more" {
			t.Fatalf("the rebuilt table shows a row tagged %q", tag)
		}
	}
	if got := count(dst); got != 170 {
		t.Fatalf("rebuilt table holds %d rows after the source's commit, want 170", got)
	}
}

// TestFrozenVectorIsClipped: freezing a stripe moves each of its vectors'
// slices into an array of exactly its length, so that the room append grew
// past the rows goes; readers holding views taken before the freeze keep
// reading the old arrays, whole, while it happens. Run under -race this also
// proves the freeze writes nothing they read.
func TestFrozenVectorIsClipped(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, 4, nil)
	rowAt := func(i int) types.Row {
		row := types.Row{int64(i), fmt.Sprintf("s%d", i%300), float64(i) / 2, int64(i)}
		if i%7 == 0 {
			row[2] = nil
		}
		if i%5 == 0 {
			row[3] = "foreign"
		}
		return row
	}
	const n = 1000
	for i := 0; i < n; i++ {
		w := mgr.Begin()
		tbl.Insert(w.XID(), rowAt(i))
		_ = mgr.Commit(w)
	}
	views := tbl.VisibleStripes(mgr, mgr.TakeSnapshot(nil))
	if len(views) != 1 {
		t.Fatalf("%d views", len(views))
	}
	held := tbl.LoadChunk(views[0], nil, nil)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var buf []vec.Vector
			for pass := 0; pass < 20; pass++ {
				// the view held from before, and one loaded again, on whichever
				// arrays the freeze has left the stripe
				buf = tbl.LoadChunk(views[0], nil, buf)
				for _, chunk := range [][]vec.Vector{held, buf} {
					for i := pass; i < n; i += 37 {
						for ci, want := range rowAt(i) {
							if got := chunk[ci].Datum(i); got != want {
								t.Errorf("row %d column %d reads %v, want %v", i, ci, got, want)
								return
							}
						}
					}
				}
			}
		}()
	}
	close(start)
	tbl.FrozenStripes(mgr, mgr.TakeSnapshot(nil))
	wg.Wait()

	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for ci := range tbl.stripes[0].cols {
		v := &tbl.stripes[0].cols[ci]
		if cap(v.Nulls) != len(v.Nulls) || cap(v.Ints) != len(v.Ints) || cap(v.Floats) != len(v.Floats) ||
			cap(v.Codes) != len(v.Codes) || cap(v.Dict) != len(v.Dict) || cap(v.Bools) != len(v.Bools) ||
			cap(v.Datums) != len(v.Datums) {
			t.Fatalf("column %d (kind %d) keeps room past its rows after the freeze", ci, v.Kind)
		}
	}
}
