package heap

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"citusgo/internal/bufpool"
	"citusgo/internal/rowbatch"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// enc encodes one row as the engine stores it.
func enc(row ...types.Datum) []byte {
	b, err := rowbatch.EncodeRow(row)
	if err != nil {
		panic(err)
	}
	return b
}

// ins inserts one row as the engine does and returns its TID.
func ins(tbl *Table, xid uint64, row ...types.Datum) TID {
	tid, _, err := tbl.Insert(xid, row)
	if err != nil {
		panic(err)
	}
	return tid
}

// vacuum runs a pass over a table no index reads and returns how many
// versions it reclaimed.
func vacuum(tbl *Table, mgr *txn.Manager) int {
	return tbl.Vacuum(mgr, mgr.GlobalXmin(), nil, func(TID, []byte, TID) {})
}

// decodeAll decodes a batch of tuples.
func decodeAll(tuples [][]byte) []types.Row {
	rows := make([]types.Row, len(tuples))
	for i, tup := range tuples {
		rows[i] = rowbatch.DecodeRow(tup)
	}
	return rows
}

func TestInsertAndScanVisibility(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)

	t1 := mgr.Begin()
	ins(tbl, t1.XID(), int64(1), "one")

	// invisible to others before commit
	snap := mgr.TakeSnapshot(nil)
	count := 0
	tbl.Scan(mgr, snap, visibleOnly(func(TID, []byte) bool { count++; return true }))
	if count != 0 {
		t.Fatal("uncommitted insert visible")
	}
	// visible to itself
	selfSnap := mgr.TakeSnapshot(t1)
	tbl.Scan(mgr, selfSnap, visibleOnly(func(TID, []byte) bool { count++; return true }))
	if count != 1 {
		t.Fatal("own insert invisible")
	}
	_ = mgr.Commit(t1)
	count = 0
	tbl.Scan(mgr, mgr.TakeSnapshot(nil), visibleOnly(func(TID, []byte) bool { count++; return true }))
	if count != 1 {
		t.Fatal("committed insert invisible")
	}
}

func TestDeleteVisibility(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	tid := ins(tbl, t1.XID(), int64(1))
	_ = mgr.Commit(t1)

	t2 := mgr.Begin()
	tbl.MarkDeleted(tid, t2.XID(), NilTID, false)
	// deleter no longer sees it; others still do
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(t2)) != 0 {
		t.Fatal("deleter still sees deleted row")
	}
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 1 {
		t.Fatal("concurrent snapshot must still see the row")
	}
	_ = mgr.Commit(t2)
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 0 {
		t.Fatal("deleted row visible after commit")
	}
}

func TestAbortedDeleteStaysVisible(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	tid := ins(tbl, t1.XID(), int64(1))
	_ = mgr.Commit(t1)

	t2 := mgr.Begin()
	tbl.MarkDeleted(tid, t2.XID(), NilTID, false)
	mgr.Abort(t2)
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 1 {
		t.Fatal("row deleted by an aborted transaction must stay visible")
	}
}

func TestUpdateChain(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	v1 := ins(tbl, t1.XID(), int64(1), "v1")
	_ = mgr.Commit(t1)

	t2 := mgr.Begin()
	v2 := ins(tbl, t2.XID(), int64(1), "v2")
	tbl.MarkDeleted(v1, t2.XID(), v2, false)
	_ = mgr.Commit(t2)

	if old, ok := tbl.Get(v1); !ok || old.Next != v2 || old.HOT {
		t.Fatalf("chain: %+v ok=%v", old, ok)
	}
	if tup, ok := tbl.Get(v2); !ok || tup.Row()[1] != "v2" || tup.HeapOnly {
		t.Fatalf("new version: %+v ok=%v", tup, ok)
	}
	// only the new version is visible
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 1 {
		t.Fatal("expected exactly one visible version")
	}
}

func TestVacuumReclaims(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	var lastTID TID
	t1 := mgr.Begin()
	lastTID = ins(tbl, t1.XID(), int64(0))
	_ = mgr.Commit(t1)
	for i := 0; i < 5; i++ {
		tn := mgr.Begin()
		newTID := ins(tbl, tn.XID(), int64(i+1))
		tbl.MarkDeleted(lastTID, tn.XID(), newTID, false)
		lastTID = newTID
		_ = mgr.Commit(tn)
	}
	roots := 0
	n := tbl.Vacuum(mgr, mgr.GlobalXmin(), nil, func(_ TID, data []byte, to TID) {
		if data == nil || to != NilTID {
			t.Fatalf("a root of no HOT chain was reported with bytes %v and successor %d", data, to)
		}
		roots++
	})
	if n != 5 || roots != 5 {
		t.Fatalf("reclaimed %d versions and reported %d roots, want 5 of each", n, roots)
	}
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 1 {
		t.Fatal("live row lost by vacuum")
	}
	if tbl.EstimatedRows() != 1 {
		t.Fatalf("estimate = %d", tbl.EstimatedRows())
	}
	// vacuum is idempotent
	if again := vacuum(tbl, mgr); again != 0 {
		t.Fatalf("second vacuum reclaimed %d", again)
	}
}

func TestVacuumRespectsHorizon(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	tid := ins(tbl, t1.XID(), int64(1))
	_ = mgr.Commit(t1)

	// an old reader is still running
	oldReader := mgr.Begin()
	t2 := mgr.Begin()
	tbl.MarkDeleted(tid, t2.XID(), NilTID, false)
	_ = mgr.Commit(t2)

	if reclaimed := vacuum(tbl, mgr); reclaimed != 0 {
		t.Fatal("vacuum reclaimed a version an old snapshot may need")
	}
	_ = mgr.Commit(oldReader)
	if reclaimed := vacuum(tbl, mgr); reclaimed != 1 {
		t.Fatal("vacuum should reclaim after the old reader finished")
	}
}

func TestAbortedInsertVacuumed(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	ins(tbl, t1.XID(), int64(1))
	mgr.Abort(t1)
	if reclaimed := vacuum(tbl, mgr); reclaimed != 1 {
		t.Fatalf("aborted insert not reclaimed: %d", reclaimed)
	}
}

func TestTIDAddressing(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	var tids []TID
	for i := 0; i < TuplesPerPage*3+5; i++ {
		tids = append(tids, ins(tbl, t1.XID(), int64(i)))
	}
	_ = mgr.Commit(t1)
	if tbl.NumPages() != 4 {
		t.Fatalf("pages = %d", tbl.NumPages())
	}
	for i, tid := range tids {
		tup, ok := tbl.Get(tid)
		if !ok || tup.Row()[0].(int64) != int64(i) {
			t.Fatalf("get(%d) = %v, %v", tid, tup, ok)
		}
	}
	if _, ok := tbl.Get(TID(999999)); ok {
		t.Fatal("out-of-range TID resolved")
	}
	if _, ok := tbl.Get(NilTID); ok {
		t.Fatal("nil TID resolved")
	}
}

func TestTruncate(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	ins(tbl, t1.XID(), int64(1))
	_ = mgr.Commit(t1)
	tbl.Truncate()
	if visibleCount(tbl, mgr, mgr.TakeSnapshot(nil)) != 0 || tbl.EstimatedRows() != 0 {
		t.Fatal("truncate left data")
	}
}

func visibleCount(tbl *Table, mgr *txn.Manager, snap txn.Snapshot) int {
	count := 0
	tbl.Scan(mgr, snap, visibleOnly(func(TID, []byte) bool { count++; return true }))
	return count
}

// TestScanVisibilityMatchesVisible: the per-scan memo of the snapshot's
// verdict on the last writer answers every tuple as the full rules do —
// whatever tuple came before it — over writers committed, aborted, in
// progress and prepared, the snapshot's own inserts and deletes, and deleters
// of every outcome; and Scan and BatchScan, which both decide through it,
// return exactly the versions Visible admits, in order.
func TestScanVisibilityMatchesVisible(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	committed, aborted, running, prepared, self := mgr.Begin(), mgr.Begin(), mgr.Begin(), mgr.Begin(), mgr.Begin()
	deleter, abortedDeleter, runningDeleter := mgr.Begin(), mgr.Begin(), mgr.Begin()

	// every writer's tuples twice in a row (the memo answers the second), and
	// then interleaved (each answer replaces the last)
	writers := []*txn.Txn{committed, committed, aborted, aborted, running, running, prepared, prepared, self, self,
		committed, aborted, committed, running, committed, prepared, committed, self, committed}
	for i, w := range writers {
		ins(tbl, w.XID(), int64(i))
	}
	// committed tuples with a deleter of every kind, each twice
	for i, d := range []*txn.Txn{deleter, deleter, abortedDeleter, abortedDeleter, runningDeleter, runningDeleter, prepared, self, self} {
		tid := ins(tbl, committed.XID(), int64(100+i))
		tbl.MarkDeleted(tid, d.XID(), NilTID, false)
	}
	// the snapshot's own insert, deleted by itself
	tbl.MarkDeleted(ins(tbl, self.XID(), int64(200)), self.XID(), NilTID, false)
	ins(tbl, committed.XID(), int64(201))

	_ = mgr.Commit(committed)
	mgr.Abort(aborted)
	if err := mgr.Prepare(prepared, "gid"); err != nil {
		t.Fatal(err)
	}
	_ = mgr.Commit(deleter)
	mgr.Abort(abortedDeleter)
	// a version vacuum has reclaimed
	if reclaimed := tbl.Vacuum(mgr, 0, nil, func(TID, []byte, TID) {}); reclaimed == 0 {
		t.Fatal("vacuum reclaimed nothing: no dead tuple in the table")
	}

	for name, s := range map[string]txn.Snapshot{"outside": mgr.TakeSnapshot(nil), "own": mgr.TakeSnapshot(self)} {
		var tuples []Tuple
		var slots []slot
		var want []types.Row
		tbl.mu.RLock()
		for _, pg := range tbl.pages {
			for i := range pg.slots {
				tuples = append(tuples, pg.tuple(i))
			}
			slots = append(slots, pg.slots...)
		}
		tbl.mu.RUnlock()
		vis := scanVisibility{mgr: mgr, s: s}
		seen := map[bool]int{}
		for i := range tuples {
			full := Visible(mgr, s, tuples[i])
			if got := vis.visible(&slots[i]); got != full {
				t.Errorf("%s snapshot, tuple %d (%+v): memo says %v, Visible %v", name, i, tuples[i], got, full)
			}
			if full {
				want = append(want, tuples[i].Row())
			}
			seen[full]++
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("%s snapshot: %v: the table must hold visible and invisible versions", name, seen)
		}

		var scanned, batched []types.Row
		tbl.Scan(mgr, s, visibleOnly(func(_ TID, data []byte) bool { scanned = append(scanned, rowbatch.DecodeRow(data)); return true }))
		for b := tbl.NewBatchScan(mgr, s); ; {
			batch, ok := b.Next()
			rows := decodeAll(batch)
			if !ok {
				break
			}
			batched = append(batched, rows...)
		}
		for kind, got := range map[string][]types.Row{"Scan": scanned, "BatchScan": batched} {
			if len(got) != len(want) {
				t.Fatalf("%s snapshot: %s returned %d rows, Visible admits %d", name, kind, len(got), len(want))
			}
			for i := range got {
				if got[i][0] != want[i][0] {
					t.Errorf("%s snapshot: %s row %d is %v, want %v", name, kind, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchScanChargesWhatScanCharges: a batched scan touches the buffer pool
// exactly as Scan does — every page once, in page order — so that under a
// pool smaller than the table, two passes of either leave the same hits and
// the same misses. Modelled I/O does not move when a query changes path.
func TestBatchScanChargesWhatScanCharges(t *testing.T) {
	mgr := txn.NewManager()
	const pages, capacity = 2*BatchPages + 5, BatchPages + 3
	stats := map[string][2]int64{}
	for _, kind := range []string{"Scan", "BatchScan"} {
		pool := bufpool.New(bufpool.Config{})
		tbl := NewTable(1, pool)
		w := mgr.Begin()
		for i := 0; i < pages*TuplesPerPage-7; i++ {
			ins(tbl, w.XID(), int64(i))
		}
		_ = mgr.Commit(w)
		pool.SetCapacity(capacity)
		pool.SetIOLatency(0, 1) // count, do not sleep
		for pass := 0; pass < 2; pass++ {
			rows := 0
			if kind == "Scan" {
				tbl.Scan(mgr, mgr.TakeSnapshot(nil), visibleOnly(func(TID, []byte) bool { rows++; return true }))
			} else {
				for b := tbl.NewBatchScan(mgr, mgr.TakeSnapshot(nil)); ; {
					batch, ok := b.Next()
					if !ok {
						break
					}
					rows += len(batch)
				}
			}
			if rows != pages*TuplesPerPage-7 {
				t.Fatalf("%s returned %d rows", kind, rows)
			}
		}
		hits, misses := pool.Stats()
		stats[kind] = [2]int64{hits, misses}
	}
	if stats["Scan"] != stats["BatchScan"] || stats["Scan"][0]+stats["Scan"][1] != 2*pages {
		t.Fatalf("(hits, misses) over two passes of %d pages: Scan %v, BatchScan %v", pages, stats["Scan"], stats["BatchScan"])
	}
}

// TestBatchScanConcurrentWriters: batched scans run beside inserts, deletes
// and vacuum (run it under -race). A scan sees each committed row at most
// once and never a half-written one. Each round waits for the writer to
// have vacuumed since the one before, and the writer keeps the table's live
// rows under a budget, deleting its oldest past it, so the rows a scan reads
// and a vacuum checks stay bounded however long the reader takes.
func TestBatchScanConcurrentWriters(t *testing.T) {
	const liveBudget = 2048
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	stop := make(chan struct{})
	vacuumed := make(chan struct{}, 1)
	trims := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []TID // committed rows, oldest first
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := mgr.Begin()
			tid := ins(tbl, w.XID(), i, i*2)
			if i%3 == 0 {
				tbl.MarkDeleted(tid, w.XID(), NilTID, false)
			}
			if i%5 == 0 {
				mgr.Abort(w)
			} else {
				_ = mgr.Commit(w)
				if i%3 != 0 {
					live = append(live, tid)
				}
			}
			if len(live) > liveBudget {
				d := mgr.Begin()
				for _, old := range live[:liveBudget/2] {
					tbl.MarkDeleted(old, d.XID(), NilTID, false)
				}
				_ = mgr.Commit(d)
				live = append(live[:0], live[liveBudget/2:]...)
				vacuum(tbl, mgr)
				trims++
			}
			if i%64 == 0 {
				vacuum(tbl, mgr)
				select {
				case vacuumed <- struct{}{}:
				default:
				}
			}
		}
	}()
	for round := 0; round < 200; round++ {
		<-vacuumed
		seen := map[int64]bool{}
		for b := tbl.NewBatchScan(mgr, mgr.TakeSnapshot(nil)); ; {
			batch, ok := b.Next()
			rows := decodeAll(batch)
			if !ok {
				break
			}
			for _, r := range rows {
				k := r[0].(int64)
				if seen[k] || r[1].(int64) != 2*k || k%3 == 0 || k%5 == 0 {
					t.Fatalf("round %d: row %v (seen before: %v)", round, r, seen[k])
				}
				seen[k] = true
			}
		}
	}
	close(stop)
	wg.Wait()
	if trims == 0 {
		t.Fatalf("the writer never reached its budget of %d live rows", liveBudget)
	}
}

// TestTIDScanMatchesGet: a TID scan over an index's candidate list — sparse,
// with a TID past the table's end and a nil one among them — returns the rows
// that a Get and a Visible per TID return, in the order given, and charges the
// buffer pool the same accesses, hit for hit and miss for miss, with the cache
// a few pages short of what the candidates touch.
func TestTIDScanMatchesGet(t *testing.T) {
	mgr := txn.NewManager()
	const tuples = 9*TuplesPerPage - 5
	stats := map[string][2]int64{}
	got := map[string][]int64{}
	for _, kind := range []string{"Get", "TIDScan"} {
		pool := bufpool.New(bufpool.Config{})
		tbl := NewTable(1, pool)
		var tids []TID
		for i := 0; i < tuples; i++ {
			w := mgr.Begin()
			tid := ins(tbl, w.XID(), int64(i))
			switch {
			case i%7 == 0:
				mgr.Abort(w)
			case i%11 == 0:
				tbl.MarkDeleted(tid, w.XID(), NilTID, false)
				_ = mgr.Commit(w)
			default:
				_ = mgr.Commit(w)
			}
			if i%3 != 1 {
				tids = append(tids, tid)
			}
		}
		open := mgr.Begin() // still running when the snapshot is taken
		tids = append(tids, ins(tbl, open.XID(), int64(-1)), TID(100*TuplesPerPage), NilTID)
		vacuum(tbl, mgr)
		pool.SetCapacity(4)
		pool.SetIOLatency(0, 1) // count, do not sleep
		snap := mgr.TakeSnapshot(nil)
		for pass := 0; pass < 2; pass++ {
			if kind == "Get" {
				for _, tid := range tids {
					if tup, ok := tbl.Get(tid); ok && Visible(mgr, snap, tup) {
						got[kind] = append(got[kind], tup.Row()[0].(int64))
					}
				}
				continue
			}
			for b := tbl.NewTIDScan(mgr, snap, tids); ; {
				batch, ok := b.Next()
				rows := decodeAll(batch)
				if !ok {
					if read, total := b.Progress(); read != total || total != len(tids) {
						t.Fatalf("a finished scan of %d TIDs reports %d of %d read", len(tids), read, total)
					}
					break
				}
				for _, r := range rows {
					got[kind] = append(got[kind], r[0].(int64))
				}
			}
		}
		hits, misses := pool.Stats()
		stats[kind] = [2]int64{hits, misses}
		mgr.Abort(open)
	}
	if len(got["Get"]) == 0 || !slices.Equal(got["Get"], got["TIDScan"]) {
		t.Fatalf("Get per TID returned %d rows, the TID scan %d, or not the same ones", len(got["Get"]), len(got["TIDScan"]))
	}
	if stats["Get"] != stats["TIDScan"] || stats["Get"][1] == 0 {
		t.Fatalf("(hits, misses): Get per TID %v, TID scan %v", stats["Get"], stats["TIDScan"])
	}
}

// TestTupleSize: a page keeps a version in a slot of at most 32 bytes that
// holds no pointer — its bytes are an offset and a length into the page's
// array — so a page's TuplesPerPage slots fill one size class of 2 048 bytes
// and the garbage collector never scans them.
func TestTupleSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 32 {
		t.Fatalf("a slot is %d bytes, want at most 32", n)
	}
	st := reflect.TypeOf(slot{})
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Type.Kind() {
		case reflect.Uint64, reflect.Int64, reflect.Uint32:
		default:
			t.Errorf("slot field %s is a %s: a slot holds numbers only", f.Name, f.Type)
		}
	}
}

// TestReclaimedSlotInvisible: a slot vacuum reclaimed (Xmin 0) is skipped by
// every reader, under a snapshot taken outside a transaction too, whose Self
// is 0 like the slot's Xmin — even once a stale writer has stamped an Xmax on
// it, which makes "our own insert, not deleted by us" true of it.
func TestReclaimedSlotInvisible(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	aborted, committed := mgr.Begin(), mgr.Begin()
	dead := ins(tbl, aborted.XID(), int64(0))
	live := ins(tbl, committed.XID(), int64(1))
	mgr.Abort(aborted)
	_ = mgr.Commit(committed)
	if n := vacuum(tbl, mgr); n != 1 {
		t.Fatalf("vacuum reclaimed %d versions, want the aborted insert", n)
	}
	stale := mgr.Begin()
	tbl.MarkDeleted(dead, stale.XID(), NilTID, false)
	_ = mgr.Commit(stale)

	snap := mgr.TakeSnapshot(nil)
	if snap.Self != 0 {
		t.Fatalf("a snapshot outside a transaction has Self %d", snap.Self)
	}
	tup, ok := tbl.Get(dead)
	if !ok || !tup.Dead() || tup.Data != nil {
		t.Fatalf("Get(reclaimed) = %+v, %v: want a dead slot without its row", tup, ok)
	}
	if Visible(mgr, snap, tup) {
		t.Fatal("Visible admits a reclaimed slot under a snapshot with Self 0")
	}
	only := func(reader string, tids []TID) {
		t.Helper()
		if len(tids) != 1 || tids[0] != live {
			t.Errorf("%s returned TIDs %v, want only %d", reader, tids, live)
		}
	}
	var scanned []TID
	tbl.Scan(mgr, snap, visibleOnly(func(tid TID, _ []byte) bool { scanned = append(scanned, tid); return true }))
	only("Scan", scanned)
	var all []TID
	tbl.AllTuples(func(tid TID, _ Tuple) bool { all = append(all, tid); return true })
	only("AllTuples", all)
	for name, b := range map[string]*BatchScan{
		"BatchScan": tbl.NewBatchScan(mgr, snap),
		"TIDScan":   tbl.NewTIDScan(mgr, snap, []TID{dead, live, dead}),
	} {
		var rows []types.Row
		for batch, ok := b.Next(); ok; batch, ok = b.Next() {
			rows = append(rows, decodeAll(batch)...)
		}
		if len(rows) != 1 || rows[0][0] != int64(1) {
			t.Errorf("%s returned %v, want only the live row", name, rows)
		}
	}
	if chain := tbl.HOTChain(nil, dead, nil); len(chain) != 1 {
		t.Errorf("HOTChain(reclaimed) = %v: links past a reclaimed slot", chain)
	}
}

// churnRow is version ver of key k in TestCompactionBesideReaders: a text
// whose length and letters both depend on k and ver, so that a tuple read
// from the wrong offset, or from an array rewritten under it, shows.
func churnRow(k, ver int64) []byte {
	return enc(k, ver, strings.Repeat(string(rune('a'+(k+ver)%26)), int(8+(k*7+ver)%40)))
}

// TestCompactionBesideReaders: vacuum compacts pages while batch scans, TID
// scans, Gets and checkpoint images read the table (run it under -race). A
// writer updates every row in turn and vacuums, so that pages go dead and
// are rewritten, a round of that for each round a reader finishes; each
// reader holds a snapshot — a transaction's, which holds vacuum's horizon
// back — and must see every key exactly once, its tuple byte for byte the
// one the version it sees was written as, however many compactions ran
// while it read.
func TestCompactionBesideReaders(t *testing.T) {
	const keys, rounds = 200, 30
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	current := make([]TID, keys) // the writer's own
	w := mgr.Begin()
	for k := range current {
		current[k], _ = tbl.InsertTuple(w.XID(), churnRow(int64(k), 0))
	}
	_ = mgr.Commit(w)
	compactions := metCompactions.Value()
	stop, read := make(chan struct{}), make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ver := int64(0)
		for k := 0; ; k = (k + 1) % keys {
			if k == 0 {
				select {
				case <-stop:
					return
				case <-read:
				}
				ver++
				vacuum(tbl, mgr)
			}
			w := mgr.Begin()
			tid, _ := tbl.InsertTuple(w.XID(), churnRow(int64(k), ver))
			tbl.MarkDeleted(current[k], w.XID(), tid, false)
			if k%17 == 0 { // an aborted update: its version dies at once, the old one lives on
				mgr.Abort(w)
				continue
			}
			_ = mgr.Commit(w)
			current[k] = tid
		}
	}()
	// check verifies one reader's tuples: each decodes to a key and a
	// version whose tuple it is, byte for byte, and no key comes twice. The
	// readers run beside the test's goroutine: they report with Errorf and
	// stop at their next round.
	check := func(reader string, tuples [][]byte, seen []bool) {
		t.Helper()
		for _, tup := range tuples {
			row := rowbatch.DecodeRow(tup)
			k, ver := row[0].(int64), row[1].(int64)
			if !bytes.Equal(tup, churnRow(k, ver)) || seen[k] {
				t.Errorf("%s: tuple %q (key %d seen before: %v)", reader, tup, k, seen[k])
				return
			}
			seen[k] = true
		}
	}
	every := func(reader string, seen []bool) {
		t.Helper()
		if k := slices.Index(seen, false); k >= 0 {
			t.Errorf("%s: key %d not seen", reader, k)
		}
	}
	var rg sync.WaitGroup
	readers := map[string]func(s txn.Snapshot) []bool{
		"BatchScan": func(s txn.Snapshot) []bool {
			seen := make([]bool, keys)
			b := tbl.NewBatchScan(mgr, s)
			for batch, ok := b.Next(); ok; batch, ok = b.Next() {
				check("BatchScan", batch, seen)
				runtime.Gosched()
			}
			return seen
		},
		"Get and TIDScan": func(s txn.Snapshot) []bool {
			var candidates, tids []TID
			tbl.AllTuples(func(tid TID, _ Tuple) bool { candidates = append(candidates, tid); return true })
			seen := make([]bool, keys)
			for _, tid := range candidates {
				if tup, ok := tbl.Get(tid); ok && Visible(mgr, s, tup) {
					check("Get", [][]byte{tup.Data}, seen)
					tids = append(tids, tid)
				}
				if len(tids)%16 == 0 {
					runtime.Gosched()
				}
			}
			again := make([]bool, keys)
			b := tbl.NewTIDScan(mgr, s, tids)
			for batch, ok := b.Next(); ok; batch, ok = b.Next() {
				check("TIDScan", batch, again)
			}
			every("TIDScan", again)
			return seen
		},
		"Image": func(s txn.Snapshot) []bool {
			seen := make([]bool, keys)
			img := tbl.Image(mgr, s)
			runtime.Gosched()
			img.Each(func(tup []byte) bool {
				check("Image", [][]byte{tup}, seen)
				return true
			})
			if img.Len() != keys {
				t.Errorf("Image: Len %d, want %d", img.Len(), keys)
			}
			return seen
		},
	}
	for name := range readers {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for round := 0; round < rounds && !t.Failed(); round++ {
				r := mgr.Begin()
				every(name, readers[name](mgr.TakeSnapshot(r)))
				mgr.Abort(r)
				select {
				case read <- struct{}{}:
				default:
				}
			}
		}()
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	if metCompactions.Value() == compactions {
		t.Fatal("no page was compacted while the readers read")
	}
}

// hotCols are the columns the HOT tests' imagined index reads: the key.
var hotCols = []int{0}

// update stores row as the successor of the version at old, by a
// transaction that commits, heap-only when hot.
func update(t *testing.T, tbl *Table, tx *txn.Txn, old TID, hot bool, row ...types.Datum) TID {
	t.Helper()
	tid := ins(tbl, tx.XID(), row...)
	if !tbl.MarkDeleted(old, tx.XID(), tid, hot) {
		t.Fatalf("no version at %d", old)
	}
	return tid
}

// repoints runs a vacuum pass and returns what it reported for each root it
// reclaimed — root → the version its entry moves to — and how many versions
// it reclaimed.
func repoints(tbl *Table, mgr *txn.Manager) (map[TID]TID, int) {
	moved := map[TID]TID{}
	n := tbl.Vacuum(mgr, mgr.GlobalXmin(), hotCols, func(root TID, _ []byte, to TID) { moved[root] = to })
	return moved, n
}

// TestHOTChain: a heap-only update sets the old version's HOT link and the
// new one's heap-only mark; HOTChain walks the links from the root, and
// stops at a version whose key bytes differ from the root's or that is
// reached by a link an update that changed the key left.
func TestHOTChain(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t1 := mgr.Begin()
	root := ins(tbl, t1.XID(), int64(1), "a")
	_ = mgr.Commit(t1)
	t2 := mgr.Begin()
	h1 := update(t, tbl, t2, root, true, int64(1), "b")
	h2 := update(t, tbl, t2, h1, true, int64(1), "c")
	_ = mgr.Commit(t2)
	if tup, _ := tbl.Get(root); !tup.HOT || tup.HeapOnly {
		t.Fatalf("root: HOT %v, heap-only %v", tup.HOT, tup.HeapOnly)
	}
	if tup, _ := tbl.Get(h1); !tup.HOT || !tup.HeapOnly {
		t.Fatalf("first successor: HOT %v, heap-only %v", tup.HOT, tup.HeapOnly)
	}
	if chain := tbl.HOTChain(nil, root, hotCols); !slices.Equal(chain, []TID{root, h1, h2}) {
		t.Fatalf("HOTChain = %v, want %v", chain, []TID{root, h1, h2})
	}
	if chain := tbl.HOTChain(nil, h1, hotCols); !slices.Equal(chain, []TID{h1, h2}) {
		t.Fatalf("HOTChain from the middle = %v", chain)
	}
	// a link to a version whose key differs is not followed: the recheck
	t3 := mgr.Begin()
	moved := update(t, tbl, t3, h2, true, int64(2), "d")
	_ = mgr.Commit(t3)
	if chain := tbl.HOTChain(nil, root, hotCols); !slices.Equal(chain, []TID{root, h1, h2}) {
		t.Fatalf("HOTChain followed a link to key 2: %v", chain)
	}
	if chain := tbl.HOTChain(nil, moved, hotCols); !slices.Equal(chain, []TID{moved}) {
		t.Fatalf("HOTChain from a version nothing links on from = %v", chain)
	}
	// an indexed update of the tip: no link
	t4 := mgr.Begin()
	indexed := update(t, tbl, t4, moved, false, int64(3), "e")
	_ = mgr.Commit(t4)
	if tup, _ := tbl.Get(moved); tup.HOT || tup.Next != indexed {
		t.Fatalf("indexed update: HOT %v, next %d", tup.HOT, tup.Next)
	}
	if tup, _ := tbl.Get(indexed); tup.HeapOnly {
		t.Fatal("an indexed update's version is heap-only")
	}
	tbl.BreakHOT(h1)
	if tup, _ := tbl.Get(h2); tup.HeapOnly {
		t.Fatal("BreakHOT left its successor heap-only")
	}
	if chain := tbl.HOTChain(nil, root, hotCols); !slices.Equal(chain, []TID{root, h1}) {
		t.Fatalf("HOTChain past a cut link = %v", chain)
	}
}

// TestVacuumRepointsHOTRoot: vacuum reclaims a dead root with the dead
// versions its links lead to and reports the first that stays, which
// becomes a root; a chain that ends is reported with NilTID; a heap-only
// version whose creator aborted goes alone, reported to nobody.
func TestVacuumRepointsHOTRoot(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t0 := mgr.Begin()
	root := ins(tbl, t0.XID(), int64(1), "v0")
	ended := ins(tbl, t0.XID(), int64(2), "v0")
	orphanRoot := ins(tbl, t0.XID(), int64(3), "v0")
	_ = mgr.Commit(t0)
	cur := root
	for i := 1; i <= 3; i++ {
		tx := mgr.Begin()
		cur = update(t, tbl, tx, cur, true, int64(1), "v"+string(rune('0'+i)))
		_ = mgr.Commit(tx)
	}
	td := mgr.Begin()
	gone := update(t, tbl, td, ended, true, int64(2), "v1")
	tbl.MarkDeleted(gone, td.XID(), NilTID, false)
	_ = mgr.Commit(td)
	ta := mgr.Begin()
	orphan := update(t, tbl, ta, orphanRoot, true, int64(3), "v1")
	mgr.Abort(ta)

	moved, n := repoints(tbl, mgr)
	if want := map[TID]TID{root: cur, ended: NilTID}; !reflect.DeepEqual(moved, want) {
		t.Fatalf("vacuum reported %v, want %v", moved, want)
	}
	if n != 3+2+1 {
		t.Fatalf("vacuum reclaimed %d versions, want 6", n)
	}
	if tup, _ := tbl.Get(cur); tup.HeapOnly || tup.Dead() {
		t.Fatalf("the version the entry moved to: heap-only %v, dead %v", tup.HeapOnly, tup.Dead())
	}
	if tup, _ := tbl.Get(orphan); !tup.Dead() {
		t.Fatal("the aborted heap-only version was not reclaimed")
	}
	if chain := tbl.HOTChain(nil, orphanRoot, hotCols); !slices.Equal(chain, []TID{orphanRoot}) {
		t.Fatalf("HOTChain into a reclaimed version = %v", chain)
	}
	if again, n := repoints(tbl, mgr); len(again) != 0 || n != 0 {
		t.Fatalf("a second pass reported %v and reclaimed %d", again, n)
	}
}

// TestVacuumKeepsChainBehindLiveRoot: a version that is dead to every
// snapshot stays while a version before it on its chain is still seen — its
// updater committed after an open reader's snapshot, though with a smaller
// XID — so the chain is never cut in the middle; once the reader ends the
// whole prefix goes and the entry moves to the tip.
func TestVacuumKeepsChainBehindLiveRoot(t *testing.T) {
	mgr := txn.NewManager()
	tbl := NewTable(1, nil)
	t0 := mgr.Begin()
	root := ins(tbl, t0.XID(), int64(1), "a")
	_ = mgr.Commit(t0)
	late := mgr.Begin()   // updates the middle version last
	reader := mgr.Begin() // sees root
	snap := mgr.TakeSnapshot(reader)
	early := mgr.Begin() // updates root first
	h1 := update(t, tbl, early, root, true, int64(1), "b")
	_ = mgr.Commit(early)
	h2 := update(t, tbl, late, h1, true, int64(1), "c")
	_ = mgr.Commit(late)
	if moved, n := repoints(tbl, mgr); len(moved) != 0 || n != 0 {
		t.Fatalf("vacuum reported %v and reclaimed %d under an open reader", moved, n)
	}
	if chain := tbl.HOTChain(nil, root, hotCols); !slices.Equal(chain, []TID{root, h1, h2}) {
		t.Fatalf("HOTChain = %v", chain)
	}
	if tup, _ := tbl.Get(root); !Visible(mgr, snap, tup) {
		t.Fatal("the reader lost its version")
	}
	_ = mgr.Commit(reader)
	moved, n := repoints(tbl, mgr)
	if want := map[TID]TID{root: h2}; !reflect.DeepEqual(moved, want) || n != 2 {
		t.Fatalf("vacuum reported %v and reclaimed %d, want %v and 2", moved, n, want)
	}
}

// visibleOnly adapts fn, which wants the tuples a snapshot sees, to Scan, which
// visits every version.
func visibleOnly(fn func(TID, []byte) bool) func(TID, Tuple, bool) bool {
	return func(tid TID, tup Tuple, visible bool) bool { return !visible || fn(tid, tup.Data) }
}
