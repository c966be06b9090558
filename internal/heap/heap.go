// Package heap implements MVCC heap storage: append-only tuple versions
// stamped with creating (xmin) and deleting (xmax) transaction ids, update
// chains, snapshot-based visibility, and vacuum. This is the row store that
// backs regular tables and shards on every node.
package heap

import (
	"sync"
	"sync/atomic"

	"citusgo/internal/bufpool"
	"citusgo/internal/rowbatch"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// TuplesPerPage fixes how many tuple slots one simulated page holds; the
// buffer pool charges I/O per page.
const TuplesPerPage = 64

// TID addresses a tuple version: page*TuplesPerPage + slot.
type TID int64

// NilTID marks "no tuple" (update chain terminator).
const NilTID TID = -1

func (t TID) page() int32 { return int32(t / TuplesPerPage) }
func (t TID) slot() int   { return int(t % TuplesPerPage) }

// Tuple is one stored row version: 48 bytes, so a page of TuplesPerPage
// slots is exactly a size class of the Go allocator. The row is one byte
// image, a batch of that one row (rowbatch.EncodeRow): pointer-free, written
// once and never again, and the same array the write-ahead log's records and
// a checkpoint's image hold.
type Tuple struct {
	Xmin uint64 // 0 once vacuum has reclaimed the slot
	Xmax uint64
	Next TID // newer version in the update chain, NilTID if latest
	Data []byte
}

// Row decodes the tuple's row; its strings and documents alias Data.
func (tup Tuple) Row() types.Row { return rowbatch.DecodeRow(tup.Data) }

// Dead reports whether vacuum has reclaimed the slot. No transaction has XID
// 0 (txn.Manager starts at 2), so no live version has Xmin 0 — but a
// snapshot taken outside a transaction has Self 0, so visibility must ask
// Dead before it compares Xmin with Self.
func (tup Tuple) Dead() bool { return tup.Xmin == 0 }

type page struct {
	tuples []Tuple
}

// Table is one MVCC heap.
type Table struct {
	ID   int64
	pool *bufpool.Pool

	mu    sync.RWMutex
	pages []*page
	nLive atomic.Int64
}

// NewTable creates an empty heap for table id, charging page accesses to
// pool.
func NewTable(id int64, pool *bufpool.Pool) *Table {
	if pool == nil {
		pool = bufpool.Unlimited()
	}
	return &Table{ID: id, pool: pool}
}

// Insert appends a new tuple version created by xid, whose row data holds
// (rowbatch.EncodeRow), and returns its TID. data is the tuple's from now on:
// nobody may write it again.
func (t *Table) Insert(xid uint64, data []byte) TID {
	t.mu.Lock()
	var pg *page
	if n := len(t.pages); n > 0 && len(t.pages[n-1].tuples) < TuplesPerPage {
		pg = t.pages[n-1]
	} else {
		pg = &page{tuples: make([]Tuple, 0, TuplesPerPage)}
		t.pages = append(t.pages, pg)
	}
	pageIdx := len(t.pages) - 1
	slot := len(pg.tuples)
	pg.tuples = append(pg.tuples, Tuple{Xmin: xid, Xmax: 0, Next: NilTID, Data: data})
	t.mu.Unlock()

	t.nLive.Add(1)
	t.pool.Access(bufpool.PageID{Table: t.ID, Page: int32(pageIdx)})
	return TID(int64(pageIdx)*TuplesPerPage + int64(slot))
}

// Get returns a copy of the tuple at tid (charging a page access) and
// whether it exists.
func (t *Table) Get(tid TID) (Tuple, bool) {
	if tid < 0 {
		return Tuple{}, false
	}
	t.pool.Access(bufpool.PageID{Table: t.ID, Page: tid.page()})
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := int(tid.page())
	if p >= len(t.pages) || tid.slot() >= len(t.pages[p].tuples) {
		return Tuple{}, false
	}
	return t.pages[p].tuples[tid.slot()], true
}

// MarkDeleted stamps the tuple at tid with deleting transaction xid and,
// when newVersion != NilTID, links the update chain. The caller must hold
// the row lock. Overwriting an aborted deleter's xmax is allowed, like
// PostgreSQL reusing the xmax of a rolled-back update.
func (t *Table) MarkDeleted(tid TID, xid uint64, newVersion TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := int(tid.page())
	if p >= len(t.pages) || tid.slot() >= len(t.pages[p].tuples) {
		return false
	}
	tup := &t.pages[p].tuples[tid.slot()]
	tup.Xmax = xid
	tup.Next = newVersion
	return true
}

// ClearDelete undoes MarkDeleted after the deleting transaction aborted the
// statement (not used for whole-transaction abort, which is handled by the
// clog: an aborted xmax is simply ignored by visibility checks).
func (t *Table) ClearDelete(tid TID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := int(tid.page())
	if p < len(t.pages) && tid.slot() < len(t.pages[p].tuples) {
		tup := &t.pages[p].tuples[tid.slot()]
		tup.Xmax = 0
		tup.Next = NilTID
	}
}

// Visible applies the MVCC visibility rules for tuple tup under snapshot s.
func Visible(mgr *txn.Manager, s txn.Snapshot, tup Tuple) bool {
	if tup.Dead() {
		return false
	}
	if tup.Xmin == s.Self {
		// our own insert: visible unless we deleted it ourselves
		return tup.Xmax != s.Self
	}
	if !mgr.Sees(s, tup.Xmin) {
		return false
	}
	if tup.Xmax == 0 {
		return true
	}
	if tup.Xmax == s.Self {
		return false
	}
	return !mgr.Sees(s, tup.Xmax)
}

// scanVisibility decides visibility for one scan under one snapshot, and
// remembers the snapshot's verdict on the last writer it asked about: a page
// of tuples that one COPY or one transaction wrote costs one look at the
// commit log, not one per tuple. The verdict on a writer that had ended when
// the snapshot was taken cannot change; one that ends while the scan runs
// (a standby applying its primary's log) keeps, for the tuples that follow
// each other, the verdict the first of them got.
type scanVisibility struct {
	mgr  *txn.Manager
	s    txn.Snapshot
	xmin uint64 // the last Xmin asked about; 0, which sees nothing, before the first
	sees bool
}

// visible is Visible(v.mgr, v.s, *tup). Only a live tuple that nobody has
// deleted and that another transaction wrote is answered from memory; every
// other takes the full rules.
func (v *scanVisibility) visible(tup *Tuple) bool {
	if tup.Dead() || tup.Xmax != 0 || tup.Xmin == v.s.Self {
		return Visible(v.mgr, v.s, *tup)
	}
	if tup.Xmin != v.xmin {
		v.xmin, v.sees = tup.Xmin, v.mgr.Sees(v.s, tup.Xmin)
	}
	return v.sees
}

// Scan iterates all visible tuples under snapshot s, calling fn with each
// one's data (Tuple.Data); fn returning false stops the scan. Page accesses
// are charged to the buffer pool.
func (t *Table) Scan(mgr *txn.Manager, s txn.Snapshot, fn func(tid TID, data []byte) bool) {
	t.mu.RLock()
	numPages := len(t.pages)
	t.mu.RUnlock()
	vis := scanVisibility{mgr: mgr, s: s}
	// one buffer for the whole scan: fn is handed a tuple's data, never the
	// tuple, so nothing can keep a reference into it
	tuples := make([]Tuple, 0, TuplesPerPage)
	for p := 0; p < numPages; p++ {
		t.pool.Access(bufpool.PageID{Table: t.ID, Page: int32(p)})
		t.mu.RLock()
		if p >= len(t.pages) { // dropped or truncated since the scan began
			t.mu.RUnlock()
			return
		}
		// copy the page's tuples so fn runs without the table lock
		tuples = append(tuples[:0], t.pages[p].tuples...)
		t.mu.RUnlock()
		for slot := range tuples {
			if !vis.visible(&tuples[slot]) {
				continue
			}
			tid := TID(int64(p)*TuplesPerPage + int64(slot))
			if !fn(tid, tuples[slot].Data) {
				return
			}
		}
	}
}

// BatchPages is how many pages a BatchScan reads into one batch: 256 tuple
// slots, enough to spread a filter kernel's per-chunk set-up thin, and a
// buffer of row headers (6 KB) small enough to be made for every scan.
const BatchPages = 4

// BatchScan is Scan for a vectorized reader: the same pages in the same
// order, each charged to the buffer pool as Scan charges it and its
// visibility decided the same way, under the table lock — and the visible
// tuples handed on undecoded, BatchPages pages at a time, for the reader to
// decode the columns it needs straight into vectors (rowbatch.Pick).
// Started by NewTIDScan it reads the tuples an index named instead of every
// page, as many to a batch.
type BatchScan struct {
	t    *Table
	vis  scanVisibility
	tids []TID // nil: every page
	// pos of end pages — or tids — are read
	pos, end int
	tuples   [][]byte
}

// batchTuples is the most tuple slots one batch covers.
const batchTuples = BatchPages * TuplesPerPage

// NewBatchScan starts a batched scan of the pages the table has now.
func (t *Table) NewBatchScan(mgr *txn.Manager, s txn.Snapshot) *BatchScan {
	t.mu.RLock()
	numPages := len(t.pages)
	t.mu.RUnlock()
	return &BatchScan{t: t, vis: scanVisibility{mgr: mgr, s: s}, end: numPages,
		tuples: make([][]byte, 0, min(numPages*TuplesPerPage, batchTuples))}
}

// NewTIDScan starts a batched fetch of the tuples at tids, an index's
// candidates: what a Get and a Visible per TID read, in the order given, with
// the page access Get charges for each — but the table's read lock taken once
// a batch, not once a tuple, and a run of tuples one transaction wrote costing
// one look at the commit log.
func (t *Table) NewTIDScan(mgr *txn.Manager, s txn.Snapshot, tids []TID) *BatchScan {
	return &BatchScan{t: t, vis: scanVisibility{mgr: mgr, s: s}, tids: tids, end: len(tids),
		tuples: make([][]byte, 0, min(len(tids), batchTuples))}
}

// Progress returns how many of the scan's pages — of its TIDs, for a TID
// scan — have been read, and how many there are.
func (b *BatchScan) Progress() (read, total int) { return b.pos, b.end }

// Next returns the visible tuples of the next batch that has any, and false
// when the scan is over. The slice is the scan's own, good until the next
// call; the tuples, like every stored tuple, are immutable.
func (b *BatchScan) Next() ([][]byte, bool) {
	b.tuples = b.tuples[:0]
	for len(b.tuples) == 0 && b.pos < b.end {
		if b.tids != nil {
			b.readTIDs()
		} else {
			b.readPages()
		}
	}
	return b.tuples, len(b.tuples) > 0
}

// readPages appends the visible tuples of the next BatchPages pages.
func (b *BatchScan) readPages() {
	t := b.t
	for end := min(b.pos+BatchPages, b.end); b.pos < end; b.pos++ {
		t.pool.Access(bufpool.PageID{Table: t.ID, Page: int32(b.pos)})
		// Visibility is decided under the table lock, on the page itself:
		// a page's tuples nearly always share a writer, so the commit log
		// is asked once a page (scanVisibility), and nothing is copied.
		t.mu.RLock()
		if b.pos < len(t.pages) { // else dropped or truncated since the scan began
			tuples := t.pages[b.pos].tuples
			for slot := range tuples {
				if b.vis.visible(&tuples[slot]) {
					b.tuples = append(b.tuples, tuples[slot].Data)
				}
			}
		}
		t.mu.RUnlock()
	}
}

// readTIDs appends the visible tuples among the next batchTuples TIDs: every
// page access first, as Get charges them, then all the tuples under one hold
// of the table lock.
func (b *BatchScan) readTIDs() {
	t := b.t
	batch := b.tids[b.pos:min(b.pos+batchTuples, b.end)]
	b.pos += len(batch)
	for _, tid := range batch {
		if tid >= 0 {
			t.pool.Access(bufpool.PageID{Table: t.ID, Page: tid.page()})
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, tid := range batch {
		// a TID past the table's end: dropped or truncated since the index was read
		if p := int(tid.page()); tid >= 0 && p < len(t.pages) && tid.slot() < len(t.pages[p].tuples) {
			if tup := &t.pages[p].tuples[tid.slot()]; b.vis.visible(tup) {
				b.tuples = append(b.tuples, tup.Data)
			}
		}
	}
}

// AllTuples visits every non-dead tuple version regardless of visibility
// (index builds, replication).
func (t *Table) AllTuples(fn func(tid TID, tup Tuple) bool) {
	t.mu.RLock()
	numPages := len(t.pages)
	t.mu.RUnlock()
	tuples := make([]Tuple, 0, TuplesPerPage) // reused: fn gets each tuple by value
	for p := 0; p < numPages; p++ {
		t.mu.RLock()
		tuples = append(tuples[:0], t.pages[p].tuples...)
		t.mu.RUnlock()
		for slot := range tuples {
			if tuples[slot].Dead() {
				continue
			}
			if !fn(TID(int64(p)*TuplesPerPage+int64(slot)), tuples[slot]) {
				return
			}
		}
	}
}

// LatestVersion follows the update chain from tid to the newest version,
// returning its TID and tuple.
func (t *Table) LatestVersion(tid TID) (TID, Tuple, bool) {
	for {
		tup, ok := t.Get(tid)
		if !ok {
			return NilTID, Tuple{}, false
		}
		if tup.Next == NilTID {
			return tid, tup, true
		}
		tid = tup.Next
	}
}

// VacuumedTuple reports one reclaimed version: its TID and the tuple's
// data, which the caller decodes to delete the matching index entries.
type VacuumedTuple struct {
	TID  TID
	Data []byte
}

// Vacuum reclaims dead tuple versions: versions deleted by a transaction
// that committed before the global xmin horizon, and versions created by
// aborted transactions. Slots are tombstoned (Dead; TIDs stay stable), and the
// reclaimed tuples are returned so the caller can vacuum indexes.
func (t *Table) Vacuum(mgr *txn.Manager, horizon uint64) []VacuumedTuple {
	var reclaimed []VacuumedTuple
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, pg := range t.pages {
		for slot := range pg.tuples {
			tup := &pg.tuples[slot]
			if tup.Dead() {
				continue
			}
			dead := false
			if mgr.Status(tup.Xmin) == txn.Aborted {
				dead = true
			} else if tup.Xmax != 0 && tup.Xmax < horizon && mgr.Status(tup.Xmax) == txn.Committed {
				dead = true
			}
			if dead {
				reclaimed = append(reclaimed, VacuumedTuple{
					TID:  TID(int64(p)*TuplesPerPage + int64(slot)),
					Data: tup.Data,
				})
				tup.Xmin, tup.Xmax, tup.Data = 0, 0, nil
				t.nLive.Add(-1)
			}
		}
	}
	return reclaimed
}

// Truncate drops all data.
func (t *Table) Truncate() {
	t.mu.Lock()
	t.pages = nil
	t.mu.Unlock()
	t.nLive.Store(0)
	t.pool.Forget(t.ID)
}

// EstimatedRows returns the approximate live row count (planner statistic).
func (t *Table) EstimatedRows() int64 { return t.nLive.Load() }

// NumPages returns the current page count.
func (t *Table) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pages)
}
