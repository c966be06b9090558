// Package heap implements MVCC heap storage: append-only tuple versions
// stamped with creating (xmin) and deleting (xmax) transaction ids, update
// chains, snapshot-based visibility, and vacuum. This is the row store that
// backs regular tables and shards on every node.
package heap

import (
	"sync"
	"sync/atomic"

	"citusgo/internal/bufpool"
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

// Tuple is one stored row version.
type Tuple struct {
	Xmin uint64
	Xmax uint64
	Next TID // newer version in the update chain, NilTID if latest
	Dead bool
	Row  types.Row
}

type page struct {
	tuples []Tuple
}

// Table is one MVCC heap.
type Table struct {
	ID   int64
	pool *bufpool.Pool

	mu      sync.RWMutex
	pages   []*page
	nLive   atomic.Int64
	nTuples atomic.Int64
}

// NewTable creates an empty heap for table id, charging page accesses to
// pool.
func NewTable(id int64, pool *bufpool.Pool) *Table {
	if pool == nil {
		pool = bufpool.Unlimited()
	}
	return &Table{ID: id, pool: pool}
}

// Insert appends a new tuple version created by xid and returns its TID.
func (t *Table) Insert(xid uint64, row types.Row) TID {
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
	pg.tuples = append(pg.tuples, Tuple{Xmin: xid, Xmax: 0, Next: NilTID, Row: row})
	t.mu.Unlock()

	t.nLive.Add(1)
	t.nTuples.Add(1)
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
	if tup.Dead {
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

// Scan iterates all visible tuples under snapshot s, calling fn for each;
// fn returning false stops the scan. Page accesses are charged to the
// buffer pool.
func (t *Table) Scan(mgr *txn.Manager, s txn.Snapshot, fn func(tid TID, row types.Row) bool) {
	t.mu.RLock()
	numPages := len(t.pages)
	t.mu.RUnlock()
	// one buffer for the whole scan: fn is handed a tuple's row, never the
	// tuple, so nothing can keep a reference into it
	tuples := make([]Tuple, 0, TuplesPerPage)
	for p := 0; p < numPages; p++ {
		t.pool.Access(bufpool.PageID{Table: t.ID, Page: int32(p)})
		t.mu.RLock()
		// copy the page's tuples so fn runs without the table lock
		tuples = append(tuples[:0], t.pages[p].tuples...)
		t.mu.RUnlock()
		for slot := range tuples {
			if !Visible(mgr, s, tuples[slot]) {
				continue
			}
			tid := TID(int64(p)*TuplesPerPage + int64(slot))
			if !fn(tid, tuples[slot].Row) {
				return
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
			if tuples[slot].Dead {
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

// VacuumedTuple reports one reclaimed version: its TID and the row image,
// which the caller needs to delete the matching index entries.
type VacuumedTuple struct {
	TID TID
	Row types.Row
}

// Vacuum reclaims dead tuple versions: versions deleted by a transaction
// that committed before the global xmin horizon, and versions created by
// aborted transactions. Slots are tombstoned (TIDs stay stable), and the
// reclaimed tuples are returned so the caller can vacuum indexes.
func (t *Table) Vacuum(mgr *txn.Manager, horizon uint64) []VacuumedTuple {
	var reclaimed []VacuumedTuple
	t.mu.Lock()
	defer t.mu.Unlock()
	for p, pg := range t.pages {
		for slot := range pg.tuples {
			tup := &pg.tuples[slot]
			if tup.Dead {
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
					TID: TID(int64(p)*TuplesPerPage + int64(slot)),
					Row: tup.Row,
				})
				tup.Dead = true
				tup.Row = nil
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
	t.nTuples.Store(0)
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

// NoteDeleteCommitted adjusts the live-row statistic after a delete commits.
func (t *Table) NoteDeleteCommitted() { t.nLive.Add(-1) }
