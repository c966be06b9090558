// Package heap implements MVCC heap storage: append-only tuple versions
// stamped with creating (xmin) and deleting (xmax) transaction ids, update
// chains, heap-only (HOT) versions that no index entry points at, snapshot-
// based visibility, and vacuum. This is the row store that backs regular
// tables and shards on every node.
package heap

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"citusgo/internal/bufpool"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// TuplesPerPage is the most tuple slots one page holds; the buffer pool
// charges I/O per page.
const TuplesPerPage = 64

// maxPageBytes bounds the array a page's tuples are packed into: the
// allocator's largest size class, so that no page is a large object rounded
// up to whole 8 KiB spans. A page of long tuples holds fewer than
// TuplesPerPage; a tuple longer than this gets a page of its own.
const maxPageBytes = 32 << 10

// TID addresses a tuple version: page*TuplesPerPage + slot.
type TID int64

// NilTID marks "no tuple" (update chain terminator).
const NilTID TID = -1

func (t TID) page() int32 { return int32(t / TuplesPerPage) }
func (t TID) slot() int   { return int(t % TuplesPerPage) }

// Tuple is one row version as the heap hands it out: its slot's stamps and
// its row, a batch of that one row (rowbatch.AppendTuple) in its page's
// array — pointer-free, written once and never again, and the same bytes the
// write-ahead log's records and a checkpoint's image hold.
type Tuple struct {
	Xmin uint64 // 0 once vacuum has reclaimed the slot
	Xmax uint64
	Next TID    // newer version in the update chain, NilTID if latest
	Data []byte // nil once reclaimed
	// HOT: Next is heap-only, an update that kept every indexed column's
	// bytes; HeapOnly: no index entry points at this version, the HOT link
	// of the one before it is how an index reaches it.
	HOT, HeapOnly bool
}

// Row decodes the tuple's row; its strings and documents alias Data.
func (tup Tuple) Row() types.Row { return rowbatch.DecodeRow(tup.Data) }

// Dead reports whether vacuum has reclaimed the slot. No transaction has XID
// 0 (txn.Manager starts at 2), so no live version has Xmin 0 — but a
// snapshot taken outside a transaction has Self 0, so visibility must ask
// Dead before it compares Xmin with Self.
func (tup Tuple) Dead() bool { return tup.Xmin == 0 }

// slot is a tuple version as its page keeps it: 32 bytes and no pointer. Its
// bytes are data[off:off+len()] of the page's array; len() is 0 once a
// compaction has dropped them. The top bits of n are the version's HOT flags.
type slot struct {
	xmin, xmax uint64 // xmin 0: reclaimed
	next       TID
	off, n     uint32
}

const (
	// slotHOT marks a version whose successor (next) is heap-only.
	slotHOT = 1 << 31
	// slotHeapOnly marks a version no index entry points at.
	slotHeapOnly = 1 << 30
	// maxTupleBytes bounds a tuple's length: the bits of slot.n below the
	// flags.
	maxTupleBytes = slotHeapOnly - 1
)

// len is the length of the version's bytes.
func (sl *slot) len() uint32 { return sl.n & maxTupleBytes }

// is reports whether the slot has flag f.
func (sl *slot) is(f uint32) bool { return sl.n&f != 0 }

// set sets flag f when on, and clears it otherwise.
func (sl *slot) set(f uint32, on bool) {
	if on {
		sl.n |= f
	} else {
		sl.n &^= f
	}
}

// page holds up to TuplesPerPage versions, their bytes back to back in one
// array in slot order. The array is never reallocated and never written
// below its end, so every Data slice handed out stays valid as it is; a
// compaction moves the live tuples to a fresh array and leaves the old one
// to whoever still reads it.
type page struct {
	slots []slot // nil once every version on the page is reclaimed and compacted away
	data  []byte
	dead  int // bytes of data that reclaimed versions hold
}

// bytes returns the bytes of the version in sl, a slot of pg.
func (pg *page) bytes(sl *slot) []byte {
	return slotBytes(pg.data, sl)
}

// slotBytes returns the bytes of the version in sl, in data, its page's array.
func slotBytes(data []byte, sl *slot) []byte {
	end := sl.off + sl.len()
	return data[sl.off:end:end]
}

// tuple returns the version in slot s.
func (pg *page) tuple(s int) Tuple {
	return slotTuple(pg.data, &pg.slots[s])
}

// slotTuple returns the version in sl, a slot of the page whose array is data.
func slotTuple(data []byte, sl *slot) Tuple {
	tup := Tuple{Xmin: sl.xmin, Xmax: sl.xmax, Next: sl.next, HOT: sl.is(slotHOT), HeapOnly: sl.is(slotHeapOnly)}
	if sl.xmin != 0 {
		tup.Data = slotBytes(data, sl)
	}
	return tup
}

// Table is one MVCC heap.
type Table struct {
	ID   int64
	pool *bufpool.Pool

	mu    sync.RWMutex
	pages []page
	// dirty has bit p set while page p may hold a version vacuum could
	// reclaim: from the write that stamped it until a pass finds only
	// versions that a later write alone can make reclaimable.
	dirty []uint64
	// how many tuples have been stored and their bytes: the mean a new
	// page's array is sized by
	stored, storedBytes int64
	nLive               atomic.Int64
}

// NewTable creates an empty heap for table id, charging page accesses to
// pool.
func NewTable(id int64, pool *bufpool.Pool) *Table {
	if pool == nil {
		pool = bufpool.Unlimited()
	}
	return &Table{ID: id, pool: pool}
}

// Insert stores a new version of row created by xid, encoded straight into
// a page, and returns its TID and its bytes, which are the page's: the log
// may keep them, nobody may write them. It fails where rowbatch.TupleSize
// fails, and on a row longer than maxTupleBytes.
func (t *Table) Insert(xid uint64, row types.Row) (TID, []byte, error) {
	n, err := rowbatch.TupleSize(row)
	if err != nil {
		return NilTID, nil, err
	}
	if n > maxTupleBytes {
		return NilTID, nil, fmt.Errorf("heap: a row of %d bytes is longer than a tuple can be (%d)", n, maxTupleBytes)
	}
	t.mu.Lock()
	p, pg := t.room(n)
	data, err := rowbatch.AppendTuple(pg.data, row)
	if err != nil {
		t.mu.Unlock()
		return NilTID, nil, err
	}
	tid, tuple := t.place(p, pg, data, xid)
	t.mu.Unlock()
	t.inserted(tid)
	return tid, tuple, nil
}

// InsertTuple is Insert of a row another copy of the table encoded — a log
// record, a checkpoint's image, a moved shard's tuple — copied into a page
// byte for byte.
func (t *Table) InsertTuple(xid uint64, tuple []byte) (TID, []byte) {
	t.mu.Lock()
	p, pg := t.room(len(tuple))
	tid, stored := t.place(p, pg, append(pg.data, tuple...), xid)
	t.mu.Unlock()
	t.inserted(tid)
	return tid, stored
}

// room returns the page a tuple of n bytes goes to: the last, while it has a
// free slot and n bytes of room in its array, else a new one. A new page's
// array has room for TuplesPerPage tuples of the mean length stored so far,
// up to maxPageBytes, and is rounded up to its size class: a page of shorter
// tuples than that takes them to its last slot, one of longer ones to the end
// of its array.
func (t *Table) room(n int) (int, *page) {
	if k := len(t.pages); k > 0 {
		if pg := &t.pages[k-1]; len(pg.slots) < TuplesPerPage && cap(pg.data)-len(pg.data) >= n {
			return k - 1, pg
		}
	}
	mean := int((t.storedBytes + int64(n)) / (t.stored + 1))
	data := slices.Grow([]byte(nil), max(min(TuplesPerPage*mean, maxPageBytes), n))
	slots := min(TuplesPerPage, cap(data)/max(mean, 1))
	t.pages = append(t.pages, page{slots: make([]slot, 0, slots), data: data})
	return len(t.pages) - 1, &t.pages[len(t.pages)-1]
}

// place records the tuple data ends with, appended into pg's array in the
// room room made, as a version created by xid in the next slot of page p.
func (t *Table) place(p int, pg *page, data []byte, xid uint64) (TID, []byte) {
	if cap(data) != cap(pg.data) {
		panic("heap: a tuple outgrew the room its page made for it")
	}
	off := len(pg.data)
	pg.data = data
	pg.slots = append(pg.slots, slot{xmin: xid, next: NilTID, off: uint32(off), n: uint32(len(data) - off)})
	sl := &pg.slots[len(pg.slots)-1]
	t.stored++
	t.storedBytes += int64(sl.len())
	t.markDirty(p)
	return TID(int64(p)*TuplesPerPage + int64(len(pg.slots)-1)), pg.bytes(sl)
}

// inserted counts the new version at tid live and charges its page access.
func (t *Table) inserted(tid TID) {
	t.nLive.Add(1)
	t.pool.Access(bufpool.PageID{Table: t.ID, Page: tid.page()})
}

// markDirty sets page p's bit in t.dirty. Caller holds t.mu.
func (t *Table) markDirty(p int) {
	for len(t.dirty) <= p/64 {
		t.dirty = append(t.dirty, 0)
	}
	t.dirty[p/64] |= 1 << (p % 64)
}

// at returns the page and slot of tid, and false when there is no such
// slot. Caller holds t.mu.
func (t *Table) at(tid TID) (*page, int, bool) {
	if tid < 0 {
		return nil, 0, false
	}
	p, s := int(tid.page()), tid.slot()
	if p >= len(t.pages) || s >= len(t.pages[p].slots) {
		return nil, 0, false
	}
	return &t.pages[p], s, true
}

// Get returns the tuple at tid (charging a page access) and whether it
// exists.
func (t *Table) Get(tid TID) (Tuple, bool) {
	if tid < 0 {
		return Tuple{}, false
	}
	t.pool.Access(bufpool.PageID{Table: t.ID, Page: tid.page()})
	t.mu.RLock()
	defer t.mu.RUnlock()
	pg, s, ok := t.at(tid)
	if !ok {
		return Tuple{}, false
	}
	return pg.tuple(s), true
}

// MarkDeleted stamps the tuple at tid with deleting transaction xid and,
// when newVersion != NilTID, links the update chain. hot says the update kept
// the bytes of every column an index reads: tid gets a HOT link, and
// newVersion, which then has no index entry of its own, is heap-only. The
// caller must hold the row lock. Overwriting an aborted deleter's xmax, and
// its link, is allowed, like PostgreSQL reusing the xmax of a rolled-back
// update.
func (t *Table) MarkDeleted(tid TID, xid uint64, newVersion TID, hot bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	pg, s, ok := t.at(tid)
	if !ok {
		return false
	}
	sl := &pg.slots[s]
	sl.xmax, sl.next = xid, newVersion
	sl.set(slotHOT, hot && newVersion != NilTID)
	if npg, ns, ok := t.at(newVersion); ok && hot {
		npg.slots[ns].set(slotHeapOnly, true)
	}
	t.markDirty(int(tid.page()))
	return true
}

// HOTChain appends to dst the TIDs of the versions an index entry at root
// stands for: root, then each heap-only successor its HOT links reach, for as
// long as that version holds the same bytes as root in every column cols
// lists (rowbatch.SameColumns) — the recheck of a version reached through a
// link. The caller keeps vacuum and CREATE INDEX, which move HOT links and
// index entries together, out while it walks and until it has read the
// index the TIDs came from.
func (t *Table) HOTChain(dst []TID, root TID, cols []int) []TID {
	dst = append(dst, root)
	t.mu.RLock()
	defer t.mu.RUnlock()
	pg, s, ok := t.at(root)
	if !ok || pg.slots[s].xmin == 0 {
		return dst
	}
	sl := &pg.slots[s]
	first := pg.bytes(sl)
	for sl.is(slotHOT) {
		next := sl.next
		npg, ns, ok := t.at(next)
		if !ok {
			break
		}
		sl = &npg.slots[ns]
		if sl.xmin == 0 || !rowbatch.SameColumns(first, npg.bytes(sl), cols) {
			break
		}
		dst = append(dst, next)
	}
	return dst
}

// BreakHOT cuts the HOT link of the version at tid: its successor becomes a
// root, which the caller gives index entries of its own (CREATE INDEX, for a
// successor whose key in the new index is not its predecessor's).
func (t *Table) BreakHOT(tid TID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pg, s, ok := t.at(tid)
	if !ok || !pg.slots[s].is(slotHOT) {
		return
	}
	sl := &pg.slots[s]
	sl.set(slotHOT, false)
	if npg, ns, ok := t.at(sl.next); ok {
		npg.slots[ns].set(slotHeapOnly, false)
	}
}

// Visible applies the MVCC visibility rules for tuple tup under snapshot s.
func Visible(mgr *txn.Manager, s txn.Snapshot, tup Tuple) bool {
	return visible(mgr, s, tup.Xmin, tup.Xmax)
}

// visible is Visible of a version stamped xmin and xmax.
func visible(mgr *txn.Manager, s txn.Snapshot, xmin, xmax uint64) bool {
	if xmin == 0 {
		return false // reclaimed
	}
	if xmin == s.Self {
		// our own insert: visible unless we deleted it ourselves
		return xmax != s.Self
	}
	if !mgr.Sees(s, xmin) {
		return false
	}
	if xmax == 0 {
		return true
	}
	if xmax == s.Self {
		return false
	}
	return !mgr.Sees(s, xmax)
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

// visible is visible(v.mgr, v.s, sl.xmin, sl.xmax). Only a live version that
// nobody has deleted and that another transaction wrote is answered from
// memory; every other takes the full rules.
func (v *scanVisibility) visible(sl *slot) bool {
	if sl.xmin == 0 || sl.xmax != 0 || sl.xmin == v.s.Self {
		return visible(v.mgr, v.s, sl.xmin, sl.xmax)
	}
	if sl.xmin != v.xmin {
		v.xmin, v.sees = sl.xmin, v.mgr.Sees(v.s, sl.xmin)
	}
	return v.sees
}

// readPage copies page p's slots into slots and returns them with the
// page's array, or false when the table has no page p (dropped or truncated
// since the caller began): a reader visits them without the table lock, the
// array being immutable up to the length it has now.
func (t *Table) readPage(p int, slots []slot) ([]slot, []byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p >= len(t.pages) {
		return slots, nil, false
	}
	return append(slots[:0], t.pages[p].slots...), t.pages[p].data, true
}

// Scan visits every tuple version vacuum has not reclaimed, with whether
// snapshot s sees it; fn returning false stops the scan. Page accesses are
// charged to the buffer pool. A reader checking for concurrent writers (SSI)
// looks at the versions it cannot see too; any other skips them.
func (t *Table) Scan(mgr *txn.Manager, s txn.Snapshot, fn func(tid TID, tup Tuple, visible bool) bool) {
	vis := scanVisibility{mgr: mgr, s: s}
	t.eachSlot(true, func(tid TID, data []byte, sl *slot) bool { return fn(tid, slotTuple(data, sl), vis.visible(sl)) })
}

// eachSlot visits the slot of every version not reclaimed, page by page, each
// page charged to the buffer pool when charge is set.
func (t *Table) eachSlot(charge bool, fn func(tid TID, data []byte, sl *slot) bool) {
	numPages := t.NumPages()
	slots := make([]slot, 0, TuplesPerPage) // one buffer for the whole scan
	for p := 0; p < numPages; p++ {
		if charge {
			t.pool.Access(bufpool.PageID{Table: t.ID, Page: int32(p)})
		}
		var data []byte
		var ok bool
		if slots, data, ok = t.readPage(p, slots); !ok {
			return
		}
		for i := range slots {
			if sl := &slots[i]; sl.xmin != 0 && !fn(TID(int64(p)*TuplesPerPage+int64(i)), data, sl) {
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
	numPages := t.NumPages()
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
			pg := &t.pages[b.pos]
			for i := range pg.slots {
				if sl := &pg.slots[i]; b.vis.visible(sl) {
					b.tuples = append(b.tuples, pg.bytes(sl))
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
		if pg, s, ok := t.at(tid); ok {
			if sl := &pg.slots[s]; b.vis.visible(sl) {
				b.tuples = append(b.tuples, pg.bytes(sl))
			}
		}
	}
}

// AllTuples visits every non-dead tuple version regardless of visibility
// (index builds, replication). It is not a query, and charges the buffer
// pool nothing.
func (t *Table) AllTuples(fn func(tid TID, tup Tuple) bool) {
	t.eachSlot(false, func(tid TID, data []byte, sl *slot) bool { return fn(tid, slotTuple(data, sl)) })
}

// Vacuum reclaims dead tuple versions: versions deleted by a transaction
// that committed before the global xmin horizon, and versions created by
// aborted transactions. It visits only the pages written since a pass last
// found nothing on them to wait for (Table.dirty). Slots are tombstoned
// (Dead; TIDs stay stable), a page whose reclaimed versions hold more than
// half its bytes is compacted, and it returns how many versions it reclaimed.
//
// A HOT chain goes as one: a dead root is reclaimed with the dead heap-only
// versions its links lead to (rechecked as HOTChain rechecks them, against
// cols), and repoint is called for it — before its slot is cleared — with
// the root's TID and bytes, for the caller to move the root's index entries
// to the first version of the chain that stays, which becomes a root, or to
// remove them when none does. A heap-only version whose creator aborted is
// reclaimed alone: it has no index entry. repoint runs under the table's
// lock and must not use the table. The caller keeps readers of the indexes
// out for the whole pass.
func (t *Table) Vacuum(mgr *txn.Manager, horizon uint64, cols []int, repoint func(root TID, data []byte, to TID)) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for w := range t.dirty {
		for word := t.dirty[w]; word != 0; word &= word - 1 {
			n += t.prunePage(mgr, horizon, cols, w*64+bits.TrailingZeros64(word), repoint)
		}
	}
	// A chain's versions may lie on other pages than its root; every one of
	// them was stamped by a write and is on a dirty page.
	for w := range t.dirty {
		for word := t.dirty[w]; word != 0; word &= word - 1 {
			bit := bits.TrailingZeros64(word)
			pg := &t.pages[w*64+bit]
			if 2*pg.dead > len(pg.data) {
				pg.compact()
			}
			if pg.settled(mgr) {
				t.dirty[w] &^= 1 << bit
			}
		}
	}
	return n
}

// fate says what vacuum makes of the version in sl: dead, reclaimable now,
// or else whether it is stable — committed and not deleted, or deleted by a
// transaction that aborted: only a later write can make it reclaimable.
func fate(mgr *txn.Manager, horizon uint64, sl *slot) (dead, stable bool) {
	stable = true
	switch mgr.Status(sl.xmin) {
	case txn.Aborted:
		return true, false
	case txn.InProgress:
		stable = false
	}
	if sl.xmax != 0 {
		switch mgr.Status(sl.xmax) {
		case txn.Committed:
			return sl.xmax < horizon, false
		case txn.InProgress:
			stable = false
		}
	}
	return false, stable
}

// prunePage reclaims the dead roots of page p with their chains' dead
// prefixes, and its orphaned heap-only versions, and returns how many
// versions it reclaimed. Caller holds t.mu.
func (t *Table) prunePage(mgr *txn.Manager, horizon uint64, cols []int, p int, repoint func(TID, []byte, TID)) int {
	n := 0
	pg := &t.pages[p]
	var chain []TID
	for i := range pg.slots {
		sl := &pg.slots[i]
		tid := TID(int64(p)*TuplesPerPage + int64(i))
		if sl.xmin == 0 {
			continue
		}
		if sl.is(slotHeapOnly) {
			// reclaimed with its root, unless its creator aborted: then no
			// live version links to it
			if mgr.Status(sl.xmin) == txn.Aborted {
				t.reclaim(tid)
				n++
			}
			continue
		}
		if dead, _ := fate(mgr, horizon, sl); !dead {
			continue
		}
		data := pg.bytes(sl)
		chain = append(chain[:0], tid)
		to := NilTID
		for cur := sl; cur.is(slotHOT); {
			npg, ns, ok := t.at(cur.next)
			if !ok {
				break
			}
			next := &npg.slots[ns]
			if next.xmin == 0 || !rowbatch.SameColumns(data, npg.bytes(next), cols) {
				break
			}
			if dead, _ := fate(mgr, horizon, next); !dead {
				to = cur.next
				next.set(slotHeapOnly, false)
				break
			}
			chain = append(chain, cur.next)
			cur = next
		}
		repoint(tid, data, to)
		for _, v := range chain {
			t.reclaim(v)
		}
		n += len(chain)
	}
	return n
}

// reclaim tombstones the version at tid. Its HOT link stays: nothing reads
// it. Caller holds t.mu.
func (t *Table) reclaim(tid TID) {
	pg, s, _ := t.at(tid)
	sl := &pg.slots[s]
	pg.dead += int(sl.len())
	sl.xmin, sl.xmax = 0, 0
	t.nLive.Add(-1)
}

// settled reports whether every version left on the page is stable (fate).
func (pg *page) settled(mgr *txn.Manager) bool {
	for i := range pg.slots {
		if sl := &pg.slots[i]; sl.xmin != 0 {
			if _, stable := fate(mgr, 0, sl); !stable {
				return false
			}
		}
	}
	return true
}

var metCompactions = obs.Default().Counter("heap_page_compactions_total",
	"heap pages vacuum moved into a fresh array of their live tuples").With()

// compact moves the page's live versions into a fresh array of exactly
// their length, in slot order, and drops the reclaimed ones' bytes; the old
// array stays as it was for whoever reads it. A page left with no live
// version drops its slots too: its TIDs no longer resolve. Caller holds t.mu.
func (pg *page) compact() {
	var data []byte
	if live := len(pg.data) - pg.dead; live > 0 {
		data = make([]byte, 0, live)
	}
	for i := range pg.slots {
		sl := &pg.slots[i]
		if sl.xmin == 0 {
			sl.off, sl.n = 0, 0
			continue
		}
		off := len(data)
		data = append(data, pg.bytes(sl)...)
		sl.off = uint32(off)
	}
	if data == nil {
		pg.slots = nil
	}
	pg.data, pg.dead = data, 0
	metCompactions.Inc()
}

// Image is what one snapshot saw of a table, page by page: each page's
// array as it stood and which of the tuples packed in it were seen — no
// copy of a tuple and no slice header per tuple. The arrays are immutable up
// to the lengths held, so the image stays what it was while the table goes
// on.
type Image []pageImage

// pageImage is one page of an Image: the page's array, and a bit per tuple
// in it, in the order they are packed, set for those the snapshot saw.
type pageImage struct {
	data []byte
	seen uint64
}

// Image returns what snapshot s sees of the table: of the pages it has now,
// as a page added later holds only versions s cannot see. Like AllTuples it
// is not a query, and charges the buffer pool nothing.
func (t *Table) Image(mgr *txn.Manager, s txn.Snapshot) Image {
	numPages := t.NumPages()
	img := make(Image, 0, numPages)
	slots := make([]slot, 0, TuplesPerPage)
	for p := 0; p < numPages; p++ {
		var data []byte
		var ok bool
		if slots, data, ok = t.readPage(p, slots); !ok {
			break
		}
		var seen uint64
		k := 0
		for i := range slots {
			sl := &slots[i]
			if sl.len() == 0 {
				continue // its bytes are compacted away
			}
			if visible(mgr, s, sl.xmin, sl.xmax) {
				seen |= 1 << k
			}
			k++
		}
		if seen != 0 {
			img = append(img, pageImage{data: data, seen: seen})
		}
	}
	return img
}

// Each calls fn with every tuple the image saw, in TID order; fn returning
// false stops.
func (img Image) Each(fn func(tuple []byte) bool) {
	for _, pi := range img {
		pos := 0
		for k := 0; pi.seen>>k != 0; k++ {
			n := pos + rowbatch.TupleLen(pi.data[pos:])
			if pi.seen&(1<<k) != 0 && !fn(pi.data[pos:n:n]) {
				return
			}
			pos = n
		}
	}
}

// Len returns how many tuples the image saw.
func (img Image) Len() int {
	n := 0
	for _, pi := range img {
		n += bits.OnesCount64(pi.seen)
	}
	return n
}

// Truncate drops all data.
func (t *Table) Truncate() {
	t.mu.Lock()
	t.pages, t.dirty = nil, nil
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
