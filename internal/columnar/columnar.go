// Package columnar implements the columnar storage access method
// (CREATE TABLE ... USING columnar), the capability Table 2 of the paper
// requires for data-warehousing workloads. Rows are organized into
// column-major stripes; scans touch only the columns a query references,
// and column chunks compress (modelled as a reduced page count charged to
// the buffer pool), which is where the fast-scan advantage comes from.
//
// Beyond the row-at-a-time Scan, the table exposes chunk-granular batch
// access (VisibleStripes + LoadChunk): an executor reads whole column
// slices per stripe without materializing rows, consults per-column
// min/max chunk statistics to skip stripes a predicate can never match,
// and runs vectorized kernels (internal/vec) over the raw slices.
//
// Like the early Citus columnar access method, the format is append-only:
// INSERT and COPY are supported, UPDATE/DELETE are not.
package columnar

import (
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/bufpool"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// StripeRows caps how many rows one stripe holds.
const StripeRows = 10000

// CompressionFactor models how many heap-equivalent pages one columnar
// page replaces (delta/dictionary encoding on sorted, low-cardinality
// analytics data).
const CompressionFactor = 8

// rowsPerHeapPage mirrors heap.TuplesPerPage for the I/O cost model.
const rowsPerHeapPage = 64

// chunkPageStride is the page-ID stride reserved per (stripe, column)
// chunk: chunk (si, ci) owns pages [(si*ncols+ci)*stride,
// (si*ncols+ci+1)*stride). A full stripe needs
// ceil(StripeRows/(rowsPerHeapPage*CompressionFactor)) pages, so distinct
// chunks can never collide as long as that fits in the stride.
const chunkPageStride = 1024

// maxPagesPerChunk is the page count of a full stripe's chunk.
const maxPagesPerChunk = (StripeRows + rowsPerHeapPage*CompressionFactor - 1) /
	(rowsPerHeapPage * CompressionFactor)

// Compile-time guard: one chunk's pages fit inside its page-ID stride.
var _ [chunkPageStride - maxPagesPerChunk]struct{}

// colStats tracks the min/max of one column chunk for stripe skipping.
// Only homogeneous chunks of ordered types (int64, float64, string,
// time.Time) carry stats; NULLs are ignored (they never satisfy a
// comparison predicate, so a [min,max] proof over non-null values is
// enough to skip the whole stripe).
type colStats struct {
	min, max types.Datum
	bad      bool // mixed or unordered types; stats unusable
	nulls    bool // the chunk holds at least one NULL
}

func statsTracked(v types.Datum) bool {
	switch v.(type) {
	case int64, float64, string, time.Time:
		return true
	}
	return false
}

func sameStatType(a, b types.Datum) bool {
	switch a.(type) {
	case int64:
		_, ok := b.(int64)
		return ok
	case float64:
		_, ok := b.(float64)
		return ok
	case string:
		_, ok := b.(string)
		return ok
	case time.Time:
		_, ok := b.(time.Time)
		return ok
	}
	return false
}

func (s *colStats) update(v types.Datum) {
	if v == nil {
		s.nulls = true
		return
	}
	if s.bad {
		return
	}
	if !statsTracked(v) {
		s.bad = true
		s.min, s.max = nil, nil
		return
	}
	if s.min == nil {
		s.min, s.max = v, v
		return
	}
	if !sameStatType(s.min, v) {
		s.bad = true
		s.min, s.max = nil, nil
		return
	}
	if types.Compare(v, s.min) < 0 {
		s.min = v
	}
	if types.Compare(v, s.max) > 0 {
		s.max = v
	}
}

type stripe struct {
	xmin  uint64
	cols  [][]types.Datum // column-major
	stats []colStats      // per-column chunk min/max
	n     int
}

// Table is an append-only columnar table.
type Table struct {
	ID   int64
	pool *bufpool.Pool

	mu      sync.RWMutex
	ncols   int
	stripes []*stripe
	nRows   atomic.Int64
}

// NewTable creates an empty columnar table with ncols columns.
func NewTable(id int64, ncols int, pool *bufpool.Pool) *Table {
	if pool == nil {
		pool = bufpool.Unlimited()
	}
	return &Table{ID: id, ncols: ncols, pool: pool}
}

// Insert appends a row written by transaction xid. Rows from different
// transactions go to different stripes so stripe visibility stays a single
// xmin check.
func (t *Table) Insert(xid uint64, row types.Row) {
	t.mu.Lock()
	var st *stripe
	if n := len(t.stripes); n > 0 {
		last := t.stripes[n-1]
		if last.xmin == xid && last.n < StripeRows {
			st = last
		}
	}
	if st == nil {
		st = &stripe{
			xmin:  xid,
			cols:  make([][]types.Datum, t.ncols),
			stats: make([]colStats, t.ncols),
		}
		t.stripes = append(t.stripes, st)
	}
	for i := 0; i < t.ncols; i++ {
		var v types.Datum
		if i < len(row) {
			v = row[i]
		}
		st.cols[i] = append(st.cols[i], v)
		st.stats[i].update(v)
	}
	st.n++
	t.mu.Unlock()
	t.nRows.Add(1)
}

// pagesForChunk computes the simulated page count of one column chunk.
func pagesForChunk(nrows int) int32 {
	rowsPerPage := rowsPerHeapPage * CompressionFactor
	return int32((nrows + rowsPerPage - 1) / rowsPerPage)
}

// StripeView is a read-only handle on one visible stripe. The underlying
// column slices are append-only and the stripe was committed (or written
// by the scanning transaction itself) before the view was taken, so the
// view stays valid without locks even across a concurrent Truncate.
type StripeView struct {
	st *stripe
	si int // stripe index at view time; keys the simulated page IDs
}

// NumRows returns the stripe's row count.
func (v StripeView) NumRows() int { return v.st.n }

// Stats returns the chunk min/max for one column. ok is false when the
// chunk carries no usable statistics (empty, all NULL, or values of mixed
// or unordered types) — callers must then treat the stripe as unskippable.
func (v StripeView) Stats(col int) (min, max types.Datum, ok bool) {
	s := &v.st.stats[col]
	if s.bad || s.min == nil {
		return nil, nil, false
	}
	return s.min, s.max, true
}

// HasNulls reports whether the column chunk holds any NULL. Min/max cover
// only the non-NULL values, so a proof that must also hold for NULL rows
// (an ascending TopN bound, where NULL sorts first) needs this beside them.
func (v StripeView) HasNulls(col int) bool { return v.st.stats[col].nulls }

// VisibleStripes snapshots the stripes visible to s. No chunk I/O is
// charged: stats live in stripe metadata, so a caller can decide which
// stripes to skip before paying for any column chunk.
func (t *Table) VisibleStripes(mgr *txn.Manager, s txn.Snapshot) []StripeView {
	t.mu.RLock()
	// The backing array is append-only and stripes are never reassigned,
	// so reading the slice header under the read lock is all the copying
	// a scan needs.
	stripes := t.stripes
	t.mu.RUnlock()

	views := make([]StripeView, 0, len(stripes))
	for si, st := range stripes {
		if st.xmin == s.Self || mgr.Sees(s, st.xmin) {
			views = append(views, StripeView{st: st, si: si})
		}
	}
	return views
}

// LoadChunk charges buffer-pool I/O for the needed columns of one stripe
// (nil = all) and returns the stripe's column slices, indexed by table
// column ordinal; columns outside needed are nil. The slices are live
// storage: callers must treat them as read-only.
func (t *Table) LoadChunk(v StripeView, needed []int) [][]types.Datum {
	out := make([][]types.Datum, t.ncols)
	charge := func(ci int) {
		pages := pagesForChunk(v.st.n)
		base := int32(v.si*t.ncols+ci) * chunkPageStride
		for p := int32(0); p < pages; p++ {
			t.pool.Access(bufpool.PageID{Table: t.ID, Page: base + p})
		}
	}
	if needed == nil {
		for ci := 0; ci < t.ncols; ci++ {
			charge(ci)
			out[ci] = v.st.cols[ci][:v.st.n]
		}
		return out
	}
	for _, ci := range needed {
		charge(ci)
		out[ci] = v.st.cols[ci][:v.st.n]
	}
	return out
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return t.ncols }

// Scan iterates visible rows, charging buffer-pool I/O only for the needed
// columns (nil = all). fn returning false stops the scan.
//
// Aliasing contract: the types.Row passed to fn is a scratch buffer reused
// for every row. Callers that retain a row beyond the callback must copy
// it first (the engine's executor nodes either transform rows into fresh
// output rows or clone before buffering, so the hot scan path allocates
// nothing per row).
func (t *Table) Scan(mgr *txn.Manager, s txn.Snapshot, needed []int, fn func(row types.Row) bool) {
	views := t.VisibleStripes(mgr, s)
	if len(views) == 0 {
		return
	}
	cols := needed
	if cols == nil {
		cols = make([]int, t.ncols)
		for i := range cols {
			cols[i] = i
		}
	}
	scratch := make(types.Row, t.ncols)
	for _, v := range views {
		chunk := t.LoadChunk(v, needed)
		for r := 0; r < v.NumRows(); r++ {
			for _, ci := range cols {
				scratch[ci] = chunk[ci][r]
			}
			if !fn(scratch) {
				return
			}
		}
	}
}

// EstimatedRows returns the row count statistic.
func (t *Table) EstimatedRows() int64 { return t.nRows.Load() }

// NumStripes returns the stripe count.
func (t *Table) NumStripes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.stripes)
}

// Truncate drops all data.
func (t *Table) Truncate() {
	t.mu.Lock()
	t.stripes = nil
	t.mu.Unlock()
	t.nRows.Store(0)
	t.pool.Forget(t.ID)
}
