// Package columnar implements the columnar storage access method
// (CREATE TABLE ... USING columnar), the capability Table 2 of the paper
// requires for data-warehousing workloads. Rows are organized into
// column-major stripes; scans touch only the columns a query references,
// and column chunks compress (modelled as a reduced page count charged to
// the buffer pool), which is where the fast-scan advantage comes from.
//
// A column chunk is a typed vector (vec.Vector): a slice of int64, float64,
// bool, UTC nanoseconds or dictionary codes, with a NULL mask — 8 bytes a
// cell or less, and nothing boxed. Beyond the row-at-a-time Scan, the table
// exposes chunk-granular batch access (VisibleStripes + LoadChunk): an
// executor reads whole vectors per stripe without materializing rows,
// consults per-column min/max chunk statistics to skip stripes a predicate
// can never match, and runs vectorized kernels (internal/vec) over them.
//
// A stripe outlives the transaction that opened it: it fills with the rows of
// whatever transactions insert next, each one's rows a segment stamped with
// its XID, until it holds StripeRows rows or a checkpoint freezes it.
//
// Like the early Citus columnar access method, the format is append-only:
// INSERT and COPY are supported, UPDATE/DELETE are not.
package columnar

import (
	"sync"
	"sync/atomic"

	"citusgo/internal/bufpool"
	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// StripeRows caps how many rows one stripe holds.
const StripeRows = 10000

// CompressionFactor models how many heap-equivalent pages one columnar
// page replaces (delta/dictionary encoding on sorted, low-cardinality
// analytics data).
const CompressionFactor = 8

// rowsPerHeapPage mirrors heap.TuplesPerPage for the I/O cost model.
const rowsPerHeapPage = 64

// rowsPerPage is how many rows of one column a columnar page holds.
const rowsPerPage = rowsPerHeapPage * CompressionFactor

// chunkPageStride is the page-ID stride reserved per (stripe, column)
// chunk: chunk (si, ci) owns pages [(si*ncols+ci)*stride,
// (si*ncols+ci+1)*stride), row r of it lying on page r/rowsPerPage of them.
// A full stripe needs ceil(StripeRows/rowsPerPage) pages, so distinct chunks
// can never collide as long as that fits in the stride.
const chunkPageStride = 1024

// maxPagesPerChunk is the page count of a full stripe's chunk.
const maxPagesPerChunk = (StripeRows + rowsPerPage - 1) / rowsPerPage

// Compile-time guard: one chunk's pages fit inside its page-ID stride.
var _ [chunkPageStride - maxPagesPerChunk]struct{}

// colStats tracks the min/max of one column chunk for stripe skipping, as
// the rows that hold them: typed vectors compare their own elements, so no
// value is boxed to keep the statistics. Only chunks of the ordered kinds
// (int, float, timestamp, string) carry stats; NULLs are ignored (they never
// satisfy a comparison predicate, so a [min,max] proof over non-null values
// is enough to skip the whole stripe).
type colStats struct {
	minAt, maxAt int32
	set          bool // minAt and maxAt are rows
	bad          bool // stats unusable: see update
	nulls        bool // the chunk holds at least one NULL
	// boxed is min and max as datums, made by the first Stats call after
	// they last moved; a settled stripe answers every later call from it.
	boxed atomic.Pointer[[2]types.Datum]
}

// update takes in row i of v, just appended. The stats go bad, for good,
// when the chunk is or becomes KindGeneric — values of mixed or unordered
// types have no order a [min,max] proof could rest on — or holds a bool, or
// a NaN, which types.Compare ties with every value.
func (s *colStats) update(v *vec.Vector, i int) {
	if v.IsNull(i) {
		s.nulls = true
		return
	}
	if s.bad {
		return
	}
	below, above := false, false
	first := !s.set
	switch v.Kind {
	case vec.KindInt, vec.KindTime:
		if !first {
			below, above = v.Ints[i] < v.Ints[s.minAt], v.Ints[i] > v.Ints[s.maxAt]
		}
	case vec.KindFloat:
		if x := v.Floats[i]; x != x {
			s.bad = true
		} else if !first {
			below, above = x < v.Floats[s.minAt], x > v.Floats[s.maxAt]
		}
	case vec.KindString:
		if c := v.Codes[i]; !first && c != v.Codes[s.minAt] && c != v.Codes[s.maxAt] {
			below, above = v.Dict[c] < v.Dict[v.Codes[s.minAt]], v.Dict[c] > v.Dict[v.Codes[s.maxAt]]
		}
	default:
		s.bad = true
	}
	switch {
	case s.bad:
		s.set = false
	case first:
		s.minAt, s.maxAt, s.set = int32(i), int32(i), true
	case below:
		s.minAt = int32(i)
	case above:
		s.maxAt = int32(i)
	default:
		return
	}
	s.boxed.Store(nil)
}

// segment is a run of a stripe's rows that one transaction wrote: rows
// [the previous segment's end, end).
type segment struct {
	xid uint64
	end int
}

// stripe holds up to StripeRows rows of any number of transactions, each
// one's rows a segment: visibility is decided a segment at a time.
type stripe struct {
	segs  []segment
	cols  []vec.Vector // column-major
	stats []colStats   // per-column chunk min/max, over every row of the stripe
	n     int
	// frozen: the stripe takes no more rows and its vectors have dropped what
	// only Append needs. A frozen stripe is never written to again, so a
	// checkpoint's image, and the tables rebuilt from it, may share it.
	frozen bool
}

// freeze marks the stripe full. Callers hold the table's write lock.
func (st *stripe) freeze() {
	if st.frozen {
		return
	}
	for i := range st.cols {
		st.cols[i].Freeze()
	}
	st.frozen = true
}

// visible appends to views one view per maximal run of st's segments that s
// sees.
func (st *stripe) visible(views []StripeView, t *Table, si int, mgr *txn.Manager, s txn.Snapshot) []StripeView {
	lo, at := -1, 0
	for _, sg := range st.segs {
		if mgr.Sees(s, sg.xid) {
			if lo < 0 {
				lo = at
			}
		} else if lo >= 0 {
			views = append(views, StripeView{t: t, st: st, si: si, lo: lo, hi: at})
			lo = -1
		}
		at = sg.end
	}
	if lo >= 0 {
		views = append(views, StripeView{t: t, st: st, si: si, lo: lo, hi: at})
	}
	return views
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

// Insert appends a row written by transaction xid to the last stripe, or to
// a new one when that is frozen or full, whichever transactions wrote the
// stripe's earlier rows. The row extends the stripe's last segment when xid
// wrote that one too, and opens a segment of its own otherwise.
func (t *Table) Insert(xid uint64, row types.Row) {
	t.mu.Lock()
	var st *stripe
	if n := len(t.stripes); n > 0 {
		last := t.stripes[n-1]
		if last.n < StripeRows && !last.frozen {
			st = last
		} else {
			// only the last stripe ever takes rows
			last.freeze()
		}
	}
	if st == nil {
		st = &stripe{
			cols:  make([]vec.Vector, t.ncols),
			stats: make([]colStats, t.ncols),
		}
		t.stripes = append(t.stripes, st)
	}
	for i := 0; i < t.ncols; i++ {
		var v types.Datum
		if i < len(row) {
			v = row[i]
		}
		st.cols[i].Append(v)
		st.stats[i].update(&st.cols[i], st.n)
	}
	st.n++
	if k := len(st.segs); k > 0 && st.segs[k-1].xid == xid {
		st.segs[k-1].end = st.n
	} else {
		st.segs = append(st.segs, segment{xid: xid, end: st.n})
	}
	t.mu.Unlock()
	t.nRows.Add(1)
}

// pagesForChunk computes the simulated page count of one column chunk.
func pagesForChunk(nrows int) int32 {
	return int32((nrows + rowsPerPage - 1) / rowsPerPage)
}

// StripeView is a read-only handle on rows [lo, hi) of a stripe: a run of
// its segments, each committed when the view was taken or the scanning
// transaction's own. Vectors are append-only, so the view stays valid across
// a concurrent Truncate, and while transactions keep appending to the stripe
// it still reads exactly those rows.
type StripeView struct {
	t      *Table
	st     *stripe
	si     int // stripe index at view time; keys the simulated page IDs
	lo, hi int
}

// NumRows returns the view's row count.
func (v StripeView) NumRows() int { return v.hi - v.lo }

// Stats returns the chunk min/max for one column. ok is false when the
// chunk carries no usable statistics (empty, all NULL, or values of mixed
// or unordered types) — callers must then treat the stripe as unskippable.
// The statistics are the whole stripe's: they may cover rows outside the
// view, another transaction's or appended after the view was taken — a
// wider [min,max], which proves no less about the view's rows.
func (v StripeView) Stats(col int) (min, max types.Datum, ok bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	s := &v.st.stats[col]
	if !s.set {
		return nil, nil, false
	}
	b := s.boxed.Load()
	if b == nil {
		c := &v.st.cols[col]
		b = &[2]types.Datum{c.Datum(int(s.minAt)), c.Datum(int(s.maxAt))}
		s.boxed.Store(b)
	}
	return b[0], b[1], true
}

// HasNulls reports whether the column chunk holds any NULL, in the view's
// rows or the rest of the stripe's. Min/max cover only the non-NULL values,
// so a proof that must also hold for NULL rows (an ascending TopN bound,
// where NULL sorts first) needs this beside them.
func (v StripeView) HasNulls(col int) bool {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.st.stats[col].nulls
}

// VisibleStripes snapshots the rows visible to s: one view per maximal run
// of a stripe's segments that s sees, at one clog check a segment. No chunk
// I/O is charged: stats live in stripe metadata, so a caller can decide which
// stripes to skip before paying for any column chunk.
func (t *Table) VisibleStripes(mgr *txn.Manager, s txn.Snapshot) []StripeView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	views := make([]StripeView, 0, len(t.stripes))
	for si, st := range t.stripes {
		views = st.visible(views, t, si, mgr, s)
	}
	return views
}

// FrozenStripes is VisibleStripes for a checkpoint's image: the runs s sees
// committed, each stripe that has one frozen — it takes no more rows — and so
// safe to share with the tables Adopt rebuilds from the image.
func (t *Table) FrozenStripes(mgr *txn.Manager, s txn.Snapshot) []StripeView {
	t.mu.Lock()
	defer t.mu.Unlock()
	var views []StripeView
	for si, st := range t.stripes {
		n := len(views)
		if views = st.visible(views, t, si, mgr, s); len(views) > n {
			st.freeze()
		}
	}
	return views
}

// Adopt appends the stripes of an image to this table, sharing their vectors
// and statistics with the table they were taken from. Each stripe gets
// segments of its own: the image's runs are stamped xid, which must be one
// every snapshot sees, and the rest of the stripe XID 0, which none does.
func (t *Table) Adopt(views []StripeView, xid uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(views); {
		src := views[i].st
		st := &stripe{cols: src.cols, stats: src.stats, n: src.n, frozen: true}
		at := 0
		for ; i < len(views) && views[i].st == src; i++ {
			v := views[i]
			if v.lo > at {
				st.segs = append(st.segs, segment{end: v.lo})
			}
			st.segs = append(st.segs, segment{xid: xid, end: v.hi})
			at = v.hi
			t.nRows.Add(int64(v.hi - v.lo))
		}
		if at < st.n {
			st.segs = append(st.segs, segment{end: st.n})
		}
		t.stripes = append(t.stripes, st)
	}
}

// LoadChunk charges buffer-pool I/O for the needed columns of one view (nil
// = all) — the pages its rows lie on — and returns the view's rows of those
// columns as vectors, indexed by table column ordinal; columns outside needed
// are empty. buf is nil or the result of an earlier LoadChunk of this table
// with the same needed, which is then overwritten and returned: a scan
// allocates once, not per stripe. The vectors are live storage: callers must
// treat them as read-only.
func (t *Table) LoadChunk(v StripeView, needed []int, buf []vec.Vector) []vec.Vector {
	if buf == nil {
		buf = make([]vec.Vector, t.ncols)
	}
	first, last := int32(v.lo/rowsPerPage), int32((v.hi-1)/rowsPerPage)
	load := func(ci int) {
		base := int32(v.si*t.ncols+ci) * chunkPageStride
		for p := first; p <= last; p++ {
			t.pool.Access(bufpool.PageID{Table: t.ID, Page: base + p})
		}
		v.st.cols[ci].RangeInto(&buf[ci], v.lo, v.hi)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if needed == nil {
		for ci := 0; ci < t.ncols; ci++ {
			load(ci)
		}
		return buf
	}
	for _, ci := range needed {
		load(ci)
	}
	return buf
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return t.ncols }

// scanBlock is how many rows Scan turns into datums at a time.
const scanBlock = 1024

// Scan iterates visible rows, charging buffer-pool I/O only for the needed
// columns (nil = all). fn returning false stops the scan. This is the
// row-at-a-time path: the needed cells of a row are datums that point into
// the stripe's vectors (vec.Vector.AppendDatums), made a block of rows at a
// time, so nothing is allocated per cell.
//
// Aliasing contract: the types.Row passed to fn is a scratch buffer reused
// for every row. Callers that retain a row beyond the callback must copy
// it first (the engine's executor nodes either transform rows into fresh
// output rows or clone before buffering, so the hot scan path allocates
// nothing per row). The datums in it may be kept.
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
	cells := make([][]types.Datum, t.ncols)
	var chunk []vec.Vector
	for _, v := range views {
		chunk = t.LoadChunk(v, needed, chunk)
		n := v.NumRows()
		for lo := 0; lo < n; lo += scanBlock {
			hi := min(lo+scanBlock, n)
			for _, ci := range cols {
				cells[ci] = chunk[ci].AppendDatums(cells[ci][:0], lo, hi)
			}
			for r := 0; r < hi-lo; r++ {
				for _, ci := range cols {
					scratch[ci] = cells[ci][r]
				}
				if !fn(scratch) {
					return
				}
			}
		}
	}
}

// EstimatedRows returns the row count statistic.
func (t *Table) EstimatedRows() int64 { return t.nRows.Load() }

// NumPages returns the simulated page count of the table: every column chunk
// of every stripe, at the pages a LoadChunk of all its rows charges.
func (t *Table) NumPages() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for _, st := range t.stripes {
		total += int(pagesForChunk(st.n)) * t.ncols
	}
	return total
}

// Truncate drops all data.
func (t *Table) Truncate() {
	t.mu.Lock()
	t.stripes = nil
	t.mu.Unlock()
	t.nRows.Store(0)
	t.pool.Forget(t.ID)
}
