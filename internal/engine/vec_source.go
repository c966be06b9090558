package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"citusgo/internal/columnar"
	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/jsonb"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/vec"
)

// Chunk sources: where a vecAggNode's chunks come from. The node has one fold
// loop, over chunkCursor.next; what is below it — the stripes of a columnar
// table, a heap read a batch of pages at a time, or a hash join of two other
// sources — is a chunkSource. A chunk is a []vec.Vector indexed by the
// source's column ordinals (a table's, or for a join its left input's
// followed by its right input's, like the row path's combined row), holding
// only the columns the plan asked the source for — and, past those ordinals,
// the derived columns (vec_derived.go) a heap-backed scan fills.

type chunkSource interface {
	explain(indent string) []string
	// open binds the source's constants for one execution and returns its
	// cursors, never none: one, or for a scan that can be split up to degree
	// of them over contiguous ranges in scan order, each for a goroutine of
	// its own.
	open(ec *execCtx, degree int) ([]chunkCursor, error)
}

type chunkCursor interface {
	// next returns the next chunk that has rows left after the source's
	// filters: its vectors, their row count, and the rows that passed (nil:
	// all). chunk and sel are good until the next call; the storage the
	// vectors point to is never written again, so a datum or a slice taken
	// from them may be kept. ok is false when the source is drained.
	next() (chunk []vec.Vector, nrows int, sel vec.Sel, ok bool, err error)
	// report adds what the cursor, and the cursors below it, did to st. It is
	// called once, when next has returned for the last time.
	report(st *vecStats)
}

// vecStats is what the cursors of one execution did: the node sums it,
// publishes the counters and fills the trace span from it.
type vecStats struct {
	batches, rows  int64 // columnar chunks loaded, and their rows before filtering
	stripesSkipped int64 // by a filter's constant against chunk min/max
	// rows the TopN bound cut after the filters, and stripes it skipped whole
	boundRows, boundStripes int64
	heapBatches, heapRows   int64 // heap batches, and the visible rows in them
	buildRows, probeRows    int64 // hash joins: rows built on, rows probed with
	// GIN scans: the candidates fetched, and those visible and past the recheck
	ginCandidates, ginRows int64
}

func (st *vecStats) add(o *vecStats) {
	st.batches += o.batches
	st.rows += o.rows
	st.stripesSkipped += o.stripesSkipped
	st.boundRows += o.boundRows
	st.boundStripes += o.boundStripes
	st.heapBatches += o.heapBatches
	st.heapRows += o.heapRows
	st.buildRows += o.buildRows
	st.probeRows += o.probeRows
	st.ginCandidates += o.ginCandidates
	st.ginRows += o.ginRows
}

// filterChain runs a source's bound conjuncts over a chunk, each kernel
// consuming the selection of the one before. The bound filters are read-only
// and shared by the cursors of a split scan; the selection buffers and the
// scratch are the chain's own.
type filterChain struct {
	filters    []boundFilter
	selA, selB vec.Sel
	scratch    filterScratch
}

// apply returns the rows of chunk that pass every filter: nil, all of them,
// only when there is no filter.
func (c *filterChain) apply(chunk []vec.Vector) vec.Sel {
	var sel vec.Sel
	for fi := range c.filters {
		out := &c.selA
		if fi%2 == 1 {
			out = &c.selB
		}
		*out = c.filters[fi].apply(chunk, sel, *out, &c.scratch)
		if sel = *out; len(sel) == 0 {
			return vec.Sel{} // not nil, whatever the kernel returned: nil reads as all rows
		}
	}
	return sel
}

// none reports whether sel selects no row.
func none(sel vec.Sel) bool { return sel != nil && len(sel) == 0 }

func bindFilters(ec *execCtx, specs []vecFilterSpec) ([]boundFilter, error) {
	filters := make([]boundFilter, len(specs))
	for i := range specs {
		f, err := specs[i].bind(ec)
		if err != nil {
			return nil, err
		}
		filters[i] = f
	}
	return filters, nil
}

// filterText is the filters' part of an EXPLAIN line, under the name they go
// by at the node: "filter", or "recheck" above an index scan.
func filterText(what string, filters []vecFilterSpec) string {
	if len(filters) == 0 {
		return ""
	}
	parts := make([]string, len(filters))
	for i := range filters {
		parts[i] = filters[i].text
	}
	return " (" + what + ": " + strings.Join(parts, " AND ") + ")"
}

// scanLine is a scan's EXPLAIN line.
func scanLine(indent, kind, table string, filters []vecFilterSpec) string {
	return indent + "Vectorized " + kind + " Scan on " + table + filterText("filter", filters)
}

// ---------------------------------------------------------------------------
// Columnar stripes

// columnarSource scans a columnar table stripe by stripe. Stripes whose chunk
// min/max statistics contradict a filter are dropped without reading a chunk,
// the rest are split into contiguous ranges, one cursor each, and a TopN above
// the aggregate may bound the scan (vecTopN).
type columnarSource struct {
	st      *storage
	filters []vecFilterSpec
	load    []int    // the column ordinals to load
	topn    *vecTopN // nil unless a TopN above the aggregate bounds the scan
}

func (c *columnarSource) explain(indent string) []string {
	var lines []string
	if c.topn != nil {
		// a parameterised LIMIT has no value until execution
		k, err := c.topn.k(&expr.Ctx{})
		kText, dir := "?", "ASC"
		if err == nil {
			kText = strconv.Itoa(k)
		}
		if c.topn.desc {
			dir = "DESC"
		}
		if err != nil || k > 0 {
			lines = append(lines, indent+"TopN bound: "+c.st.table.Columns[c.topn.col].Name+" "+dir+" k="+kText)
		}
	}
	return append(lines, scanLine(indent, "Columnar", c.st.table.Name, c.filters))
}

func (c *columnarSource) open(ec *execCtx, degree int) ([]chunkCursor, error) {
	filters, err := bindFilters(ec, c.filters)
	if err != nil {
		return nil, err
	}
	topK := 0
	if c.topn != nil {
		if topK, err = c.topn.k(ec.eval); err != nil {
			return nil, err
		}
	}
	// as the row-at-a-time columnar scan: no per-tuple SIREAD state, one lock
	// on the table
	ec.ssi.lockTable(c.st.table.ID)
	views := c.st.col.VisibleStripes(ec.sess.Eng.Txns, ec.snap)

	// stripe skipping: a filter whose constant falls outside the chunk's
	// min/max proves no row in the stripe can pass — drop the stripe
	// before charging any chunk I/O.
	work := views[:0:0]
	for _, v := range views {
		if !slices.ContainsFunc(filters, func(f boundFilter) bool { return f.skip(v) }) {
			work = append(work, v)
		}
	}

	// contiguous stripe ranges keep the merge order equal to a sequential
	// scan, so grouped output order (first-seen) and int sums are identical
	// to the row path.
	degree = max(1, min(degree, len(work)))
	cursors := make([]chunkCursor, degree)
	for w := range cursors {
		cur := &columnarCursor{src: c, chain: filterChain{filters: filters},
			work: work[w*len(work)/degree : (w+1)*len(work)/degree]}
		if topK > 0 {
			cur.bound = vec.NewTopNBound(c.topn.col, c.topn.desc, topK)
		}
		if w == 0 {
			cur.stats.stripesSkipped = int64(len(views) - len(work))
		}
		cursors[w] = cur
	}
	return cursors, nil
}

type columnarCursor struct {
	src   *columnarSource
	work  []columnar.StripeView
	chain filterChain
	bound *vec.TopNBound // nil when no TopN bounds the scan
	chunk []vec.Vector   // LoadChunk's buffer: views of the stripes' own vectors
	stats vecStats
}

func (c *columnarCursor) next() ([]vec.Vector, int, vec.Sel, bool, error) {
	for len(c.work) > 0 {
		view := c.work[0]
		c.work = c.work[1:]
		keyNulls := false
		if c.bound != nil {
			col := c.src.topn.col
			keyNulls = view.HasNulls(col)
			min, max, ok := view.Stats(col)
			if c.bound.Skip(min, max, ok, keyNulls) {
				c.stats.boundStripes++
				continue
			}
		}
		c.chunk = c.src.st.col.LoadChunk(view, c.src.load, c.chunk)
		nrows := view.NumRows()
		c.stats.batches++
		c.stats.rows += int64(nrows)
		sel := c.chain.apply(c.chunk)
		if none(sel) {
			continue
		}
		if c.bound != nil {
			var cut int
			sel, cut = c.bound.Apply(c.chunk, keyNulls, sel, nrows)
			c.stats.boundRows += int64(cut)
			if none(sel) {
				continue
			}
		}
		return c.chunk, nrows, sel, true, nil
	}
	return nil, 0, nil, false, nil
}

func (c *columnarCursor) report(st *vecStats) { st.add(&c.stats) }

// ---------------------------------------------------------------------------
// Heap batches

// heapChunkRows is how many rows a heap cursor gathers before it hands a
// chunk on: the passing rows of several batches, when the filters drop most.
const heapChunkRows = 4096

// heapSource scans a heap table through heap.BatchScan: the pages and the
// visibility of the row-at-a-time scan, a batch of visible tuples at a time.
// The columns the filters read are decoded first, straight from the tuples'
// bytes into scratch vectors no one else sees; the columns read above the
// scan are then decoded for the rows that passed alone, appended to the chunk
// being gathered, and the derived columns computed for those rows from their
// jsonb columns' scratch vectors. So a chunk is dense — no selection — a row
// the filters drop costs one value a filter column, and no column a plan does
// not read is decoded. One cursor: the pages are read in order.
//
// With gin set it is the vectorized form of a scanNode's GIN path: the index's
// candidates for the pattern fetched a batch at a time (heap.NewTIDScan) in
// place of every page, and the filters — the whole WHERE clause, as there —
// the recheck. A pattern the index cannot search opens the page scan.
type heapSource struct {
	st         *storage
	filters    []vecFilterSpec
	filterCols []int          // what the filters and the derived columns read: the scratch vectors
	out        []int          // what is read above the scan
	derived    []*derivedExpr // what is computed for it
	gin        *ginIndex
	pattern    expr.Evaluator
}

func (h *heapSource) explain(indent string) []string {
	if h.gin == nil {
		return []string{scanLine(indent, "Heap", h.st.table.Name, h.filters)}
	}
	return []string{indent + "Vectorized Bitmap Heap Scan on " + h.st.table.Name + filterText("recheck", h.filters),
		indent + "  -> Bitmap Index Scan using " + h.gin.def.Name + " (trigram)"}
}

func (h *heapSource) open(ec *execCtx, _ int) ([]chunkCursor, error) {
	filters, err := bindFilters(ec, h.filters)
	if err != nil {
		return nil, err
	}
	cur := &heapCursor{src: h, chain: filterChain{filters: filters},
		probe: make([]vec.Vector, len(h.st.table.Columns))}
	if h.gin != nil {
		if candidates, usable := searchGIN(ec, h.st, h.gin, h.pattern); usable {
			cur.byIndex = true
			cur.stats.ginCandidates = int64(len(candidates))
			cur.scan = h.st.heap.NewTIDScan(ec.sess.Eng.Txns, ec.snap, candidates)
			return []chunkCursor{cur}, nil
		}
	}
	cur.scan = h.st.heap.NewBatchScan(ec.sess.Eng.Txns, ec.snap)
	return []chunkCursor{cur}, nil
}

type heapCursor struct {
	src     *heapSource
	scan    *heap.BatchScan
	byIndex bool // the scan fetches a GIN search's candidates
	chain   filterChain
	probe   []vec.Vector  // the filter columns of the batch at hand
	docs    []jsonb.Value // what the probe's documents point at
	text    []byte        // the derived columns' scratch
	stats   vecStats
}

func (c *heapCursor) next() ([]vec.Vector, int, vec.Sel, bool, error) {
	// every chunk gets vectors of its own: what was handed on is never
	// written again
	var chunk []vec.Vector
	n := 0
	for n < heapChunkRows {
		tuples, ok := c.scan.Next()
		if !ok {
			break
		}
		if !c.byIndex {
			c.stats.heapBatches++
			c.stats.heapRows += int64(len(tuples))
		}
		for _, col := range c.src.filterCols {
			c.probe[col].Reset()
		}
		c.docs = decodeColumns(c.probe, c.src.filterCols, tuples, nil, c.docs[:0])
		sel := c.chain.apply(c.probe)
		if none(sel) {
			continue
		}
		passed := len(tuples)
		if sel != nil {
			passed = len(sel)
		}
		if c.byIndex {
			c.stats.ginRows += int64(passed)
		}
		first := chunk == nil
		if first {
			chunk = make([]vec.Vector, len(c.probe)+len(c.src.derived))
		}
		// the chunk's documents are its own: it is handed on
		decodeColumns(chunk, c.src.out, tuples, sel, nil)
		for _, d := range c.src.derived {
			var err error
			if c.text, err = d.fill(&chunk[d.ord], &c.probe[d.base], sel, len(tuples), c.text); err != nil {
				return nil, 0, nil, false, err
			}
		}
		if first {
			// room, made once, for what the rest of the scan passes if it
			// goes on as this batch did
			read, total := c.scan.Progress()
			room := min(passed*(total-read)/read+passed/8, heapChunkRows)
			for _, col := range c.src.out {
				chunk[col].Reserve(room)
			}
			for _, d := range c.src.derived {
				chunk[d.ord].Reserve(room)
			}
		}
		n += passed
	}
	return chunk, n, nil, n > 0, nil
}

// decodeColumns appends columns cols, ascending, of tuples sel — all of them
// when sel is nil — to vs[col] for each col, straight from the tuples' bytes:
// each tuple walked once, as far as its last column needed, every value
// appended unboxed, a string as it lies in the tuple. Past a short tuple's
// end (stored before an ALTER TABLE … ADD COLUMN) a column is NULL. A jsonb
// document is boxed pointing into docs, which it returns longer: one array
// for many documents, not an allocation each, made when docs has no room.
// Only a scratch vector's documents may go into an array used before.
func decodeColumns(vs []vec.Vector, cols []int, tuples [][]byte, sel vec.Sel, docs []jsonb.Value) []jsonb.Value {
	m := len(tuples)
	if sel != nil {
		m = len(sel)
	}
	var buf [16]rowbatch.Pos
	picked := buf[:0]
	if len(cols) > len(buf) {
		picked = make([]rowbatch.Pos, len(cols))
	}
	picked = picked[:len(cols)]
	var grownBuf [16]bool
	grown := grownBuf[:0]
	if len(cols) > len(grownBuf) {
		grown = make([]bool, len(cols))
	}
	grown, toGrow := grown[:len(cols)], len(cols)
	for j := 0; j < m; j++ {
		tuple := tuples[j]
		if sel != nil {
			tuple = tuples[sel[j]]
		}
		rowbatch.Pick(tuple, cols, picked)
		for k, p := range picked {
			fd := p.In(tuple)
			v := &vs[cols[k]]
			switch fd.Kind() {
			case rowbatch.Null:
				v.Append(nil)
			case rowbatch.Int64:
				v.AppendInt(fd.Int64())
			case rowbatch.Float64:
				v.AppendFloat(fd.Float64())
			case rowbatch.Bool:
				v.AppendBool(fd.Bool())
			case rowbatch.String:
				v.AppendString(fd.Text())
			case rowbatch.Time:
				if ns, ok := fd.UnixNano(); ok {
					v.AppendUnixNano(ns)
				} else {
					v.AppendTime(fd.Time())
				}
			case rowbatch.JSONB:
				if len(docs) == cap(docs) {
					// a new array: the documents boxed so far keep the old one
					docs = make([]jsonb.Value, 0, max(m-j, 2*cap(docs)))
				}
				docs = append(docs, fd.JSONB())
				v.Append(rowbatch.BoxJSONB(&docs[len(docs)-1]))
			}
		}
		// the first value that is not NULL gives a vector its kind: room
		// for the rest
		for k := 0; toGrow > 0 && k < len(cols); k++ {
			if v := &vs[cols[k]]; !grown[k] && v.Kind != vec.KindNull {
				v.Reserve(m - j - 1)
				grown[k] = true
				toGrow--
			}
		}
	}
	return docs
}

func (c *heapCursor) report(st *vecStats) { st.add(&c.stats) }

// ---------------------------------------------------------------------------
// Hash join

// joinBatch is how many matches a join hands on in one chunk.
const joinBatch = 1024

// joinSource is an INNER equi-join of two sources on whole columns. Both
// inputs are drained first — filtered, and only the columns kept that the
// join or the plan above it reads — so both cardinalities are known exactly
// when the table is built, and it is built on the smaller input: no
// statistics, no setting. The matches are then put in the order the row
// path's join finds them (left rows in order, each one's right rows in
// order), whichever side was built on, so that group order, sums and a TopN's
// ties above it come out as they do row at a time.
type joinSource struct {
	left, right         chunkSource
	leftKeys, rightKeys []int // key column ordinals, each within its own input
	leftCols, rightCols []int // what is kept of each input: keys and outputs
	leftOut, rightOut   []int // what is gathered into the join's chunks
	leftWidth, width    int   // columns of the left input, and of both
	// residual are the conjuncts over the joined columns that are not
	// equi-keys: filters on each gathered chunk
	residual []vecFilterSpec
	keyText  string
}

func (j *joinSource) explain(indent string) []string {
	line := indent + "Vectorized Hash Join (" + j.keyText + "; build: smaller input)" + filterText("filter", j.residual)
	lines := append([]string{line}, j.left.explain(indent+"  ")...)
	return append(lines, j.right.explain(indent+"  ")...)
}

func (j *joinSource) open(ec *execCtx, _ int) ([]chunkCursor, error) {
	residual, err := bindFilters(ec, j.residual)
	if err != nil {
		return nil, err
	}
	left, err := j.left.open(ec, 1)
	if err != nil {
		return nil, err
	}
	right, err := j.right.open(ec, 1)
	if err != nil {
		return nil, err
	}
	return []chunkCursor{&joinCursor{src: j, ec: ec, left: left[0], right: right[0],
		chain: filterChain{filters: residual}}}, nil
}

type joinCursor struct {
	src         *joinSource
	ec          *execCtx
	left, right chunkCursor
	chain       filterChain

	joined   bool
	l, r     []vec.Vector // the drained inputs
	lix, rix []int32      // the matches: rows of l beside rows of r
	stats    vecStats
}

// drain reads a cursor to its end and returns columns cols of every row that
// passed, as one vector each, and the row count.
func drain(cur chunkCursor, width int, cols []int) ([]vec.Vector, int, error) {
	out := make([]vec.Vector, width)
	n := 0
	for {
		chunk, nrows, sel, ok, err := cur.next()
		if err != nil || !ok {
			return out, n, err
		}
		for _, c := range cols {
			if sel == nil && out[c].Len() == 0 {
				out[c] = chunk[c] // taken over: appending to it copies (RangeInto)
			} else {
				out[c].AppendRows(&chunk[c], sel)
			}
		}
		if sel != nil {
			nrows = len(sel)
		}
		n += nrows
	}
}

// join drains both inputs and matches them.
func (c *joinCursor) join() error {
	src := c.src
	var nl, nr int
	var err error
	if c.l, nl, err = drain(c.left, src.leftWidth, src.leftCols); err != nil {
		return err
	}
	if c.r, nr, err = drain(c.right, src.width-src.leftWidth, src.rightCols); err != nil {
		return err
	}
	build, nb, np := "right", nr, nl
	if nl < nr {
		// build on the left input, probe in right-row order, then back into
		// left-row order
		build, nb, np = "left", nl, nr
		table := vec.NewJoinTable(c.l, src.leftKeys, nl)
		c.rix, c.lix = table.Probe(c.r, src.rightKeys, nr, nil, nil)
		c.lix, c.rix = vec.SortPairs(c.lix, c.rix, nl)
	} else {
		table := vec.NewJoinTable(c.r, src.rightKeys, nr)
		c.lix, c.rix = table.Probe(c.l, src.leftKeys, nl, nil, nil)
	}
	c.stats.buildRows, c.stats.probeRows = int64(nb), int64(np)
	if notes := c.ec.sess.analyzeNotes; notes != nil {
		*notes = append(*notes, fmt.Sprintf("Vectorized Hash Join (%s): built on the %s input, %d rows; probed with %d rows; %d matches",
			src.keyText, build, nb, np, len(c.lix)))
	}
	return nil
}

func (c *joinCursor) next() ([]vec.Vector, int, vec.Sel, bool, error) {
	if !c.joined {
		c.joined = true
		if err := c.join(); err != nil {
			return nil, 0, nil, false, err
		}
	}
	src := c.src
	for len(c.lix) > 0 {
		n := min(joinBatch, len(c.lix))
		chunk := make([]vec.Vector, src.width)
		for _, col := range src.leftOut {
			chunk[col].AppendRows(&c.l[col], c.lix[:n])
		}
		for _, col := range src.rightOut {
			chunk[src.leftWidth+col].AppendRows(&c.r[col], c.rix[:n])
		}
		c.lix, c.rix = c.lix[n:], c.rix[n:]
		if sel := c.chain.apply(chunk); !none(sel) {
			return chunk, n, sel, true, nil
		}
	}
	return nil, 0, nil, false, nil
}

func (c *joinCursor) report(st *vecStats) {
	st.add(&c.stats)
	c.left.report(st)
	c.right.report(st)
}

// ---------------------------------------------------------------------------
// Planning

// vecSource builds the chunk source for plan node p, whose rows resolve in
// sc: a sequential scan of a base table, an INNER hash join of two such
// trees on columns of one groupable type, or a filter over either whose
// conjuncts compile to filter kernels. out are the column ordinals the
// consumer reads, derived the derived columns it reads past them, and extra
// the filters a filter node above p adds to p's. ok is false — the aggregate is
// then planned row at a time — for everything else: btree index and
// intermediate-result scans, subqueries, LEFT and nested-loop joins, keys that
// are expressions, conjuncts outside the kernels' subset, derived columns over
// anything but a heap table's own scan (a columnar table's chunks are views of
// its stripes, with nothing past their columns; a join's ordinals are two
// inputs' side by side), and a heap table under a SERIALIZABLE transaction,
// whose row-at-a-time scan checks every tuple version against concurrent
// writers.
func (s *Session) vecSource(p node, sc *scope, out map[int]bool, extra []vecFilterSpec, derived []*derivedExpr) (chunkSource, bool) {
	// heapScan is the source over a heap table's pages, or over the candidates
	// of a GIN search for pattern when gin is set.
	heapScan := func(st *storage, conjuncts []sql.Expr, gin *ginIndex, pattern expr.Evaluator) (chunkSource, bool) {
		filters, ok := compileVecFilters(conjuncts, sc)
		if !ok || s.ssiTracked() {
			return nil, false
		}
		filters = append(filters, extra...)
		read := filterColumns(filters, map[int]bool{})
		for _, d := range derived {
			read[d.base] = true
		}
		return &heapSource{st: st, filters: filters, out: sortedOrds(out), derived: derived,
			filterCols: sortedOrds(read), gin: gin, pattern: pattern}, true
	}
	switch x := p.(type) {
	case *filterNode:
		if x.conjuncts == nil {
			return nil, false
		}
		filters, ok := compileVecFilters(x.conjuncts, sc)
		if !ok {
			return nil, false
		}
		return s.vecSource(x.child, sc, out, append(filters, extra...), derived)
	case *scanNode:
		switch {
		case x.st.col == nil && x.path == nil:
			return heapScan(x.st, x.conjuncts, nil, nil)
		case x.st.col == nil && x.path.gin != nil:
			return heapScan(x.st, x.conjuncts, x.path.gin, x.path.ginPattern)
		case x.st.col == nil: // a B-tree's candidates
			return nil, false
		}
		filters, ok := compileVecFilters(x.conjuncts, sc)
		if !ok || len(derived) > 0 {
			return nil, false
		}
		filters = append(filters, extra...)
		return &columnarSource{st: x.st, filters: filters, load: sortedOrds(filterColumns(filters, out))}, true
	case *hashJoinNode:
		if x.joinType == sql.LeftJoin || x.leftSc == nil || len(derived) > 0 {
			return nil, false
		}
		residual, ok := compileVecFilters(x.residualX, sc)
		if !ok {
			return nil, false
		}
		j := &joinSource{residual: append(residual, extra...),
			leftWidth: len(x.leftSc.cols), width: len(sc.cols)}
		leftOut, rightOut := map[int]bool{}, map[int]bool{}
		for ord := range filterColumns(j.residual, out) {
			if ord < j.leftWidth {
				leftOut[ord] = true
			} else {
				rightOut[ord-j.leftWidth] = true
			}
		}
		j.leftOut, j.rightOut = sortedOrds(leftOut), sortedOrds(rightOut)
		keys := make([]string, len(x.leftKeyX))
		for i := range x.leftKeyX {
			lcr, lok := x.leftKeyX[i].(*sql.ColumnRef)
			rcr, rok := x.rightKeyX[i].(*sql.ColumnRef)
			if !lok || !rok {
				return nil, false
			}
			lord, ltyp, lerr := x.leftSc.Resolve(lcr.Table, lcr.Name)
			rord, rtyp, rerr := x.rightSc.Resolve(rcr.Table, rcr.Name)
			if lerr != nil || rerr != nil || ltyp != rtyp || !vecGroupable(ltyp) {
				return nil, false
			}
			j.leftKeys, j.rightKeys = append(j.leftKeys, lord), append(j.rightKeys, rord)
			leftOut[lord], rightOut[rord] = true, true
			keys[i] = lcr.String() + " = " + rcr.String()
		}
		j.keyText = strings.Join(keys, " AND ")
		j.leftCols, j.rightCols = sortedOrds(leftOut), sortedOrds(rightOut)
		if j.left, ok = s.vecSource(x.left, x.leftSc, leftOut, nil, nil); !ok {
			return nil, false
		}
		if j.right, ok = s.vecSource(x.right, x.rightSc, rightOut, nil, nil); !ok {
			return nil, false
		}
		return j, true
	}
	return nil, false
}

func compileVecFilters(conjuncts []sql.Expr, sc *scope) ([]vecFilterSpec, bool) {
	filters := make([]vecFilterSpec, 0, len(conjuncts))
	for _, c := range conjuncts {
		spec, ok := compileVecFilter(c, sc)
		if !ok {
			return nil, false
		}
		filters = append(filters, spec)
	}
	return filters, true
}

// filterColumns adds the columns the filters read to cols, and returns it.
func filterColumns(filters []vecFilterSpec, cols map[int]bool) map[int]bool {
	for i := range filters {
		if len(filters[i].or) == 0 {
			cols[filters[i].col] = true
		}
		for j := range filters[i].or {
			cols[filters[i].or[j].col] = true
		}
	}
	return cols
}

func sortedOrds(set map[int]bool) []int {
	ords := make([]int, 0, len(set))
	for ord := range set {
		ords = append(ords, ord)
	}
	slices.Sort(ords) // deterministic I/O order
	return ords
}
