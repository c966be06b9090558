package engine

import (
	"runtime"
	"strconv"
	"strings"
	"sync"

	"citusgo/internal/columnar"
	"citusgo/internal/expr"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// Vectorized-execution observability: the counter split these expose is
// asserted by ablation A5's bench smoke (vectorized variants must record
// batches, the row-at-a-time variant must not).
var (
	metVecQueries = obs.Default().Counter("columnar_vec_queries_total",
		"aggregate queries executed through the vectorized columnar path").With()
	metVecBatches = obs.Default().Counter("columnar_vec_batches_total",
		"column-chunk batches processed by vectorized kernels").With()
	metVecRows = obs.Default().Counter("columnar_vec_rows_total",
		"rows entering vectorized kernels (before filtering)").With()
	metVecStripesSkipped = obs.Default().Counter("columnar_vec_stripes_skipped_total",
		"stripes skipped via chunk min/max statistics without reading any chunk").With()
	metVecParallelScans = obs.Default().Counter("columnar_vec_parallel_scans_total",
		"vectorized scans that split stripes across a goroutine pool").With()
	metVecGroupBatches = obs.Default().Counter("columnar_vec_group_batches_total",
		"column-chunk batches folded through the group-ID vector path").With()
	metVecTopNBoundRows = obs.Default().Counter("columnar_vec_topn_bound_rows_total",
		"rows a pushed-down TopN bound cut from the grouped scan before group encoding").With()
	metVecTopNBoundStripes = obs.Default().Counter("columnar_vec_topn_bound_stripes_total",
		"stripes a pushed-down TopN bound skipped via chunk min/max without reading any chunk").With()
	// the vectorized path's work outside columnar storage, under names of its
	// own: the columnar_vec_* counters keep meaning columnar stripes
	metHeapVecBatches = obs.Default().Counter("heap_vec_batches_total",
		"batches of heap pages read as typed vectors by vectorized aggregates").With()
	metHeapVecRows = obs.Default().Counter("heap_vec_rows_total",
		"visible heap rows entering vectorized kernels (before filtering)").With()
	metVecJoinBuildRows = obs.Default().Counter("vec_join_build_rows_total",
		"rows vectorized hash joins built their tables on (the smaller input)").With()
	metVecJoinProbeRows = obs.Default().Counter("vec_join_probe_rows_total",
		"rows vectorized hash joins probed with (the larger input)").With()
	metGinVecCandidates = obs.Default().Counter("gin_vec_candidates_total",
		"candidate tuples of GIN searches fetched in batches by vectorized aggregates").With()
	metGinVecRows = obs.Default().Counter("gin_vec_rows_total",
		"GIN candidates that were visible and passed the recheck of a vectorized aggregate").With()
)

// vecTopNBoundMaxK caps the k a TopN bound is pushed down for: the bound
// keeps its k best keys in a sorted array, so a new key costs O(k) to
// place, and a bound that wide cuts little anyway.
const vecTopNBoundMaxK = 1024

// vecFilterSpec is one compiled WHERE conjunct: a column compared against
// a constant expression, an OR chain of such comparisons (or is non-empty),
// or a text-valued derived expression over column col matched against a
// constant pattern (like is set, k is the pattern). The constant sides are
// bound per execution (they may reference parameters), then handed to the
// typed vec.Filter kernels.
type vecFilterSpec struct {
	col      int
	op       vec.CmpOp
	between  bool
	nullTest bool // col IS [NOT] NULL
	notNull  bool
	k        expr.Evaluator // comparison constant, or LIKE pattern
	lo, hi   expr.Evaluator // BETWEEN bounds
	or       []vecFilterSpec
	like     *likeSpec
	text     string // for EXPLAIN
}

// boundFilter is one executable conjunct: a single column kernel, a
// disjunction of them, or a LIKE over a derived text. Bound filters are
// read-only during the scan and shared across the parallel scan goroutines.
type boundFilter struct {
	single vec.Filter
	or     *vec.OrFilter // nil unless the conjunct is an OR chain
	like   *boundLike    // nil unless the conjunct is a LIKE
}

// filterScratch is what the kernels of one filter chain write into.
type filterScratch struct {
	or   vec.OrScratch
	text []byte // the text of the row a LIKE is looking at
}

func (f *boundFilter) apply(chunk []vec.Vector, sel vec.Sel, out vec.Sel, sc *filterScratch) vec.Sel {
	switch {
	case f.or != nil:
		return f.or.Apply(chunk, sel, out, &sc.or)
	case f.like != nil:
		return f.like.apply(chunk, sel, out, sc)
	}
	return f.single.Apply(&chunk[f.single.Col], sel, out)
}

// skip reports whether the stripe's chunk statistics prove no row passes.
func (f *boundFilter) skip(view columnar.StripeView) bool {
	if f.like != nil {
		return false
	}
	if f.or != nil {
		return f.or.Skip(func(col int) (types.Datum, types.Datum, bool) {
			return view.Stats(col)
		})
	}
	min, max, ok := view.Stats(f.single.Col)
	return f.single.Skip(min, max, ok)
}

func (f *vecFilterSpec) bind(ec *execCtx) (boundFilter, error) {
	if f.like != nil {
		p, err := ec.evalWith(f.k, nil)
		if err != nil {
			return boundFilter{}, err
		}
		l := &boundLike{d: f.like.d, never: p == nil}
		if p != nil {
			pat := expr.CompileLike(types.Format(p), f.like.ilike)
			l.f = vec.LikeFilter{M: &pat, Not: f.like.not}
		}
		return boundFilter{like: l}, nil
	}
	if len(f.or) > 0 {
		of := &vec.OrFilter{Branches: make([]vec.Filter, len(f.or))}
		for i := range f.or {
			b, err := f.or[i].bindSingle(ec)
			if err != nil {
				return boundFilter{}, err
			}
			of.Branches[i] = b
		}
		return boundFilter{or: of}, nil
	}
	single, err := f.bindSingle(ec)
	return boundFilter{single: single}, err
}

func (f *vecFilterSpec) bindSingle(ec *execCtx) (vec.Filter, error) {
	out := vec.Filter{Col: f.col, Op: f.op, Between: f.between,
		NullTest: f.nullTest, NotNull: f.notNull}
	var err error
	if f.nullTest {
		return out, nil
	}
	if f.between {
		if out.Lo, err = ec.evalWith(f.lo, nil); err != nil {
			return out, err
		}
		out.Hi, err = ec.evalWith(f.hi, nil)
		return out, err
	}
	out.K, err = ec.evalWith(f.k, nil)
	return out, err
}

// numSpec mirrors a vec.NumExpr with unresolved constants; bind rebuilds
// the typed tree per execution so a float parameter correctly promotes the
// whole expression, exactly like the row evaluator's per-value promotion.
type numSpec struct {
	isConst bool
	constEv expr.Evaluator
	col     int
	isFloat bool
	isBin   bool
	op      vec.ArithOp
	l, r    *numSpec
}

func (n *numSpec) bind(ec *execCtx) (*vec.NumExpr, error) {
	switch {
	case n.isConst:
		v, err := ec.evalWith(n.constEv, nil)
		if err != nil {
			return nil, err
		}
		return vec.Const(v)
	case n.isBin:
		l, err := n.l.bind(ec)
		if err != nil {
			return nil, err
		}
		r, err := n.r.bind(ec)
		if err != nil {
			return nil, err
		}
		return vec.Bin(n.op, l, r), nil
	default:
		return vec.Column(n.col, n.isFloat), nil
	}
}

// canFail reports whether evaluating the expression can fail on some rows
// and not others: only division and modulo do (by zero).
func (n *numSpec) canFail() bool {
	return n.isBin && (n.op == vec.Div || n.op == vec.Mod || n.l.canFail() || n.r.canFail())
}

// vecAggSpec is one aggregate call of the vectorized node.
type vecAggSpec struct {
	kind   vec.AggKind
	star   bool
	colOrd int      // bare-column argument ordinal; -1 when num is set
	num    *numSpec // computed numeric argument
}

// vecAggNode executes scan→filter→partial-aggregate with vectorized kernels:
// its chunk source (vec_source.go) yields filtered column chunks — the stripes
// of a columnar table, batches of a heap's pages, or the matches of a hash
// join of such — and one fold loop turns each chunk's key columns into a
// group-ID vector and folds the aggregate arguments into typed per-group
// arrays. A source that splits its scan gives every range a goroutine and a
// partial of its own; the partials are merged in scan order.
//
// The node is a drop-in replacement for seqScan→filter→aggNode: it emits
// the identical __grpN/__aggN row layout, so HAVING, projection and ORDER
// BY above it are untouched.
type vecAggNode struct {
	src       chunkSource
	label     string // what the vec_scan trace span says was scanned
	columnar  bool   // a scan below is columnar: the execution counts in columnar_vec_queries_total
	groupOrds []int
	aggs      []vecAggSpec
	cols      []string // __grp0..N ++ __agg0..M
	// derivedKeys are the group keys that are derived columns, as SQL: what
	// EXPLAIN says the scan below computes
	derivedKeys []string
}

// vecTopN is the topNNode above a grouped vecAggNode, as far as a columnar
// scan can use it: the first ORDER BY key is the group column at table
// ordinal col, and only limit+offset groups survive. Each of the scan's
// cursors turns it into a vec.TopNBound.
type vecTopN struct {
	col           int
	desc          bool
	limit, offset expr.Evaluator
}

// k evaluates limit+offset; 0 means the scan runs unbounded (no LIMIT
// value, LIMIT 0, or more than vecTopNBoundMaxK).
func (t *vecTopN) k(c *expr.Ctx) (int, error) {
	limit, offset, err := evalLimitOffset(c, t.limit, t.offset)
	if err != nil || limit < 0 || limit+offset > vecTopNBoundMaxK {
		return 0, err
	}
	return int(limit + offset), nil
}

// pushTopN offers the node the TopN stacked directly above it (no HAVING,
// no DISTINCT in between, so every group is exactly one TopN input row)
// whose first sort key is group column ord. Only a columnar scan directly
// under the aggregate takes it: the bound skips stripes by their statistics,
// and its counters say so. A float key is declined: it can hold NaN, which
// types.Compare ties with every value, and no bound is exact under such an
// order. So is an aggregate argument that can fail (sum(a/b)): the bound
// cuts rows before the arguments are evaluated, and a division by zero in a
// cut row must still fail the query, as it does unbounded and row-at-a-time.
func (n *vecAggNode) pushTopN(ord int, desc bool, limit, offset expr.Evaluator) {
	scan, ok := n.src.(*columnarSource)
	col := n.groupOrds[ord]
	if !ok || scan.st.table.Columns[col].Type == types.Float {
		return
	}
	for _, a := range n.aggs {
		if a.num != nil && a.num.canFail() {
			return
		}
	}
	scan.topn = &vecTopN{col: col, desc: desc, limit: limit, offset: offset}
}

func (n *vecAggNode) columns() []string { return n.cols }

func (n *vecAggNode) explain(indent string) []string {
	kind := "Vectorized HashAggregate"
	if len(n.groupOrds) == 0 {
		kind = "Vectorized Aggregate"
	}
	if len(n.derivedKeys) > 0 {
		kind += " (derived keys: " + strings.Join(n.derivedKeys, ", ") + ")"
	}
	return append([]string{indent + kind}, n.src.explain(indent+"  ")...)
}

// vecPartial is one fold goroutine's private accumulation state: one typed
// per-group accumulator per aggregate and, for a grouped query, a private
// group dictionary; the cross-partial merge re-interns representative keys
// into the first partial's dictionary. Without GROUP BY there is no
// dictionary and no ID vector: every row folds into group 0.
type vecPartial struct {
	dict    *vec.GroupDict // nil when the query has no GROUP BY
	gaggs   []*vec.GroupedAgg
	ids     []uint32 // per-chunk group-ID vector scratch
	scratch vec.Scratch
	chunks  int64 // chunks folded
}

// groups is the number of groups the partial holds: the one of a query
// without GROUP BY, or its dictionary's.
func (p *vecPartial) groups() int {
	if p.dict == nil {
		return 1
	}
	return p.dict.NumGroups()
}

func (n *vecAggNode) newPartial() *vecPartial {
	p := &vecPartial{}
	p.gaggs = make([]*vec.GroupedAgg, len(n.aggs))
	for i, a := range n.aggs {
		p.gaggs[i] = vec.NewGroupedAgg(a.kind)
	}
	if len(n.groupOrds) == 0 {
		for _, g := range p.gaggs {
			g.Grow(1)
		}
		return p
	}
	p.dict = vec.NewGroupDict()
	return p
}

// fold drains one cursor into the partial.
func (n *vecAggNode) fold(p *vecPartial, cur chunkCursor, nums []*vec.NumExpr) error {
	for {
		chunk, nrows, sel, ok, err := cur.next()
		if err != nil || !ok {
			return err
		}
		p.chunks++

		// grouped fold: turn the key columns into a group-ID vector, then
		// batch-fold each aggregate by ID into its typed per-group arrays — no
		// per-row map probe, no interface-keyed lookup. Without GROUP BY the ID
		// vector stays nil: one group.
		var ids []uint32
		if p.dict != nil {
			p.ids = p.dict.Encode(chunk, n.groupOrds, sel, nrows, p.ids)
			ids = p.ids
			for _, g := range p.gaggs {
				g.Grow(p.dict.NumGroups())
			}
		}
		p.scratch.Reset()
		for ai, a := range n.aggs {
			switch {
			case a.star:
				cnt := nrows
				if sel != nil {
					cnt = len(sel)
				}
				p.gaggs[ai].AddStar(ids, cnt)
			case a.num != nil:
				v, err := nums[ai].Eval(chunk, nrows, sel, &p.scratch)
				if err != nil {
					return err
				}
				p.gaggs[ai].AddVec(&v, ids)
			default:
				if err := p.gaggs[ai].AddCol(&chunk[a.colOrd], sel, ids); err != nil {
					return err
				}
			}
		}
	}
}

func (n *vecAggNode) run(ec *execCtx, emit func(types.Row) error) error {
	eng := ec.sess.Eng
	if n.columnar {
		metVecQueries.Add(1)
	}

	// bind per-execution constants (parameters, casts)
	nums := make([]*vec.NumExpr, len(n.aggs))
	for ai, a := range n.aggs {
		if a.num != nil {
			ne, err := a.num.bind(ec)
			if err != nil {
				return err
			}
			nums[ai] = ne
		}
	}

	cursors, err := n.src.open(ec, eng.vecParallelism())
	if err != nil {
		return err
	}
	partials := make([]*vecPartial, len(cursors))
	for w := range partials {
		partials[w] = n.newPartial()
	}
	if len(cursors) == 1 {
		if err := n.fold(partials[0], cursors[0], nums); err != nil {
			return err
		}
	} else {
		metVecParallelScans.Add(1)
		// nums is shared: a vec.NumExpr is read-only during Eval, and the
		// scratch it evaluates into is the partial's
		errs := make([]error, len(cursors))
		var wg sync.WaitGroup
		for w := range cursors {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = n.fold(partials[w], cursors[w], nums)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}

	var st vecStats
	var chunks int64
	for w, cur := range cursors {
		cur.report(&st)
		chunks += partials[w].chunks
	}
	// every chunk a grouped fold takes goes through the group-ID path; the
	// counter is the columnar scan's, like the other columnar_vec_* ones
	groupBatches := int64(0)
	if _, ok := n.src.(*columnarSource); ok && len(n.groupOrds) > 0 {
		groupBatches = chunks
	}
	metVecBatches.Add(st.batches)
	metVecRows.Add(st.rows)
	metVecStripesSkipped.Add(st.stripesSkipped)
	metVecGroupBatches.Add(groupBatches)
	metVecTopNBoundRows.Add(st.boundRows)
	metVecTopNBoundStripes.Add(st.boundStripes)
	metHeapVecBatches.Add(st.heapBatches)
	metHeapVecRows.Add(st.heapRows)
	metVecJoinBuildRows.Add(st.buildRows)
	metVecJoinProbeRows.Add(st.probeRows)
	metGinVecCandidates.Add(st.ginCandidates)
	metGinVecRows.Add(st.ginRows)

	// merge partials in scan order: the first partial's dictionary keeps
	// the sequential first-seen order, and later partials re-intern their
	// representative keys so their IDs map onto the merged slots. Without
	// GROUP BY every partial's one group maps onto the one group.
	merged := partials[0]
	for _, p := range partials[1:] {
		idMap := []uint32{0}
		if merged.dict != nil {
			idMap = make([]uint32, p.dict.NumGroups())
			for g := range idMap {
				idMap[g] = merged.dict.Intern(p.dict.Key(uint32(g)))
			}
		}
		for ai := range merged.gaggs {
			merged.gaggs[ai].Grow(merged.groups())
			merged.gaggs[ai].MergeFrom(p.gaggs[ai], idMap)
		}
	}

	if tr := eng.Tracer; tr != nil && ec.sess.TraceID != 0 {
		sp := tr.StartSpan(ec.sess.TraceID, ec.sess.SpanID, "vec_scan", n.label)
		if sp != nil {
			sp.SetAttr("batches", strconv.FormatInt(st.batches+st.heapBatches, 10))
			sp.SetAttr("rows", strconv.FormatInt(st.rows+st.heapRows+st.ginCandidates, 10))
			sp.SetAttr("stripes_skipped", strconv.FormatInt(st.stripesSkipped, 10))
			sp.SetAttr("parallelism", strconv.Itoa(len(cursors)))
			groups := 0 // none without GROUP BY
			if merged.dict != nil {
				groups = merged.groups()
			}
			sp.SetAttr("groups", strconv.Itoa(groups))
			sp.SetAttr("group_batches", strconv.FormatInt(groupBatches, 10))
			sp.SetAttr("bound_rows", strconv.FormatInt(st.boundRows, 10))
			sp.SetAttr("join_build_rows", strconv.FormatInt(st.buildRows, 10))
			sp.SetAttr("join_probe_rows", strconv.FormatInt(st.probeRows, 10))
			sp.Finish()
		}
	}

	for id := uint32(0); id < uint32(merged.groups()); id++ {
		out := make(types.Row, 0, len(n.groupOrds)+len(n.aggs))
		if merged.dict != nil {
			out = append(out, merged.dict.Key(id)...)
		}
		for _, g := range merged.gaggs {
			out = append(out, g.Result(id))
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Planning

// vecParallelism returns the intra-worker parallel chunk-scan degree.
func (e *Engine) vecParallelism() int {
	if n := e.Features().VecParallelism; n > 0 {
		return n
	}
	return min(runtime.GOMAXPROCS(0), 4)
}

func cmpOpOf(op sql.BinOp) (vec.CmpOp, bool) {
	switch op {
	case sql.OpEq:
		return vec.Eq, true
	case sql.OpNe:
		return vec.Ne, true
	case sql.OpLt:
		return vec.Lt, true
	case sql.OpLe:
		return vec.Le, true
	case sql.OpGt:
		return vec.Gt, true
	case sql.OpGe:
		return vec.Ge, true
	}
	return 0, false
}

// flipCmp mirrors an operator across the comparison (5 > x  ≡  x < 5).
func flipCmp(op vec.CmpOp) vec.CmpOp {
	switch op {
	case vec.Lt:
		return vec.Gt
	case vec.Le:
		return vec.Ge
	case vec.Gt:
		return vec.Lt
	case vec.Ge:
		return vec.Le
	}
	return op // Eq, Ne are symmetric
}

// splitDisjuncts flattens nested OR chains into a branch list.
func splitDisjuncts(e sql.Expr, out []sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == sql.OpOr {
		out = splitDisjuncts(b.L, out)
		return splitDisjuncts(b.R, out)
	}
	return append(out, e)
}

// compileVecFilter compiles one WHERE conjunct into a column-vs-constant
// filter spec — or, for an OR chain whose every disjunct is itself a
// col-vs-const shape, into a selection-vector union spec, or, for a LIKE
// over a text-valued derived expression (vec_derived.go), into a match of the
// text each row has for it. Anything else — a LIKE over a plain column or
// inside an OR chain too — reports that the conjunct needs the row path.
func compileVecFilter(e sql.Expr, sc *scope) (vecFilterSpec, bool) {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == sql.OpOr {
		disjuncts := splitDisjuncts(e, nil)
		branches := make([]vecFilterSpec, 0, len(disjuncts))
		parts := make([]string, 0, len(disjuncts))
		for _, d := range disjuncts {
			spec, okB := compileVecFilter(d, sc)
			if !okB || len(spec.or) > 0 || spec.like != nil {
				return vecFilterSpec{}, false
			}
			branches = append(branches, spec)
			parts = append(parts, spec.text)
		}
		return vecFilterSpec{or: branches,
			text: "(" + strings.Join(parts, " OR ") + ")"}, true
	}
	return compileVecFilterSingle(e, sc)
}

// The constant sides compile through expr.CompileAgainst, the rule the row
// evaluator applies to the same comparison, so a string literal against a
// timestamp column reaches the kernels as a time on both paths.
func compileVecFilterSingle(e sql.Expr, sc *scope) (vecFilterSpec, bool) {
	resolveCol := func(x sql.Expr) (int, types.Type, bool) {
		cr, ok := x.(*sql.ColumnRef)
		if !ok {
			return 0, 0, false
		}
		idx, typ, err := sc.Resolve(cr.Table, cr.Name)
		if err != nil {
			return 0, 0, false
		}
		return idx, typ, true
	}
	switch b := e.(type) {
	case *sql.BinaryExpr:
		op, ok := cmpOpOf(b.Op)
		if !ok {
			return vecFilterSpec{}, false
		}
		if ord, typ, isCol := resolveCol(b.L); isCol && expr.RowFree(b.R) {
			ev, err := expr.CompileAgainst(b.R, nil, typ)
			if err != nil {
				return vecFilterSpec{}, false
			}
			return vecFilterSpec{col: ord, op: op, k: ev, text: e.String()}, true
		}
		if ord, typ, isCol := resolveCol(b.R); isCol && expr.RowFree(b.L) {
			ev, err := expr.CompileAgainst(b.L, nil, typ)
			if err != nil {
				return vecFilterSpec{}, false
			}
			return vecFilterSpec{col: ord, op: flipCmp(op), k: ev, text: e.String()}, true
		}
	case *sql.IsNullExpr:
		ord, _, isCol := resolveCol(b.E)
		if !isCol {
			return vecFilterSpec{}, false
		}
		return vecFilterSpec{col: ord, nullTest: true, notNull: b.Not, text: e.String()}, true
	case *sql.BetweenExpr:
		if b.Not {
			return vecFilterSpec{}, false
		}
		ord, typ, isCol := resolveCol(b.E)
		if !isCol || !expr.RowFree(b.Lo) || !expr.RowFree(b.Hi) {
			return vecFilterSpec{}, false
		}
		loEv, err := expr.CompileAgainst(b.Lo, nil, typ)
		if err != nil {
			return vecFilterSpec{}, false
		}
		hiEv, err := expr.CompileAgainst(b.Hi, nil, typ)
		if err != nil {
			return vecFilterSpec{}, false
		}
		return vecFilterSpec{col: ord, between: true, lo: loEv, hi: hiEv, text: e.String()}, true
	case *sql.LikeExpr:
		d, ok := compileDerived(b.E, sc)
		if !ok || !d.textValued() || !expr.RowFree(b.Pattern) {
			return vecFilterSpec{}, false
		}
		pat, err := expr.Compile(b.Pattern, nil)
		if err != nil {
			return vecFilterSpec{}, false
		}
		return vecFilterSpec{col: d.base, k: pat, like: &likeSpec{d: d, ilike: b.ILike, not: b.Not}, text: e.String()}, true
	}
	return vecFilterSpec{}, false
}

// columnResolver resolves an expression that is a column of the chunk — a
// plain column, or a derived one (vec_derived.go) — to its ordinal and type.
type columnResolver func(e sql.Expr) (ord int, typ types.Type, ok bool)

// compileNumSpec compiles a numeric aggregate argument into a vectorized
// expression spec: a leaf is a column declared Int or Float or a derived
// column of one of those types, constant subtrees bind per execution,
// operators are + - * / % with expr.arith semantics.
func compileNumSpec(e sql.Expr, column columnResolver) (*numSpec, bool) {
	if expr.RowFree(e) {
		ev, err := expr.Compile(e, nil)
		if err != nil {
			return nil, false
		}
		return &numSpec{isConst: true, constEv: ev}, true
	}
	switch x := e.(type) {
	case *sql.ColumnRef, *sql.CastExpr, *sql.FuncCall:
		ord, typ, ok := column(e)
		return &numSpec{col: ord, isFloat: typ == types.Float}, ok && (typ == types.Int || typ == types.Float)
	case *sql.UnaryExpr:
		if x.Op != "-" {
			return nil, false
		}
		inner, ok := compileNumSpec(x.E, column)
		if !ok {
			return nil, false
		}
		zero, _ := expr.Compile(&sql.Literal{Value: int64(0)}, nil)
		return &numSpec{isBin: true, op: vec.Sub, l: &numSpec{isConst: true, constEv: zero}, r: inner}, true
	case *sql.BinaryExpr:
		var op vec.ArithOp
		switch x.Op {
		case sql.OpAdd:
			op = vec.Add
		case sql.OpSub:
			op = vec.Sub
		case sql.OpMul:
			op = vec.Mul
		case sql.OpDiv:
			op = vec.Div
		case sql.OpMod:
			op = vec.Mod
		default:
			return nil, false
		}
		l, ok := compileNumSpec(x.L, column)
		if !ok {
			return nil, false
		}
		r, ok := compileNumSpec(x.R, column)
		if !ok {
			return nil, false
		}
		return &numSpec{isBin: true, op: op, l: l, r: r}, true
	}
	return nil, false
}

// vecGroupable reports whether a column type can serve as a comparable
// map key in the vectorized hash aggregate.
func vecGroupable(t types.Type) bool {
	switch t {
	case types.Int, types.Float, types.Bool, types.Text, types.Timestamp, types.Date:
		return true
	}
	return false
}

// tryVectorizedAgg plans an aggregate through the vectorized path when its
// input is a tree the chunk sources cover (vecSource: sequential and GIN
// scans of base tables, columnar or heap, under INNER hash joins on plain
// columns) and every piece of the query is inside the kernels' subset. A
// group key or an aggregate argument is a plain column or a derived column
// (vec_derived.go), which the scan fills. It returns ok=false — leaving
// planning to the row-at-a-time buildAggNode — for everything else: IN
// predicates and LIKE over plain columns (or OR chains containing them),
// DISTINCT aggregates, non-numeric computed arguments, or a GROUP BY of any
// other expression.
func (s *Session) tryVectorizedAgg(input planned, groupBy []sql.Expr, rw *aggRewriter) (*vecAggNode, *scope, bool) {
	if s.Eng.Features().NoVectorized {
		return nil, nil, false
	}

	needed := map[int]bool{} // the plain columns read above the source
	ds := &derivedSet{sc: input.sc}
	// column resolves a key, a bare argument or a numeric expression's leaf
	column := func(e sql.Expr) (ord int, typ types.Type, ok bool) {
		if cr, isCol := e.(*sql.ColumnRef); isCol {
			idx, typ, err := input.sc.Resolve(cr.Table, cr.Name)
			if err != nil {
				return 0, 0, false
			}
			needed[idx] = true
			return idx, typ, true
		}
		d, ok := ds.column(e)
		if !ok {
			return 0, 0, false
		}
		return d.ord, d.typ, true
	}

	groupOrds := make([]int, len(groupBy))
	for i, g := range groupBy {
		ord, typ, ok := column(g)
		if !ok || !vecGroupable(typ) {
			return nil, nil, false
		}
		groupOrds[i] = ord
	}

	aggs := make([]vecAggSpec, 0, len(rw.aggCalls))
	for _, fc := range rw.aggCalls {
		if fc.Distinct {
			return nil, nil, false
		}
		kind, okK := vec.KindOf(strings.ToLower(fc.Name))
		if !okK {
			return nil, nil, false
		}
		spec := vecAggSpec{kind: kind, colOrd: -1}
		if fc.Star {
			spec.star = true
			aggs = append(aggs, spec)
			continue
		}
		if len(fc.Args) != 1 {
			return nil, nil, false
		}
		if ord, _, ok := column(fc.Args[0]); ok {
			spec.colOrd = ord
			aggs = append(aggs, spec)
			continue
		}
		num, okN := compileNumSpec(fc.Args[0], column)
		if !okN {
			return nil, nil, false
		}
		spec.num = num
		aggs = append(aggs, spec)
	}

	src, ok := s.vecSource(input.n, input.sc, needed, nil, ds.cols)
	if !ok {
		return nil, nil, false
	}

	aggScope := &scope{}
	cols := make([]string, 0, len(groupBy)+len(aggs))
	for i := range groupBy {
		aggScope.cols = append(aggScope.cols, scopeCol{name: rw.groupCol(i)})
		cols = append(cols, rw.groupCol(i))
	}
	for i := range aggs {
		aggScope.cols = append(aggScope.cols, scopeCol{name: rw.aggCol(i)})
		cols = append(cols, rw.aggCol(i))
	}

	n := &vecAggNode{src: src, groupOrds: groupOrds, aggs: aggs, cols: cols}
	for i, g := range groupBy {
		if groupOrds[i] >= len(input.sc.cols) {
			n.derivedKeys = append(n.derivedKeys, g.String())
		}
	}
	n.label, n.columnar = describeSource(src)
	return n, aggScope, true
}

// describeSource names a source for the trace span — its table, or the
// tables it joins — and reports whether any scan in it is columnar.
func describeSource(src chunkSource) (label string, columnar bool) {
	switch x := src.(type) {
	case *columnarSource:
		return x.st.table.Name, true
	case *heapSource:
		return x.st.table.Name, false
	case *joinSource:
		l, lc := describeSource(x.left)
		r, rc := describeSource(x.right)
		return l + " ⋈ " + r, lc || rc
	}
	return "", false
}
