package engine

import (
	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// accessPath is the planner's choice of how to read a table; nil reads every
// page (storage.read).
type accessPath struct {
	idx              *btreeIndex
	eqKey            []expr.Evaluator
	rangeLo, rangeHi expr.Evaluator
	loIncl, hiIncl   bool

	gin        *ginIndex
	ginPattern expr.Evaluator // bound when the scan opens
}

// isConstExpr reports whether e references no columns (it may reference
// parameters) and returns its evaluator, typed after the column it bounds
// exactly as the scan's recheck filter types it (expr.CompileAgainst), its
// value coerced as an index probe (probeKey).
func isConstExpr(e sql.Expr, colTyp types.Type) (expr.Evaluator, bool) {
	ev, err := expr.CompileAgainst(e, nil, colTyp)
	if err != nil {
		return nil, false
	}
	return probeKey(ev, colTyp), true
}

// probeKey types a string probing a B-tree the way PostgreSQL types an
// untyped literal: as the indexed column. The tree orders a bigint column's
// keys as numbers, and a '7' compared among them as text misses the 7 the
// recheck filter would accept. A string that does not parse stays a string;
// other kinds already compare with the column's as the filter compares them.
func probeKey(ev expr.Evaluator, colTyp types.Type) expr.Evaluator {
	switch colTyp {
	case types.Int, types.Float, types.Bool, types.Timestamp:
	default:
		return ev
	}
	return func(c *expr.Ctx) (types.Datum, error) {
		v, err := ev(c)
		if s, isStr := v.(string); isStr && err == nil {
			if typed, cerr := types.CoerceTo(s, colTyp); cerr == nil {
				return typed, nil
			}
		}
		return v, err
	}
}

// colBound is one "col <op> const" fact extracted from the WHERE clause.
type colBound struct {
	eq       expr.Evaluator
	lo, hi   expr.Evaluator
	loIncl   bool
	hiIncl   bool
	hasLo    bool
	hasHi    bool
	hasEqual bool
}

// chooseAccessPath inspects the conjuncts pushed into a scan and picks the
// best available index: longest equality prefix on a btree, else a range on
// a btree's first column, else a trigram GIN for %substring% patterns. It
// reads no parameter value — every key, bound and pattern is an evaluator the
// scan runs when it opens — so the path holds for any $n a later execution
// brings.
func (s *Session) chooseAccessPath(st *storage, conjuncts []sql.Expr, sc *scope) *accessPath {
	if st.col != nil || len(conjuncts) == 0 {
		return nil
	}

	// Extract per-column bounds.
	bounds := make(map[int]*colBound)
	getBound := func(ord int) *colBound {
		b, ok := bounds[ord]
		if !ok {
			b = &colBound{}
			bounds[ord] = b
		}
		return b
	}
	resolveCol := func(e sql.Expr) (int, types.Type, bool) {
		cr, ok := e.(*sql.ColumnRef)
		if !ok {
			return 0, 0, false
		}
		ord, typ, err := sc.Resolve(cr.Table, cr.Name)
		if err != nil {
			return 0, 0, false
		}
		return ord, typ, true
	}
	var likeConjuncts []*sql.LikeExpr
	for _, c := range conjuncts {
		switch n := c.(type) {
		case *sql.BinaryExpr:
			ord, typ, isCol := resolveCol(n.L)
			other := n.R
			op := n.Op
			if !isCol {
				if ord, typ, isCol = resolveCol(n.R); !isCol {
					continue
				}
				other = n.L
				// flip the comparison
				switch op {
				case sql.OpLt:
					op = sql.OpGt
				case sql.OpLe:
					op = sql.OpGe
				case sql.OpGt:
					op = sql.OpLt
				case sql.OpGe:
					op = sql.OpLe
				}
			}
			ev, isConst := isConstExpr(other, typ)
			if !isConst {
				continue
			}
			b := getBound(ord)
			switch op {
			case sql.OpEq:
				b.eq, b.hasEqual = ev, true
			case sql.OpLt:
				b.hi, b.hasHi, b.hiIncl = ev, true, false
			case sql.OpLe:
				b.hi, b.hasHi, b.hiIncl = ev, true, true
			case sql.OpGt:
				b.lo, b.hasLo, b.loIncl = ev, true, false
			case sql.OpGe:
				b.lo, b.hasLo, b.loIncl = ev, true, true
			}
		case *sql.BetweenExpr:
			if n.Not {
				continue
			}
			ord, typ, isCol := resolveCol(n.E)
			if !isCol {
				continue
			}
			loEv, ok1 := isConstExpr(n.Lo, typ)
			hiEv, ok2 := isConstExpr(n.Hi, typ)
			if !ok1 || !ok2 {
				continue
			}
			b := getBound(ord)
			b.lo, b.hasLo, b.loIncl = loEv, true, true
			b.hi, b.hasHi, b.hiIncl = hiEv, true, true
		case *sql.LikeExpr:
			if !n.Not {
				likeConjuncts = append(likeConjuncts, n)
			}
		}
	}

	st.mu.RLock()
	defer st.mu.RUnlock()

	// Best btree: longest equality prefix.
	var best *accessPath
	bestLen := 0
	for _, bidx := range st.btrees {
		ords, ok := indexColumnOrds(bidx, sc)
		if !ok {
			continue
		}
		var eqKey []expr.Evaluator
		for _, ord := range ords {
			b := bounds[ord]
			if b == nil || !b.hasEqual {
				break
			}
			eqKey = append(eqKey, b.eq)
		}
		if len(eqKey) > bestLen {
			best = &accessPath{idx: bidx, eqKey: eqKey}
			bestLen = len(eqKey)
		}
		if len(eqKey) == 0 && best == nil {
			if b := bounds[ords[0]]; b != nil && (b.hasLo || b.hasHi) {
				best = &accessPath{
					idx:     bidx,
					rangeLo: b.lo, rangeHi: b.hi,
					loIncl: b.loIncl, hiIncl: b.hiIncl,
				}
			}
		}
	}
	if best != nil {
		return best
	}

	// Trigram GIN for ILIKE/LIKE '%...%' on the indexed expression.
	for _, g := range st.gins {
		indexedText := g.def.Exprs[0].String()
		for _, lc := range likeConjuncts {
			if lc.E.String() != indexedText {
				continue
			}
			if patEv, isConst := isConstExpr(lc.Pattern, types.Unknown); isConst {
				return &accessPath{gin: g, ginPattern: patEv}
			}
		}
	}
	return nil
}

// indexColumnOrds maps a btree index's key expressions to column ordinals;
// ok=false when the index has non-column key expressions.
func indexColumnOrds(bidx *btreeIndex, sc *scope) ([]int, bool) {
	ords := make([]int, 0, len(bidx.def.Exprs))
	for _, e := range bidx.def.Exprs {
		cr, isCol := e.(*sql.ColumnRef)
		if !isCol {
			return nil, false
		}
		ord, _, err := sc.Resolve("", cr.Name)
		if err != nil {
			return nil, false
		}
		ords = append(ords, ord)
	}
	if len(ords) == 0 {
		return nil, false
	}
	return ords, true
}

// read executes path over st under ec's snapshot, for the scans, the
// targets of UPDATE, DELETE and SELECT … FOR UPDATE, and FK checks alike:
// every page when path is nil — a columnar table's stripes — else an index's
// candidates. It evaluates the path's key, bounds or pattern, takes the
// path's SIREAD lock, fetches the candidate versions, records each for SSI,
// and hands emit each one the snapshot sees, with its needed columns (nil:
// all) decoded, when it passes filter. A columnar row has no TID
// (heap.NilTID).
//
// The SIREAD locks: an equality search locks the searched key — phantom
// protection, an insert producing the key later collides although no tuple
// holds it yet; a prefix search is covered by the hash of the prefix — and
// each tuple it returns. Anything with wider phantom exposure (a range, a
// lossy GIN search, every page) locks the table; a range locks its tuples
// too, which the table lock covers.
func (st *storage) read(ec *execCtx, path *accessPath, needed []int, filter expr.Evaluator, emit func(tid heap.TID, row types.Row) error) error {
	id, mgr := st.table.ID, ec.sess.Eng.Txns
	if st.col != nil {
		ec.ssi.lockTable(id)
		var err error
		st.col.Scan(mgr, ec.snap, needed, func(row types.Row) bool {
			var ok bool
			if ok, err = ec.filterPasses(filter, row); ok {
				err = emit(heap.NilTID, row)
			}
			return err == nil
		})
		return err
	}
	var rows rowbatch.Arena
	lockTuples := false
	visit := func(tid heap.TID, tup heap.Tuple, visible bool) error {
		// a version the snapshot cannot see is still read around: its
		// concurrent writer is an rw-antidependency
		if err := ec.ssi.observeTuple(tup); err != nil || !visible {
			return err
		}
		if lockTuples {
			ec.ssi.lockTuple(id, tid)
		}
		row := rows.Decode(tup.Data, needed)
		if ok, err := ec.filterPasses(filter, row); err != nil || !ok {
			rows.Unread() // a row the filter drops gives its storage back
			return err
		}
		return emit(tid, row)
	}
	if path == nil || len(path.eqKey) == 0 {
		ec.ssi.lockTable(id)
	}
	var tids []heap.TID
	byIndex := path != nil
	switch {
	case path == nil:
	case path.gin != nil:
		tids, byIndex = searchGIN(ec, st, path.gin, path.ginPattern)
	case len(path.eqKey) > 0:
		key := make(index.Key, len(path.eqKey))
		for i, ev := range path.eqKey {
			v, err := ec.evalWith(ev, nil)
			if err != nil {
				return err
			}
			key[i] = v
		}
		if ec.ssi != nil { // the key's text is made only for a lock
			ec.ssi.lockIndexKey(id, path.idx.def.Name, indexKeyString(key))
		}
		tids, lockTuples = st.searchVersions(path.idx, key), true
	default:
		lo, err := boundKey(ec, path.rangeLo)
		if err != nil {
			return err
		}
		hi, err := boundKey(ec, path.rangeHi)
		if err != nil {
			return err
		}
		st.mu.RLock()
		path.idx.tree.Range(lo, hi, path.loIncl, path.hiIncl, func(roots []heap.TID) bool {
			tids = st.versions(tids, roots)
			return true
		})
		st.mu.RUnlock()
		lockTuples = true
	}
	if !byIndex {
		var err error
		st.heap.Scan(mgr, ec.snap, func(tid heap.TID, tup heap.Tuple, visible bool) bool {
			err = visit(tid, tup, visible)
			return err == nil
		})
		return err
	}
	for _, tid := range tids {
		if tup, ok := st.heap.Get(tid); ok {
			if err := visit(tid, tup, heap.Visible(mgr, ec.snap, tup)); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchGIN asks idx, an index of st, for the candidates of pattern,
// evaluated for this execution: the versions its entries stand for
// (storage.versions), which the caller's filter rechecks — a GIN is lossy,
// and the recheck of a version reached through a HOT link is the same.
// usable is false — the caller scans the pages instead — when the pattern is
// NULL, when it fails (the recheck filter evaluates the same pattern and
// reports the error at the first row), or when the index cannot search it.
func searchGIN(ec *execCtx, st *storage, idx *ginIndex, pattern expr.Evaluator) (candidates []heap.TID, usable bool) {
	p, err := ec.evalWith(pattern, nil)
	if err != nil || p == nil {
		return nil, false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if candidates, usable = idx.gin.Search(types.Format(p)); usable {
		candidates = st.versions(nil, candidates)
	}
	return candidates, usable
}

// boundKey evaluates one bound of a range path into a one-column key, nil
// when the range is open on that side.
func boundKey(ec *execCtx, ev expr.Evaluator) (index.Key, error) {
	if ev == nil {
		return nil, nil
	}
	v, err := ec.evalWith(ev, nil)
	return index.Key{v}, err
}
