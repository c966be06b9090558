package engine

import (
	"citusgo/internal/expr"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// accessPath is the planner's choice of how to read a table.
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
