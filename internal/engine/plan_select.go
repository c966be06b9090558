package engine

import (
	"cmp"
	"fmt"
	"strings"

	"citusgo/internal/expr"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// planSelect builds an executable plan for a SELECT statement. The plan
// reads no parameter value — its evaluators take them from the execution's
// context — so a statement cache entry may keep it for every later
// execution (cachedStmt).
func (s *Session) planSelect(sel *sql.SelectStmt) (Plan, error) {
	if fn := s.Eng.functionTarget(sel); fn != nil {
		all := *sel
		all.Columns, all.From = []sql.SelectItem{{Star: true}}, []sql.TableRef{fn}
		sel = &all
	}
	root, err := s.planSelectNode(sel)
	if err != nil {
		return nil, err
	}
	return &localPlan{root: root}, nil
}

// oneRowNode feeds FROM-less selects.
type oneRowNode struct{}

func (oneRowNode) columns() []string              { return nil }
func (oneRowNode) explain(indent string) []string { return []string{indent + "Result"} }
func (oneRowNode) run(ec *execCtx, emit func(types.Row) error) error {
	return emit(types.Row{})
}

// conjunctPool hands WHERE/ON conjuncts to the deepest plan node able to
// evaluate them (predicate pushdown). It also carries the query's
// referenced-column sets for projection pushdown into columnar scans.
type conjunctPool struct {
	items []sql.Expr
	used  []bool
	// needed maps range name -> referenced column names; a nil inner map
	// means "all columns" (SELECT * or unresolvable references).
	needed map[string]map[string]bool
}

// neededColumnsAll is the sentinel key for unqualified references, which
// conservatively apply to every range.
const neededColumnsAll = "*"

// collectNeededColumns walks the top-level expressions of a select and
// records which columns each range needs; SELECT * (or t.*) forces all.
func collectNeededColumns(sel *sql.SelectStmt) map[string]map[string]bool {
	needed := map[string]map[string]bool{}
	add := func(table, col string) {
		if table == "" {
			table = neededColumnsAll
		}
		set, ok := needed[table]
		if !ok || set == nil {
			if _, exists := needed[table]; exists {
				return // already "all"
			}
			set = map[string]bool{}
			needed[table] = set
		}
		set[col] = true
	}
	markAll := func(table string) {
		if table == "" {
			table = neededColumnsAll
		}
		needed[table] = nil
	}
	visitExpr := func(e sql.Expr) {
		expr.WalkExpr(e, func(x sql.Expr) bool {
			if cr, ok := x.(*sql.ColumnRef); ok {
				add(cr.Table, cr.Name)
			}
			return true
		})
	}
	for _, it := range sel.Columns {
		if it.Star {
			markAll(it.StarTable)
			continue
		}
		visitExpr(it.Expr)
	}
	visitExpr(sel.Where)
	for _, g := range sel.GroupBy {
		visitExpr(g)
	}
	visitExpr(sel.Having)
	for _, o := range sel.OrderBy {
		visitExpr(o.Expr)
	}
	var visitTR func(tr sql.TableRef)
	visitTR = func(tr sql.TableRef) {
		if j, ok := tr.(*sql.JoinRef); ok {
			visitTR(j.Left)
			visitTR(j.Right)
			visitExpr(j.On)
		}
	}
	for _, tr := range sel.From {
		visitTR(tr)
	}
	return needed
}

// neededFor resolves the ordinal set a scan must read, ascending; nil means
// all columns, and an empty set none (SELECT count(*) FROM t).
func (p *conjunctPool) neededFor(rangeName string, cols []scopeCol) []int {
	if p == nil || p.needed == nil {
		return nil
	}
	if set, ok := p.needed[neededColumnsAll]; ok && set == nil {
		return nil // SELECT * somewhere
	}
	ranged, rangedOK := p.needed[rangeName]
	if rangedOK && ranged == nil {
		return nil // t.*
	}
	unqual := p.needed[neededColumnsAll]
	out := []int{}
	for i, c := range cols {
		if (rangedOK && ranged[c.name]) || (unqual != nil && unqual[c.name]) {
			out = append(out, i)
		}
	}
	return out
}

func newPool(e sql.Expr) *conjunctPool {
	items := splitConjuncts(e)
	return &conjunctPool{items: items, used: make([]bool, len(items))}
}

// takeResolvable removes and returns all unused conjuncts whose columns all
// resolve within sc.
func (p *conjunctPool) takeResolvable(sc *scope) []sql.Expr {
	if p == nil {
		return nil
	}
	var taken []sql.Expr
	for i, c := range p.items {
		if p.used[i] {
			continue
		}
		if exprResolvesIn(c, sc) {
			p.used[i] = true
			taken = append(taken, c)
		}
	}
	return taken
}

// remaining returns the conjuncts nobody consumed.
func (p *conjunctPool) remaining() []sql.Expr {
	if p == nil {
		return nil
	}
	var rest []sql.Expr
	for i, c := range p.items {
		if !p.used[i] {
			rest = append(rest, c)
		}
	}
	return rest
}

// exprResolvesIn reports whether every column reference in e resolves in sc
// and e contains no aggregates (aggregates never push into scans).
func exprResolvesIn(e sql.Expr, sc *scope) bool {
	ok := true
	expr.WalkExpr(e, func(x sql.Expr) bool {
		switch n := x.(type) {
		case *sql.ColumnRef:
			if _, _, err := sc.Resolve(n.Table, n.Name); err != nil {
				ok = false
				return false
			}
		case *sql.FuncCall:
			if expr.IsAggregate(n.Name) {
				ok = false
				return false
			}
		case *sql.SubqueryExpr, *sql.ExistsExpr:
			// subqueries are evaluated via the session; they resolve only
			// against their own FROM, so they are location-independent
			return false
		}
		return true
	})
	return ok
}

// planned pairs a node with its name scope.
type planned struct {
	n  node
	sc *scope
}

func (s *Session) planSelectNode(sel *sql.SelectStmt) (node, error) {
	var cur planned
	pool := newPool(sel.Where)
	pool.needed = collectNeededColumns(sel)

	if len(sel.From) == 0 {
		cur = planned{n: oneRowNode{}, sc: &scope{}}
	} else {
		var err error
		cur, err = s.planTableRef(sel.From[0], pool)
		if err != nil {
			return nil, err
		}
		for _, tr := range sel.From[1:] {
			right, err := s.planTableRef(tr, pool)
			if err != nil {
				return nil, err
			}
			cur, err = s.buildJoin(sql.CrossJoin, cur, right, nil, pool)
			if err != nil {
				return nil, err
			}
		}
	}

	// Residual WHERE conjuncts that no scan consumed.
	if rest := pool.remaining(); len(rest) > 0 {
		pred, err := expr.Compile(andJoin(rest), cur.sc)
		if err != nil {
			return nil, err
		}
		cur = planned{n: &filterNode{child: cur.n, pred: pred, conjuncts: rest}, sc: cur.sc}
	}

	// Expand * / t.* into concrete select items.
	items, err := expandStars(sel.Columns, cur.sc)
	if err != nil {
		return nil, err
	}

	// Resolve positional / alias GROUP BY entries.
	groupBy, err := resolveGroupRefs(sel.GroupBy, items)
	if err != nil {
		return nil, err
	}

	hasAgg := len(groupBy) > 0
	for _, it := range items {
		if expr.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if sel.Having != nil && expr.ContainsAggregate(sel.Having) {
		hasAgg = true
	}

	projExprs := make([]sql.Expr, len(items))
	for i, it := range items {
		projExprs[i] = it.Expr
	}
	having := sel.Having
	orderExprs := make([]sql.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
	}

	var rw *aggRewriter
	var vecAgg *vecAggNode // the aggregate, when it runs vectorized
	if hasAgg {
		rw = newAggRewriter(groupBy)
		for i := range projExprs {
			projExprs[i] = rw.rewrite(projExprs[i])
		}
		if having != nil {
			having = rw.rewrite(having)
		}
		for i := range orderExprs {
			// positional/alias order-by entries are resolved later against
			// the projection; only rewrite real expressions
			if !isPositional(orderExprs[i]) {
				orderExprs[i] = rw.rewrite(orderExprs[i])
			}
		}
		// An eligible aggregate over sequential scans, or hash joins of them,
		// runs vectorized: batched filter kernels + partial-aggregate folds
		// over column chunks, with row-at-a-time fallback for everything else.
		if vecN, vecScope, okVec := s.tryVectorizedAgg(cur, groupBy, rw); okVec {
			vecAgg = vecN
			cur = planned{n: vecN, sc: vecScope}
		} else {
			aggN, aggScope, err := buildAggNode(cur, groupBy, rw)
			if err != nil {
				return nil, err
			}
			cur = planned{n: aggN, sc: aggScope}
		}
	}

	if having != nil {
		pred, err := expr.Compile(having, cur.sc)
		if err != nil {
			return nil, err
		}
		cur = planned{n: &filterNode{child: cur.n, pred: pred}, sc: cur.sc}
	}

	// Projection.
	outNames := make([]string, len(items))
	evals := make([]expr.Evaluator, len(items))
	for i := range items {
		outNames[i] = outputName(items[i])
		ev, err := expr.Compile(projExprs[i], cur.sc)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}

	// ORDER BY keys: resolve against the projection output, adding hidden
	// columns for expressions not in the select list.
	var keys []sortKey
	visible := len(items)
	for i, o := range sel.OrderBy {
		col, err := resolveOrderTarget(orderExprs[i], items, projExprs, outNames)
		if err != nil {
			return nil, err
		}
		if col == -1 {
			ev, cerr := expr.Compile(orderExprs[i], cur.sc)
			if cerr != nil {
				return nil, cerr
			}
			evals = append(evals, ev)
			outNames = append(outNames, fmt.Sprintf("__ord%d", i))
			col = len(evals) - 1
		}
		keys = append(keys, sortKey{col: col, desc: o.Desc})
	}
	hidden := len(evals) - visible

	if sel.Distinct && hidden > 0 {
		return nil, fmt.Errorf("for SELECT DISTINCT, ORDER BY expressions must appear in select list")
	}

	var out node = &projectNode{child: cur.n, evals: evals, cols: outNames}
	if sel.Distinct {
		out = &distinctNode{child: out}
	}
	var limEv, offEv expr.Evaluator
	if sel.Limit != nil {
		var err error
		if limEv, err = expr.Compile(sel.Limit, nil); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil {
		var err error
		if offEv, err = expr.Compile(sel.Offset, nil); err != nil {
			return nil, err
		}
	}
	if len(keys) > 0 && sel.Limit != nil {
		// ORDER BY + LIMIT fuses into a bounded TopN heap: only the
		// k = limit+offset best rows are retained, which on a Citus worker
		// is what keeps pushed-down grouped TopN shipments at O(k).
		if vecAgg != nil && having == nil && !sel.Distinct {
			// Ordered first by a group column, the TopN also bounds the
			// grouped scan below it: rows of groups that k better keys
			// already precede are cut before they are encoded.
			first := orderExprs[0]
			if keys[0].col < visible {
				first = projExprs[keys[0].col]
			}
			if ord, ok := rw.groupOrdinal(first); ok {
				vecAgg.pushTopN(ord, keys[0].desc, limEv, offEv)
			}
		}
		return &topNNode{child: out, keys: keys, trim: visible,
			limit: limEv, offset: offEv}, nil
	}
	if len(keys) > 0 {
		out = &sortNode{child: out, keys: keys, trim: visible}
	} else if hidden > 0 {
		out = &projectNode{child: out, evals: identityEvals(visible), cols: outNames[:visible]}
	}
	if sel.Limit != nil || sel.Offset != nil {
		out = &limitNode{child: out, limit: limEv, offset: offEv}
	}
	return out, nil
}

func identityEvals(n int) []expr.Evaluator {
	evals := make([]expr.Evaluator, n)
	for i := 0; i < n; i++ {
		idx := i
		evals[i] = func(c *expr.Ctx) (types.Datum, error) { return c.Row[idx], nil }
	}
	return evals
}

func isPositional(e sql.Expr) bool {
	if lit, ok := e.(*sql.Literal); ok {
		_, isInt := lit.Value.(int64)
		return isInt
	}
	return false
}

// resolveOrderTarget maps an ORDER BY expression to a projection column:
// positional, alias, or textual match; -1 means "not in the select list".
func resolveOrderTarget(e sql.Expr, items []sql.SelectItem, projExprs []sql.Expr, names []string) (int, error) {
	if lit, ok := e.(*sql.Literal); ok {
		if n, isInt := lit.Value.(int64); isInt {
			if n < 1 || int(n) > len(items) {
				return 0, fmt.Errorf("ORDER BY position %d is not in select list", n)
			}
			return int(n) - 1, nil
		}
	}
	if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
		for i := range items {
			if names[i] == cr.Name && items[i].Alias != "" {
				return i, nil
			}
		}
	}
	text := e.String()
	for i := range projExprs {
		if projExprs[i].String() == text {
			return i, nil
		}
	}
	return -1, nil
}

// resolveGroupRefs replaces positional (GROUP BY 1) and alias references
// with the corresponding select item expressions.
func resolveGroupRefs(groupBy []sql.Expr, items []sql.SelectItem) ([]sql.Expr, error) {
	out := make([]sql.Expr, len(groupBy))
	for i, g := range groupBy {
		if lit, ok := g.(*sql.Literal); ok {
			if n, isInt := lit.Value.(int64); isInt {
				if n < 1 || int(n) > len(items) {
					return nil, fmt.Errorf("GROUP BY position %d is not in select list", n)
				}
				out[i] = items[n-1].Expr
				continue
			}
		}
		if cr, ok := g.(*sql.ColumnRef); ok && cr.Table == "" {
			matched := false
			for _, it := range items {
				if it.Alias == cr.Name {
					out[i] = it.Expr
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		out[i] = g
	}
	return out, nil
}

func expandStars(items []sql.SelectItem, sc *scope) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range sc.cols {
			if strings.HasPrefix(c.name, "__") {
				continue
			}
			if it.StarTable != "" && c.table != it.StarTable {
				continue
			}
			out = append(out, sql.SelectItem{
				Expr: &sql.ColumnRef{Table: c.table, Name: c.name},
			})
			matched = true
		}
		if !matched {
			if it.StarTable != "" {
				return nil, fmt.Errorf("relation %q is not in the FROM clause", it.StarTable)
			}
			return nil, fmt.Errorf("SELECT * with no tables")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("select list is empty")
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// FROM planning

func (s *Session) planTableRef(tr sql.TableRef, pool *conjunctPool) (planned, error) {
	switch t := tr.(type) {
	case *sql.BaseTable:
		return s.planBaseTable(t, pool)
	case *sql.FuncRef:
		return s.planFunction(t, pool)
	case *sql.SubqueryRef:
		child, err := s.planSelectNode(t.Select)
		if err != nil {
			return planned{}, err
		}
		sc := &scope{}
		for _, name := range child.columns() {
			sc.cols = append(sc.cols, scopeCol{table: t.Alias, name: name})
		}
		// filter conjuncts that apply to the subquery output
		if taken := pool.takeResolvable(sc); len(taken) > 0 {
			pred, err := expr.Compile(andJoin(taken), sc)
			if err != nil {
				return planned{}, err
			}
			child = &filterNode{child: child, pred: pred}
		}
		return planned{n: &renameNode{child: child}, sc: sc}, nil
	case *sql.JoinRef:
		onPool := newPool(t.On)
		leftPool := pool
		if t.Type == sql.LeftJoin {
			// WHERE conjuncts must not push below the null-producing side,
			// and ON conjuncts on the outer side do not filter it
			left, err := s.planTableRef(t.Left, pool)
			if err != nil {
				return planned{}, err
			}
			right, err := s.planTableRef(t.Right, onPool)
			if err != nil {
				return planned{}, err
			}
			return s.buildJoin(t.Type, left, right, onPool, nil)
		}
		left, err := s.planTableRef(t.Left, leftPool)
		if err != nil {
			return planned{}, err
		}
		if taken := onPool.takeResolvable(left.sc); len(taken) > 0 {
			pred, err := expr.Compile(andJoin(taken), left.sc)
			if err != nil {
				return planned{}, err
			}
			left = planned{n: &filterNode{child: left.n, pred: pred, conjuncts: taken}, sc: left.sc}
		}
		right, err := s.planTableRef(t.Right, pool)
		if err != nil {
			return planned{}, err
		}
		if taken := onPool.takeResolvable(right.sc); len(taken) > 0 {
			pred, err := expr.Compile(andJoin(taken), right.sc)
			if err != nil {
				return planned{}, err
			}
			right = planned{n: &filterNode{child: right.n, pred: pred, conjuncts: taken}, sc: right.sc}
		}
		return s.buildJoin(t.Type, left, right, onPool, pool)
	}
	return planned{}, fmt.Errorf("unsupported FROM item %T", tr)
}

// renameNode is a pass-through that only exists to carry a subquery's
// column list.
type renameNode struct{ child node }

func (n *renameNode) columns() []string              { return n.child.columns() }
func (n *renameNode) explain(indent string) []string { return n.child.explain(indent) }
func (n *renameNode) run(ec *execCtx, emit func(types.Row) error) error {
	return n.child.run(ec, emit)
}

// planIntermediate plans the scan of rows a source makes when the plan
// runs, under the range name rangeName: an intermediate result's or a
// function's.
func planIntermediate(n *intermediateScanNode, rangeName string, pool *conjunctPool) (planned, error) {
	sc := &scope{}
	for _, name := range n.cols {
		sc.cols = append(sc.cols, scopeCol{table: rangeName, name: name})
	}
	if taken := pool.takeResolvable(sc); len(taken) > 0 {
		var err error
		if n.filter, err = expr.Compile(andJoin(taken), sc); err != nil {
			return planned{}, err
		}
	}
	return planned{n: n, sc: sc}, nil
}

// planFunction plans FROM fn(args): a scan that calls the function each time
// the plan runs, with that execution's parameters.
func (s *Session) planFunction(t *sql.FuncRef, pool *conjunctPool) (planned, error) {
	f, ok := s.Eng.function(t.Name)
	if !ok {
		return planned{}, fmt.Errorf("function %q does not exist", t.Name)
	}
	if f.Columns == nil {
		return planned{}, fmt.Errorf("%s is a procedure: run it with CALL", f.Name)
	}
	return planIntermediate(&intermediateScanNode{label: "Function Scan on " + f.Name, cols: f.Columns,
		source: func(ec *execCtx) ([]types.Row, error) {
			vals, err := f.args(t.Args, ec.eval)
			if err != nil {
				return nil, err
			}
			return f.Call(ec.sess, vals)
		}}, cmp.Or(t.Alias, t.Name), pool)
}

// functionTarget is the function a FROM-less SELECT names as its one
// target, SELECT fn(args), when fn is registered: the statement reads as
// SELECT * FROM fn(args). nil for any other statement.
func (e *Engine) functionTarget(sel *sql.SelectStmt) *sql.FuncRef {
	if len(sel.From) != 0 || len(sel.Columns) != 1 {
		return nil
	}
	fc, ok := sel.Columns[0].Expr.(*sql.FuncCall)
	if !ok || fc.Star || fc.Distinct {
		return nil
	}
	if _, ok := e.function(fc.Name); !ok {
		return nil
	}
	return &sql.FuncRef{Name: fc.Name, Args: fc.Args}
}

func (s *Session) planBaseTable(t *sql.BaseTable, pool *conjunctPool) (planned, error) {
	rangeName := t.RefName()
	st, ok := s.Eng.store(t.Name)
	if !ok {
		if ir, isIR := s.Eng.intermediateResult(t.Name); isIR {
			name := t.Name
			return planIntermediate(&intermediateScanNode{label: "Intermediate Result Scan on " + name, cols: ir.Columns,
				source: func(ec *execCtx) ([]types.Row, error) {
					ir, ok := ec.sess.Eng.intermediateResult(name)
					if !ok {
						return nil, fmt.Errorf("intermediate result %q does not exist", name)
					}
					return ir.Rows, nil
				}}, rangeName, pool)
		}
		return planned{}, fmt.Errorf("relation %q does not exist", t.Name)
	}

	baseCols := make([]scopeCol, len(st.table.Columns))
	for i, c := range st.table.Columns {
		baseCols[i] = scopeCol{name: c.Name, typ: c.Type}
	}
	sc := tableScope(rangeName, baseCols)

	taken := pool.takeResolvable(sc)
	var filter expr.Evaluator
	if len(taken) > 0 {
		var err error
		filter, err = expr.Compile(andJoin(taken), sc)
		if err != nil {
			return planned{}, err
		}
	}
	n := &scanNode{st: st, path: s.chooseAccessPath(st, taken, sc), cols: st.table.ColumnNames(),
		filter: filter, needed: pool.neededFor(rangeName, baseCols), conjuncts: taken}
	return planned{n: n, sc: sc}, nil
}

// buildJoin assembles a join node, preferring a hash join on equi-key ON
// conjuncts. wherePool (may be nil) lets join-level WHERE conjuncts that
// span both sides be absorbed here rather than in a filter above — in
// particular, comma-syntax joins ("FROM a, b WHERE a.x = b.y") pull their
// equi-join conjuncts out of WHERE so they become hash-join keys instead
// of a filter over a cross product.
func (s *Session) buildJoin(jt sql.JoinType, left, right planned, onPool, wherePool *conjunctPool) (planned, error) {
	combined := left.sc.concat(right.sc)
	var onConjuncts []sql.Expr
	if onPool != nil {
		onConjuncts = onPool.remaining()
		for i := range onPool.used {
			onPool.used[i] = true
		}
	}
	if jt != sql.LeftJoin && wherePool != nil {
		// adopt WHERE conjuncts that join the two sides with an equality
		for i, c := range wherePool.items {
			if wherePool.used[i] {
				continue
			}
			b, ok := c.(*sql.BinaryExpr)
			if !ok || b.Op != sql.OpEq {
				continue
			}
			joins := (exprResolvesIn(b.L, left.sc) && exprResolvesIn(b.R, right.sc) &&
				!exprResolvesIn(b.L, right.sc) && !exprResolvesIn(b.R, left.sc)) ||
				(exprResolvesIn(b.R, left.sc) && exprResolvesIn(b.L, right.sc) &&
					!exprResolvesIn(b.R, right.sc) && !exprResolvesIn(b.L, left.sc))
			if joins {
				wherePool.used[i] = true
				onConjuncts = append(onConjuncts, c)
			}
		}
	}

	// classify equi-join keys
	var leftKeys, rightKeys []expr.Evaluator
	var leftKeyX, rightKeyX, residual []sql.Expr
	for _, c := range onConjuncts {
		b, ok := c.(*sql.BinaryExpr)
		if ok && b.Op == sql.OpEq {
			switch {
			case exprResolvesIn(b.L, left.sc) && exprResolvesIn(b.R, right.sc):
				le, err := expr.Compile(b.L, left.sc)
				if err != nil {
					return planned{}, err
				}
				re, err := expr.Compile(b.R, right.sc)
				if err != nil {
					return planned{}, err
				}
				leftKeys = append(leftKeys, le)
				rightKeys = append(rightKeys, re)
				leftKeyX, rightKeyX = append(leftKeyX, b.L), append(rightKeyX, b.R)
				continue
			case exprResolvesIn(b.R, left.sc) && exprResolvesIn(b.L, right.sc):
				le, err := expr.Compile(b.R, left.sc)
				if err != nil {
					return planned{}, err
				}
				re, err := expr.Compile(b.L, right.sc)
				if err != nil {
					return planned{}, err
				}
				leftKeys = append(leftKeys, le)
				rightKeys = append(rightKeys, re)
				leftKeyX, rightKeyX = append(leftKeyX, b.R), append(rightKeyX, b.L)
				continue
			}
		}
		residual = append(residual, c)
	}

	cols := make([]string, 0, len(combined.cols))
	for _, c := range combined.cols {
		cols = append(cols, c.name)
	}
	rightWidth := len(right.sc.cols)

	var n node
	if len(leftKeys) > 0 {
		var residualEv expr.Evaluator
		if len(residual) > 0 {
			var err error
			residualEv, err = expr.Compile(andJoin(residual), combined)
			if err != nil {
				return planned{}, err
			}
		}
		n = &hashJoinNode{
			left: left.n, right: right.n,
			leftKeys: leftKeys, rightKeys: rightKeys,
			joinType: jt, residual: residualEv, cols: cols, rightWidth: rightWidth,
			leftSc: left.sc, rightSc: right.sc,
			leftKeyX: leftKeyX, rightKeyX: rightKeyX, residualX: residual,
		}
	} else {
		var onEv expr.Evaluator
		if len(residual) > 0 {
			var err error
			onEv, err = expr.Compile(andJoin(residual), combined)
			if err != nil {
				return planned{}, err
			}
		}
		n = &nlJoinNode{left: left.n, right: right.n, on: onEv, joinType: jt, cols: cols, rightWidth: rightWidth}
	}
	out := planned{n: n, sc: combined}

	// inner joins can absorb WHERE conjuncts spanning both sides
	if jt != sql.LeftJoin && wherePool != nil {
		if taken := wherePool.takeResolvable(combined); len(taken) > 0 {
			pred, err := expr.Compile(andJoin(taken), combined)
			if err != nil {
				return planned{}, err
			}
			out = planned{n: &filterNode{child: out.n, pred: pred, conjuncts: taken}, sc: combined}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Aggregation planning

// aggRewriter replaces grouping expressions and aggregate calls with
// references into the aggregation node's output row.
type aggRewriter struct {
	groupText []string
	aggText   []string
	aggCalls  []*sql.FuncCall
}

func newAggRewriter(groupBy []sql.Expr) *aggRewriter {
	rw := &aggRewriter{}
	for _, g := range groupBy {
		rw.groupText = append(rw.groupText, g.String())
	}
	return rw
}

func (rw *aggRewriter) groupCol(i int) string { return fmt.Sprintf("__grp%d", i) }
func (rw *aggRewriter) aggCol(i int) string   { return fmt.Sprintf("__agg%d", i) }

// groupOrdinal reports which grouping expression a rewritten expression is
// a bare reference to.
func (rw *aggRewriter) groupOrdinal(e sql.Expr) (int, bool) {
	cr, ok := e.(*sql.ColumnRef)
	if !ok || cr.Table != "" {
		return 0, false
	}
	for i := range rw.groupText {
		if cr.Name == rw.groupCol(i) {
			return i, true
		}
	}
	return 0, false
}

// rewrite returns a copy of e with group expressions and aggregates
// replaced by synthetic column references.
func (rw *aggRewriter) rewrite(e sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	text := e.String()
	for i, g := range rw.groupText {
		if g == text {
			return &sql.ColumnRef{Name: rw.groupCol(i)}
		}
	}
	if fc, ok := e.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
		for i, known := range rw.aggText {
			if known == text {
				return &sql.ColumnRef{Name: rw.aggCol(i)}
			}
		}
		rw.aggText = append(rw.aggText, text)
		rw.aggCalls = append(rw.aggCalls, fc)
		return &sql.ColumnRef{Name: rw.aggCol(len(rw.aggCalls) - 1)}
	}
	switch n := e.(type) {
	case *sql.BinaryExpr:
		return &sql.BinaryExpr{Op: n.Op, L: rw.rewrite(n.L), R: rw.rewrite(n.R)}
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: n.Op, E: rw.rewrite(n.E)}
	case *sql.FuncCall:
		args := make([]sql.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rw.rewrite(a)
		}
		return &sql.FuncCall{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Operand: rw.rewrite(n.Operand), Else: rw.rewrite(n.Else)}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, sql.CaseWhen{When: rw.rewrite(w.When), Then: rw.rewrite(w.Then)})
		}
		return out
	case *sql.InExpr:
		out := &sql.InExpr{E: rw.rewrite(n.E), Subquery: n.Subquery, Not: n.Not}
		for _, item := range n.List {
			out.List = append(out.List, rw.rewrite(item))
		}
		return out
	case *sql.BetweenExpr:
		return &sql.BetweenExpr{E: rw.rewrite(n.E), Lo: rw.rewrite(n.Lo), Hi: rw.rewrite(n.Hi), Not: n.Not}
	case *sql.LikeExpr:
		return &sql.LikeExpr{E: rw.rewrite(n.E), Pattern: rw.rewrite(n.Pattern), ILike: n.ILike, Not: n.Not}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{E: rw.rewrite(n.E), Not: n.Not}
	case *sql.CastExpr:
		return &sql.CastExpr{E: rw.rewrite(n.E), To: n.To}
	default:
		return e
	}
}

// buildAggNode compiles the aggregation node and its output scope.
func buildAggNode(input planned, groupBy []sql.Expr, rw *aggRewriter) (node, *scope, error) {
	groupEvals := make([]expr.Evaluator, len(groupBy))
	for i, g := range groupBy {
		ev, err := expr.Compile(g, input.sc)
		if err != nil {
			return nil, nil, err
		}
		groupEvals[i] = ev
	}
	aggScope := &scope{}
	cols := make([]string, 0, len(groupBy)+len(rw.aggCalls))
	for i := range groupBy {
		aggScope.cols = append(aggScope.cols, scopeCol{name: rw.groupCol(i)})
		cols = append(cols, rw.groupCol(i))
	}
	var aggs []aggSpec
	for i, fc := range rw.aggCalls {
		spec := aggSpec{name: strings.ToLower(fc.Name), distinct: fc.Distinct, star: fc.Star}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, fmt.Errorf("aggregate %s expects 1 argument", fc.Name)
			}
			ev, err := expr.Compile(fc.Args[0], input.sc)
			if err != nil {
				return nil, nil, err
			}
			spec.arg = ev
		}
		aggs = append(aggs, spec)
		aggScope.cols = append(aggScope.cols, scopeCol{name: rw.aggCol(i)})
		cols = append(cols, rw.aggCol(i))
	}
	return &aggNode{child: input.n, groupEvals: groupEvals, aggs: aggs, cols: cols}, aggScope, nil
}
