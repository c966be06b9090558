package citus

import (
	"fmt"
	"strings"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/expr"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// pushdownShape is the logical pushdown planner's analysis of one SELECT
// (§3.5): the worker query deparsed once per shard group, the merge query
// over their collected results, and the EXPLAIN. Nothing in it depends on a
// parameter value or on where a shard's placements are, so the plan cache
// keeps it per statement text and metadata version, and a bind only looks up
// the current placements. No field changes once the shape is shared.
type pushdownShape struct {
	table      string // the distributed table whose shards the tasks cover
	colocation int
	taskSQL    []string        // by shard index
	merge      *sql.SelectStmt // read-only: each execution runs a copy (distPlan.Execute)
	columns    []string
	explain    []string
	topN       bool // the workers apply ORDER BY … LIMIT (pushTopNToWorkers)

	key         string // the statement text, for a shape the plan cache holds
	metaVersion int64
}

// pushdownTarget reports whether the whole join tree of sel is co-located,
// so the pushdown planner can plan it, and which table's shards its tasks
// cover. A SELECT it rejects goes to the join-order planner.
func (n *Node) pushdownTarget(sel *sql.SelectStmt) (table string, colocation int, ok bool) {
	dist := n.distTablesIn(sel)
	if len(dist) == 0 {
		return "", 0, false
	}
	colocation = -1
	for _, tbl := range dist {
		dt, _ := n.Meta.Table(tbl)
		if colocation == -1 {
			colocation = dt.ColocationID
		} else if dt.ColocationID != colocation {
			return "", 0, false // different co-location groups: join-order planner
		}
	}
	if !n.joinsAreColocated(sel) || n.subqueriesPushdownable(sel) != nil {
		return "", 0, false
	}
	return dist[0], colocation, true
}

// analyzePushdown implements the logical pushdown planner (§3.5): when the
// whole join tree is co-located it plans one task per shard group, pushing
// as much computation to the workers as possible, and a coordinator-side
// merge ("master") query over the collected intermediate results. Top-level
// aggregates are split into worker-side partial aggregates and a
// coordinator-side combine step (count→sum, avg→sum/count, ...). Returns nil
// for a SELECT pushdownTarget rejects.
func (n *Node) analyzePushdown(sel *sql.SelectStmt) (*pushdownShape, error) {
	table, colocation, ok := n.pushdownTarget(sel)
	if !ok {
		return nil, nil
	}
	pq, err := n.buildPushdownQueries(sel, n.resultName("merge"))
	if err != nil {
		return nil, err
	}
	texts, err := n.shardTexts(pq.worker, shardIndexes(n.Meta.Shards(table))...)
	if err != nil {
		return nil, err
	}
	return &pushdownShape{
		table:      table,
		colocation: colocation,
		taskSQL:    texts,
		merge:      pq.merge,
		columns:    pq.columns,
		topN:       pq.topN,
		explain: []string{
			"Custom Scan (Citus Adaptive)",
			fmt.Sprintf("  Task Count: %d (logical pushdown, co-located)", len(texts)),
			"  Merge Step: " + pq.merge.String(),
		},
	}, nil
}

// plan binds the shape to one execution: one task per shard of the table,
// on its current primary and read placements, carrying the caller's
// parameters. hit marks a plan-cache hit for tracing.
func (s *pushdownShape) plan(n *Node, params []types.Datum, hit bool) (*distPlan, error) {
	shards := n.Meta.Shards(s.table)
	if len(shards) != len(s.taskSQL) {
		return nil, fmt.Errorf("the shards of %q changed while the statement was planned", s.table)
	}
	cacheMark := ""
	if hit {
		cacheMark = "hit"
	}
	tasks := make([]task, len(shards))
	for i, sh := range shards {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return nil, err
		}
		tasks[i] = task{
			nodeID:     nodeID,
			shardGroup: metadata.ShardGroupID(s.colocation, sh.Index),
			sql:        s.taskSQL[i],
			params:     params,
			cache:      cacheMark,
			readNodes:  n.Meta.ReadPlacements(sh.ID),
		}
	}
	if s.topN {
		metTopNPushdowns.Add(1)
	}
	return &distPlan{
		node:    n,
		tasks:   tasks,
		columns: s.columns,
		merge:   s.merge,
		explain: s.explain,
	}, nil
}

// joinsAreColocated verifies that every pair of distributed tables is
// linked through equality conjuncts on their distribution columns (a
// union-find over join equivalence classes).
func (n *Node) joinsAreColocated(sel *sql.SelectStmt) bool {
	// collect distributed ranges: range name -> dist column
	type distRange struct {
		rangeName string
		distCol   string
	}
	var ranges []distRange
	var colRanges func(s *sql.SelectStmt)
	var visitTR func(tr sql.TableRef)
	visitTR = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.BaseTable:
			if dt, ok := n.Meta.Table(t.Name); ok && dt.Type == metadata.DistributedTable {
				ranges = append(ranges, distRange{rangeName: t.RefName(), distCol: dt.DistColumn})
			}
		case *sql.JoinRef:
			visitTR(t.Left)
			visitTR(t.Right)
		case *sql.SubqueryRef:
			colRanges(t.Select)
		}
	}
	colRanges = func(s *sql.SelectStmt) {
		for _, tr := range s.From {
			visitTR(tr)
		}
	}
	colRanges(sel)
	if len(ranges) <= 1 {
		return true
	}

	// union-find over "range.distcol" vertices plus anonymous equality
	// vertices for unqualified references
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	keyFor := func(cr *sql.ColumnRef) string {
		if cr.Table != "" {
			return cr.Table + "." + cr.Name
		}
		return "?." + cr.Name
	}

	var conjuncts []sql.Expr
	var gatherSel func(s *sql.SelectStmt)
	var gatherTR func(tr sql.TableRef)
	gatherTR = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.JoinRef:
			gatherTR(t.Left)
			gatherTR(t.Right)
			conjuncts = append(conjuncts, splitAnd(t.On)...)
		case *sql.SubqueryRef:
			gatherSel(t.Select)
		}
	}
	gatherSel = func(s *sql.SelectStmt) {
		conjuncts = append(conjuncts, splitAnd(s.Where)...)
		for _, tr := range s.From {
			gatherTR(tr)
		}
	}
	gatherSel(sel)

	for _, c := range conjuncts {
		b, ok := c.(*sql.BinaryExpr)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		lc, lok := b.L.(*sql.ColumnRef)
		rc, rok := b.R.(*sql.ColumnRef)
		if lok && rok {
			union(keyFor(lc), keyFor(rc))
			// unqualified names bridge to every range's same-named column
			union(keyFor(lc), "?."+lc.Name)
			union(keyFor(rc), "?."+rc.Name)
		}
	}
	root := ""
	for _, r := range ranges {
		key := r.rangeName + "." + r.distCol
		union(key, key) // ensure vertex exists
		// bridge qualified and unqualified spellings
		union(key, key)
		g := find(key)
		alt := find("?." + r.distCol)
		if g != alt {
			// a join may have used the unqualified spelling
			if _, ok := parent["?."+r.distCol]; ok {
				union(key, "?."+r.distCol)
				g = find(key)
			}
		}
		if root == "" {
			root = g
		} else if g != root {
			return false
		}
	}
	return true
}

// subqueriesPushdownable checks that every subquery can run inside the shard
// tasks: no FROM subquery needs a global merge step — a subquery referencing
// distributed tables must either group by a distribution column or be a
// plain filter/projection (§3.5: "subqueries do not require a global merge
// step (e.g. a GROUP BY must include the distribution column)") — and no
// expression subquery needs a subplan (needsSubplans).
func (n *Node) subqueriesPushdownable(sel *sql.SelectStmt) error {
	if n.needsSubplans(sel) {
		return fmt.Errorf("an expression subquery needs a subplan")
	}
	var check func(s *sql.SelectStmt, topLevel bool) error
	var checkTR func(tr sql.TableRef) error
	checkTR = func(tr sql.TableRef) error {
		switch t := tr.(type) {
		case *sql.JoinRef:
			if err := checkTR(t.Left); err != nil {
				return err
			}
			return checkTR(t.Right)
		case *sql.SubqueryRef:
			return check(t.Select, false)
		}
		return nil
	}
	check = func(s *sql.SelectStmt, topLevel bool) error {
		for _, tr := range s.From {
			if err := checkTR(tr); err != nil {
				return err
			}
		}
		if !topLevel && n.needsMerge(s) {
			return fmt.Errorf("subquery requires a global merge step")
		}
		return nil
	}
	return check(sel, true)
}

// needsMerge reports whether a subquery over distributed tables needs a
// global merge step: it aggregates, limits or de-duplicates across shards
// rather than being a plain filter/projection or grouping by a distribution
// column.
func (n *Node) needsMerge(s *sql.SelectStmt) bool {
	if len(n.distTablesIn(s)) == 0 {
		return false
	}
	hasAgg := len(s.GroupBy) > 0
	for _, it := range s.Columns {
		if it.Expr != nil && expr.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg && s.Limit == nil && !s.Distinct {
		return false
	}
	return !n.groupByIncludesDistCol(s)
}

// groupByIncludesDistCol reports whether the select groups by the
// distribution column of one of its distributed tables. A column qualified
// with a table's range must be that table's distribution column: b.k is none
// when b is a reference table, or a broadcast relation, that has a k.
func (n *Node) groupByIncludesDistCol(s *sql.SelectStmt) bool {
	distCols := map[string]bool{}
	ranges := map[string]string{} // table range name -> its distribution column, "" for none
	sql.WalkTables(s, func(bt *sql.BaseTable) {
		ranges[bt.RefName()] = ""
		if dt, ok := n.Meta.Table(bt.Name); ok && dt.Type == metadata.DistributedTable {
			distCols[dt.DistColumn] = true
			ranges[bt.RefName()] = dt.DistColumn
		}
	})
	groupBy := resolvePositionalGroupBy(s)
	for _, g := range groupBy {
		cr, ok := g.(*sql.ColumnRef)
		if !ok {
			continue
		}
		if distCol, isTable := ranges[cr.Table]; cr.Table != "" && isTable {
			if distCol == cr.Name {
				return true
			}
		} else if distCols[cr.Name] {
			return true
		}
	}
	return false
}

// resolvePositionalGroupBy expands GROUP BY 1 / alias references.
func resolvePositionalGroupBy(s *sql.SelectStmt) []sql.Expr {
	out := make([]sql.Expr, 0, len(s.GroupBy))
	for _, g := range s.GroupBy {
		if lit, ok := g.(*sql.Literal); ok {
			if pos, isInt := lit.Value.(int64); isInt && pos >= 1 && int(pos) <= len(s.Columns) {
				out = append(out, s.Columns[pos-1].Expr)
				continue
			}
		}
		if cr, ok := g.(*sql.ColumnRef); ok && cr.Table == "" {
			matched := false
			for _, it := range s.Columns {
				if it.Alias == cr.Name {
					out = append(out, it.Expr)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		out = append(out, g)
	}
	return out
}

// ---------------------------------------------------------------------------
// Worker / merge query construction

type pushdownQueries struct {
	worker  *sql.SelectStmt
	merge   *sql.SelectStmt
	columns []string
	topN    bool // pushTopNToWorkers gave the worker ORDER BY … LIMIT
}

// buildPushdownQueries splits the top-level select into the per-shard
// worker query and the coordinator merge query over intermediate result
// irName.
func (n *Node) buildPushdownQueries(sel *sql.SelectStmt, irName string) (*pushdownQueries, error) {
	hasAgg := false
	for _, it := range sel.Columns {
		if it.Expr != nil && expr.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if sel.Having != nil && expr.ContainsAggregate(sel.Having) {
		hasAgg = true
	}
	hasGroup := len(sel.GroupBy) > 0

	// Case 1: no aggregation — workers run the query as-is (with LIMIT
	// pushed down), the coordinator re-sorts/limits the union.
	if !hasAgg && !hasGroup {
		return n.buildPassthroughMerge(sel, irName)
	}
	// Case 2: groups are confined to single shards — full pushdown, the
	// coordinator only re-sorts/limits.
	if n.groupByIncludesDistCol(sel) {
		return n.buildPassthroughMerge(sel, irName)
	}
	// Case 3: partial aggregation.
	if sel.Distinct {
		return nil, fmt.Errorf("SELECT DISTINCT with cross-shard aggregation is not supported")
	}
	return n.buildPartialAggMerge(sel, irName)
}

// buildPassthroughMerge makes the worker run (a clone of) the original
// query and the merge re-apply DISTINCT / ORDER BY / LIMIT / OFFSET over the
// union.
func (n *Node) buildPassthroughMerge(sel *sql.SelectStmt, irName string) (*pushdownQueries, error) {
	workerStmt, err := sql.CloneStatement(sel)
	if err != nil {
		return nil, err
	}
	worker := workerStmt.(*sql.SelectStmt)

	// Workers may apply LIMIT limit+offset; OFFSET itself only at merge.
	if worker.Limit != nil && worker.Offset != nil {
		if l, lok := worker.Limit.(*sql.Literal); lok {
			if o, ook := worker.Offset.(*sql.Literal); ook {
				li, lIsInt := l.Value.(int64)
				oi, oIsInt := o.Value.(int64)
				if lIsInt && oIsInt {
					worker.Limit = &sql.Literal{Value: li + oi}
				}
			}
		}
		worker.Offset = nil
	} else if worker.Offset != nil {
		worker.Offset = nil
	}

	hasStar := false
	for _, it := range worker.Columns {
		if it.Star {
			hasStar = true
		}
	}

	// A row the workers made distinct can still arrive from several shards:
	// DISTINCT applies again over the union (before the LIMIT, so each
	// worker's limit+offset distinct rows are enough).
	merge := &sql.SelectStmt{
		Distinct: sel.Distinct,
		From:     []sql.TableRef{&sql.BaseTable{Name: irName}},
		Limit:    sel.Limit,
		Offset:   sel.Offset,
	}

	if hasStar {
		// SELECT *: the intermediate result carries the original column
		// names, so the merge can order by plain names or positions.
		merge.Columns = []sql.SelectItem{{Star: true}}
		for _, o := range sel.OrderBy {
			switch e := o.Expr.(type) {
			case *sql.Literal, *sql.ColumnRef:
				oe := e
				if cr, ok := e.(*sql.ColumnRef); ok {
					oe = &sql.ColumnRef{Name: cr.Name} // strip qualifier
				}
				merge.OrderBy = append(merge.OrderBy, sql.OrderItem{Expr: oe, Desc: o.Desc})
			default:
				return nil, fmt.Errorf("ORDER BY expressions with SELECT * require grouping by the distribution column")
			}
		}
		return &pushdownQueries{worker: worker, merge: merge, columns: nil}, nil
	}

	// Resolve alias/positional references before relabeling worker output.
	worker.GroupBy = resolvePositionalGroupBy(worker)

	var orderPositions []int
	for _, o := range worker.OrderBy {
		pos, err := orderTargetPosition(o.Expr, worker)
		if err != nil {
			return nil, err
		}
		orderPositions = append(orderPositions, pos)
	}
	for i := range worker.OrderBy {
		worker.OrderBy[i].Expr = &sql.Literal{Value: int64(orderPositions[i] + 1)}
	}

	visible := len(sel.Columns)
	columns := make([]string, 0, visible)
	for i := range worker.Columns {
		alias := fmt.Sprintf("c%d", i)
		if i < visible {
			columns = append(columns, outputNameOf(sel.Columns[i]))
			merge.Columns = append(merge.Columns, sql.SelectItem{
				Expr:  &sql.ColumnRef{Name: alias},
				Alias: columns[i],
			})
		}
		worker.Columns[i].Alias = alias
	}
	for i, o := range sel.OrderBy {
		merge.OrderBy = append(merge.OrderBy, sql.OrderItem{
			Expr: &sql.ColumnRef{Name: fmt.Sprintf("c%d", orderPositions[i])},
			Desc: o.Desc,
		})
	}
	return &pushdownQueries{worker: worker, merge: merge, columns: columns}, nil
}

// orderTargetPosition resolves an ORDER BY expression to a worker output
// position, appending a hidden column when necessary.
func orderTargetPosition(e sql.Expr, worker *sql.SelectStmt) (int, error) {
	if lit, ok := e.(*sql.Literal); ok {
		if pos, isInt := lit.Value.(int64); isInt {
			if pos < 1 || int(pos) > len(worker.Columns) {
				return 0, fmt.Errorf("ORDER BY position %d out of range", pos)
			}
			return int(pos) - 1, nil
		}
	}
	text := e.String()
	for i, it := range worker.Columns {
		if it.Star {
			continue
		}
		if it.Expr.String() == text {
			return i, nil
		}
		if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
			if it.Alias == cr.Name || (it.Alias == "" && outputNameOf(it) == cr.Name) {
				return i, nil
			}
		}
	}
	for _, it := range worker.Columns {
		if it.Star {
			return 0, fmt.Errorf("cannot resolve ORDER BY expression with SELECT *")
		}
	}
	worker.Columns = append(worker.Columns, sql.SelectItem{Expr: e, Alias: fmt.Sprintf("worker_ord_%d", len(worker.Columns))})
	return len(worker.Columns) - 1, nil
}

// buildPartialAggMerge splits aggregates into worker partials and a
// coordinator combine query.
func (n *Node) buildPartialAggMerge(sel *sql.SelectStmt, irName string) (*pushdownQueries, error) {
	groupBy := resolvePositionalGroupBy(sel)
	pr := &partialRewriter{groupText: make(map[string]int)}
	for i, g := range groupBy {
		pr.groupText[g.String()] = i
		pr.worker = append(pr.worker, sql.SelectItem{Expr: g, Alias: fmt.Sprintf("wg%d", i)})
	}

	merge := &sql.SelectStmt{
		From: []sql.TableRef{&sql.BaseTable{Name: irName}},
	}
	var columns []string
	for _, it := range sel.Columns {
		if it.Star {
			return nil, fmt.Errorf("SELECT * with cross-shard aggregation is not supported")
		}
		mergedExpr, err := pr.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		merge.Columns = append(merge.Columns, sql.SelectItem{Expr: mergedExpr, Alias: outputNameOf(it)})
		columns = append(columns, outputNameOf(it))
	}
	for i := range groupBy {
		merge.GroupBy = append(merge.GroupBy, &sql.ColumnRef{Name: fmt.Sprintf("wg%d", i)})
	}
	if sel.Having != nil {
		h, err := pr.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		merge.Having = h
	}
	for _, o := range sel.OrderBy {
		if lit, ok := o.Expr.(*sql.Literal); ok {
			if pos, isInt := lit.Value.(int64); isInt {
				merge.OrderBy = append(merge.OrderBy, sql.OrderItem{Expr: &sql.Literal{Value: pos}, Desc: o.Desc})
				continue
			}
		}
		// alias reference into the merge output?
		if cr, ok := o.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
			matched := false
			for i, it := range sel.Columns {
				if it.Alias == cr.Name || outputNameOf(it) == cr.Name {
					merge.OrderBy = append(merge.OrderBy, sql.OrderItem{Expr: &sql.Literal{Value: int64(i + 1)}, Desc: o.Desc})
					matched = true
					break
				}
			}
			if matched {
				continue
			}
		}
		oe, err := pr.rewrite(o.Expr)
		if err != nil {
			return nil, err
		}
		merge.OrderBy = append(merge.OrderBy, sql.OrderItem{Expr: oe, Desc: o.Desc})
	}
	merge.Limit = sel.Limit
	merge.Offset = sel.Offset

	workerStmt, err := sql.CloneStatement(sel)
	if err != nil {
		return nil, err
	}
	worker := workerStmt.(*sql.SelectStmt)
	worker.Columns = pr.worker
	worker.GroupBy = groupBy
	worker.Having = nil // applied over merged aggregates at the coordinator
	worker.OrderBy = nil
	worker.Limit = nil
	worker.Offset = nil

	topN := n.pushTopNToWorkers(sel, pr, worker)
	return &pushdownQueries{worker: worker, merge: merge, columns: columns, topN: topN}, nil
}

// pushTopNToWorkers ships ORDER BY ... LIMIT down to the workers of a
// partial-aggregate plan when it is provably sound: every ORDER BY key must
// be a grouping expression. Groups are complete per worker (each group's
// rows live on whichever workers hold them, and partials for one group
// merge across workers — but the group *key* ordering needs no merge), so
// a group that ranks in the global top k(+offset) ranks within the top
// k(+offset) on every worker that has it; the per-worker TopN therefore
// retains a superset of the global answer and the coordinator's existing
// ORDER BY/LIMIT merge finishes the job. ORDER BY on an aggregate cannot
// be pushed here: a group's partial on one worker says nothing about its
// global rank. HAVING also blocks the pushdown — it is applied over merged
// aggregates at the coordinator, and workers cannot know which of their
// top-k groups it will discard.
//
// Only literal LIMIT/OFFSET values are pushed (parameters would need
// binding before plan-cache time); anything else leaves the worker query
// unbounded, exactly as before. Reports whether it pushed.
func (n *Node) pushTopNToWorkers(sel *sql.SelectStmt, pr *partialRewriter, worker *sql.SelectStmt) bool {
	if n.Eng.Features().NoTopNPushdown || sel.Limit == nil || sel.Having != nil || len(sel.OrderBy) == 0 {
		return false
	}
	limit, ok := literalInt(sel.Limit)
	if !ok || limit < 0 {
		return false
	}
	offset := int64(0)
	if sel.Offset != nil {
		if offset, ok = literalInt(sel.Offset); !ok || offset < 0 {
			return false
		}
	}
	orderBy := make([]sql.OrderItem, 0, len(sel.OrderBy))
	for _, o := range sel.OrderBy {
		e := o.Expr
		// positional / select-list-alias references resolve to the
		// projected expression first
		if lit, isLit := e.(*sql.Literal); isLit {
			pos, isInt := lit.Value.(int64)
			if !isInt || pos < 1 || int(pos) > len(sel.Columns) {
				return false
			}
			e = sel.Columns[pos-1].Expr
		} else if cr, isRef := e.(*sql.ColumnRef); isRef && cr.Table == "" {
			for _, it := range sel.Columns {
				if it.Alias == cr.Name || outputNameOf(it) == cr.Name {
					e = it.Expr
					break
				}
			}
		}
		gi, isGroup := pr.groupText[e.String()]
		if !isGroup {
			return false
		}
		// group i is worker output column wg<i>, at position i+1
		orderBy = append(orderBy, sql.OrderItem{
			Expr: &sql.Literal{Value: int64(gi + 1)},
			Desc: o.Desc,
		})
	}
	worker.OrderBy = orderBy
	worker.Limit = &sql.Literal{Value: limit + offset}
	return true
}

func literalInt(e sql.Expr) (int64, bool) {
	lit, ok := e.(*sql.Literal)
	if !ok {
		return 0, false
	}
	v, isInt := lit.Value.(int64)
	return v, isInt
}

// partialRewriter rewrites an expression for the merge query, accumulating
// the worker-side partial columns it needs.
type partialRewriter struct {
	groupText map[string]int
	worker    []sql.SelectItem
	aggSeq    int
}

func (pr *partialRewriter) rewrite(e sql.Expr) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if i, ok := pr.groupText[e.String()]; ok {
		return &sql.ColumnRef{Name: fmt.Sprintf("wg%d", i)}, nil
	}
	switch x := e.(type) {
	case *sql.FuncCall:
		if expr.IsAggregate(x.Name) {
			return pr.partialize(x)
		}
		out := &sql.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			ra, err := pr.rewrite(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	case *sql.BinaryExpr:
		l, err := pr.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := pr.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		sub, err := pr.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: x.Op, E: sub}, nil
	case *sql.CastExpr:
		sub, err := pr.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &sql.CastExpr{E: sub, To: x.To}, nil
	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		var err error
		if out.Operand, err = pr.rewrite(x.Operand); err != nil {
			return nil, err
		}
		for _, w := range x.Whens {
			cw, err := pr.rewrite(w.When)
			if err != nil {
				return nil, err
			}
			ct, err := pr.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.CaseWhen{When: cw, Then: ct})
		}
		if out.Else, err = pr.rewrite(x.Else); err != nil {
			return nil, err
		}
		return out, nil
	case *sql.BetweenExpr:
		ops, err := pr.rewriteAll(x.E, x.Lo, x.Hi)
		if err != nil {
			return nil, err
		}
		return &sql.BetweenExpr{E: ops[0], Lo: ops[1], Hi: ops[2], Not: x.Not}, nil
	case *sql.InExpr:
		if x.Subquery != nil {
			break
		}
		ops, err := pr.rewriteAll(append([]sql.Expr{x.E}, x.List...)...)
		if err != nil {
			return nil, err
		}
		return &sql.InExpr{E: ops[0], List: ops[1:], Not: x.Not}, nil
	case *sql.IsNullExpr:
		sub, err := pr.rewrite(x.E)
		if err != nil {
			return nil, err
		}
		return &sql.IsNullExpr{E: sub, Not: x.Not}, nil
	case *sql.LikeExpr:
		ops, err := pr.rewriteAll(x.E, x.Pattern)
		if err != nil {
			return nil, err
		}
		return &sql.LikeExpr{E: ops[0], Pattern: ops[1], ILike: x.ILike, Not: x.Not}, nil
	case *sql.ColumnRef:
		return nil, fmt.Errorf("column %q must appear in the GROUP BY clause or be used in an aggregate function", x.Name)
	}
	// literals and other leaf expressions pass through
	if !expr.ContainsAggregate(e) && !referencesColumns(e) {
		return e, nil
	}
	return nil, fmt.Errorf("expression %s is not supported in cross-shard aggregation", e.String())
}

// rewriteAll rewrites each of es.
func (pr *partialRewriter) rewriteAll(es ...sql.Expr) ([]sql.Expr, error) {
	out := make([]sql.Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = pr.rewrite(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func referencesColumns(e sql.Expr) bool {
	found := false
	expr.WalkExpr(e, func(x sql.Expr) bool {
		if _, ok := x.(*sql.ColumnRef); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// partialize splits one aggregate call (§ "Citus distributes the outer
// aggregation step by calculating partial aggregates on the worker nodes
// and merging the partial aggregates on the coordinator").
func (pr *partialRewriter) partialize(fc *sql.FuncCall) (sql.Expr, error) {
	name := strings.ToLower(fc.Name)
	if fc.Distinct {
		return nil, fmt.Errorf("%s(DISTINCT ...) requires grouping by the distribution column", name)
	}
	switch name {
	case "count", "sum":
		alias := pr.nextAgg()
		pr.worker = append(pr.worker, sql.SelectItem{Expr: fc, Alias: alias})
		merged := &sql.FuncCall{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: alias}}}
		if name == "count" {
			// sum of counts is NULL over zero rows; count must be 0
			return &sql.FuncCall{Name: "coalesce", Args: []sql.Expr{merged, &sql.Literal{Value: int64(0)}}}, nil
		}
		return merged, nil
	case "min", "max":
		alias := pr.nextAgg()
		pr.worker = append(pr.worker, sql.SelectItem{Expr: fc, Alias: alias})
		return &sql.FuncCall{Name: name, Args: []sql.Expr{&sql.ColumnRef{Name: alias}}}, nil
	case "avg":
		sumAlias := pr.nextAgg()
		cntAlias := pr.nextAgg()
		pr.worker = append(pr.worker,
			sql.SelectItem{Expr: &sql.FuncCall{Name: "sum", Args: fc.Args}, Alias: sumAlias},
			sql.SelectItem{Expr: &sql.FuncCall{Name: "count", Args: fc.Args}, Alias: cntAlias},
		)
		num := &sql.CastExpr{
			E:  &sql.FuncCall{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: sumAlias}}},
			To: types.Float,
		}
		den := &sql.FuncCall{Name: "nullif", Args: []sql.Expr{
			&sql.FuncCall{Name: "sum", Args: []sql.Expr{&sql.ColumnRef{Name: cntAlias}}},
			&sql.Literal{Value: int64(0)},
		}}
		return &sql.BinaryExpr{Op: sql.OpDiv, L: num, R: den}, nil
	}
	return nil, fmt.Errorf("aggregate %s cannot be distributed", name)
}

func (pr *partialRewriter) nextAgg() string {
	pr.aggSeq++
	return fmt.Sprintf("wa%d", pr.aggSeq)
}

// outputNameOf mirrors the engine's output naming.
func outputNameOf(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sql.ColumnRef:
		return e.Name
	case *sql.FuncCall:
		return strings.ToLower(e.Name)
	case *sql.CastExpr:
		if cr, ok := e.E.(*sql.ColumnRef); ok {
			return cr.Name
		}
		return e.To.String()
	default:
		return "?column?"
	}
}
