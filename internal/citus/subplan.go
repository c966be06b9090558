package citus

import (
	"fmt"
	"slices"
	"strings"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// The subplan step (§3.5) is the one way a relation that is not a shard
// reaches the nodes that run a plan's tasks. A subplan is a parsed SELECT the
// coordinator runs through the session: the planner hook plans it like any
// statement — as a distributed query when it reads distributed tables — and
// it runs inside the session's transaction, so it sees that transaction's
// writes. Its rows become an intermediate result on exactly the nodes the
// plan's tasks run on (and on the coordinator, when the merge reads it), sent
// by append tasks of the adaptive executor, all of a statement's in one
// executeTasks call. Its users:
//
//   - recursive planning: an expression subquery that cannot run inside the
//     shard tasks becomes a subplan, and the statement reads its result in
//     its place (planSubplans);
//   - the broadcast join: the small table is the subplan `SELECT * FROM
//     small` (planBroadcastJoin);
//   - the repartition join, for the shipping half only: its buckets are made
//     from shard reads, not from a SELECT (repartitionTables);
//   - INSERT..SELECT that is not co-located: its SELECT is a subplan whose
//     rows are split by destination shard, each shard's to the nodes of its
//     placements (pullInsertSelect).
//
// One rule decides where a subplan reads: a subplan of a statement that
// writes reads primary placements (evalSubplan).

// subplanPrefix begins the name of every expression subquery's result.
const subplanPrefix = "citus_sub_"

func isSubplanResult(name string) bool { return strings.HasPrefix(name, subplanPrefix) }

// subplan is one relation a plan's tasks read as an intermediate result.
type subplan struct {
	name string
	sel  *sql.SelectStmt
}

// selectAll is `SELECT * FROM name`.
func selectAll(name string) *sql.SelectStmt {
	return &sql.SelectStmt{Columns: []sql.SelectItem{{Star: true}}, From: []sql.TableRef{&sql.BaseTable{Name: name}}}
}

// appendTask is the executor task that appends rows to the intermediate
// result name on a node, creating it.
func appendTask(nodeID int, name string, cols []string, rows []types.Row) task {
	return task{nodeID: nodeID, shardGroup: -1, sql: name, copyCols: cols, copyRows: rows, isResult: true}
}

// withSubplans makes p evaluate subs before its tasks and ship them to the
// nodes the tasks run on. Its tasks are pinned there, to their primary
// placements: no standby holds a result. explain lines follow p's first.
func (p *distPlan) withSubplans(subs []subplan, prefix string, explain ...string) {
	p.subplans = append(p.subplans, subs...)
	p.cleanupOn(prefix)
	for i := range p.tasks {
		p.tasks[i].readNodes = nil
	}
	lines := p.ExplainLines()
	p.explain = slices.Concat(lines[:1], explain, lines[1:])
}

// runSubplans evaluates p's subplans and ships each to every node one of
// tasks runs on, and to the coordinator when the merge reads one.
func (n *Node) runSubplans(s *engine.Session, p *distPlan, tasks []task, params []types.Datum) error {
	var nodes []int
	for _, t := range tasks {
		if !slices.Contains(nodes, t.nodeID) {
			nodes = append(nodes, t.nodeID)
		}
	}
	if p.merge != nil && !slices.Contains(nodes, n.ID) && slices.ContainsFunc(sql.StatementTables(p.merge), isSubplanResult) {
		nodes = append(nodes, n.ID)
	}
	var appends []task
	for _, sp := range p.subplans {
		res, err := n.evalSubplan(s, sp.sel, params, p.feedsWrite)
		if err != nil {
			return err
		}
		for _, id := range nodes {
			appends = append(appends, appendTask(id, sp.name, res.Columns, res.Rows))
		}
	}
	_, err := n.executeTasks(s, appends)
	return err
}

// evalSubplan runs a subplan's SELECT through the session. primaries: the
// statement it feeds writes, so none of its reads, nested subplans' included,
// goes to a standby that may not have applied the latest writes yet.
func (n *Node) evalSubplan(s *engine.Session, sel *sql.SelectStmt, params []types.Datum, primaries bool) (*engine.Result, error) {
	if primaries {
		st := n.state(s)
		st.primaryReads++
		defer func() { st.primaryReads-- }()
	}
	return s.ExecStmt(sel, params)
}

// planSubplans is recursive planning (§3.5). Each expression subquery of
// stmt that cannot run inside its shard tasks becomes a subplan, and stmt,
// reading `SELECT * FROM citus_sub_<n>_<i>` in its place, is planned by the
// usual planners, uncached, as join-order plans are. nil: stmt has no such
// subquery.
func (n *Node) planSubplans(stmt sql.Statement, params []types.Datum) (engine.Plan, error) {
	sel, isSelect := stmt.(*sql.SelectStmt)
	if _, isInsert := stmt.(*sql.InsertStmt); isInsert || !n.needsSubplans(stmt) {
		return nil, nil // INSERT..SELECT: the strategies decide (planInsertSelect)
	}
	rewritten, err := sql.CloneStatement(stmt)
	if err != nil {
		return nil, err
	}
	prefix := n.resultName("sub") + "_"
	var subs []subplan
	var explain []string
	n.eachSubplan(rewritten, func(slot **sql.SelectStmt) {
		sp := subplan{name: fmt.Sprintf("%s%d", prefix, len(subs)), sel: *slot}
		subs = append(subs, sp)
		explain = append(explain, fmt.Sprintf("  Distributed Subplan %s: %s", sp.name, sp.sel))
		*slot = selectAll(sp.name)
	})
	plan, err := n.planUncached(rewritten, params)
	if plan == nil && err == nil {
		var p engine.Plan
		p, err = n.planDistributed(rewritten, params)
		plan, _ = p.(*distPlan)
	}
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("could not plan %s", rewritten)
	}
	plan.feedsWrite = !isSelect || sel.ForUpdate
	plan.withSubplans(subs, prefix, explain...)
	return plan, nil
}

// needsSubplans reports whether an expression subquery of stmt cannot run
// inside stmt's shard tasks.
func (n *Node) needsSubplans(stmt sql.Statement) bool {
	found := false
	n.eachSubplan(stmt, func(**sql.SelectStmt) { found = true })
	return found
}

// eachSubplan calls fn with the slot of every expression subquery of stmt
// that cannot run inside stmt's shard tasks (pushableSubquery): in the
// target list, WHERE, GROUP BY, HAVING, ORDER BY and JOIN … ON of stmt and
// of its FROM subqueries, and in an UPDATE's SET and WHERE and a DELETE's
// WHERE. Subqueries nested in one are its own planning's business.
func (n *Node) eachSubplan(stmt sql.Statement, fn func(slot **sql.SelectStmt)) {
	var exprs []sql.Expr
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		exprs = append(exprs, st.Where, st.Having)
		for _, c := range st.Columns {
			exprs = append(exprs, c.Expr)
		}
		exprs = append(exprs, st.GroupBy...)
		for _, o := range st.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		var from func(tr sql.TableRef)
		from = func(tr sql.TableRef) {
			switch t := tr.(type) {
			case *sql.JoinRef:
				from(t.Left)
				from(t.Right)
				exprs = append(exprs, t.On)
			case *sql.SubqueryRef:
				n.eachSubplan(t.Select, fn)
			}
		}
		for _, tr := range st.From {
			from(tr)
		}
	case *sql.UpdateStmt:
		exprs = append(exprs, st.Where)
		for _, a := range st.Set {
			exprs = append(exprs, a.Value)
		}
	case *sql.DeleteStmt:
		exprs = append(exprs, st.Where)
	}
	for _, e := range exprs {
		expr.WalkExpr(e, func(x sql.Expr) bool {
			var slot **sql.SelectStmt
			var in *sql.InExpr
			switch t := x.(type) {
			case *sql.SubqueryExpr:
				slot = &t.Select
			case *sql.ExistsExpr:
				slot = &t.Select
			case *sql.InExpr:
				slot, in = &t.Subquery, t
			}
			if slot != nil && *slot != nil && !n.pushableSubquery(stmt, *slot, in) {
				fn(slot)
			}
			return true
		})
	}
}

// pushableSubquery reports whether an expression subquery may run inside the
// shard tasks of the query level it sits in. It may when it reads nothing but
// reference tables and subplan results, which every task's node holds, and
// when it is Citus's co-located IN: `outer.distcol IN (SELECT inner.distcol
// …)` over tables co-located with the outer one, needing no merge step, so
// every row it could match for a shard lives in that shard's group.
func (n *Node) pushableSubquery(level sql.Statement, sub *sql.SelectStmt, in *sql.InExpr) bool {
	everywhere := true
	for _, name := range sql.StatementTables(sub) {
		if dt, ok := n.Meta.Table(name); !(ok && dt.Type == metadata.ReferenceTable) && !isSubplanResult(name) {
			everywhere = false
		}
	}
	if everywhere {
		return true
	}
	if in == nil || in.Not || len(sub.Columns) != 1 || sub.Limit != nil || sub.Offset != nil {
		return false
	}
	outer, inner := n.distColumnTable(level, in.E), n.distColumnTable(sub, sub.Columns[0].Expr)
	if outer == nil || inner == nil {
		return false
	}
	for _, tbl := range n.distTablesIn(sub) {
		if dt, _ := n.Meta.Table(tbl); dt.ColocationID != outer.ColocationID {
			return false
		}
	}
	return n.joinsAreColocated(sub) && !n.needsMerge(sub) && n.subqueriesPushdownable(sub) == nil
}

// distColumnTable returns the distributed table among one query level's FROM
// tables, or its UPDATE or DELETE target, whose distribution column e names;
// nil when e names none.
func (n *Node) distColumnTable(level sql.Statement, e sql.Expr) *metadata.DistTable {
	col, ok := e.(*sql.ColumnRef)
	if !ok {
		return nil
	}
	var tables []*sql.BaseTable
	var from func(tr sql.TableRef)
	from = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.BaseTable:
			tables = append(tables, t)
		case *sql.JoinRef:
			from(t.Left)
			from(t.Right)
		}
	}
	switch st := level.(type) {
	case *sql.SelectStmt:
		for _, tr := range st.From {
			from(tr)
		}
	case *sql.UpdateStmt:
		tables = append(tables, &sql.BaseTable{Name: st.Table, Alias: st.Alias})
	case *sql.DeleteStmt:
		tables = append(tables, &sql.BaseTable{Name: st.Table, Alias: st.Alias})
	}
	for _, bt := range tables {
		dt, ok := n.Meta.Table(bt.Name)
		if ok && dt.Type == metadata.DistributedTable && dt.DistColumn == col.Name && (col.Table == "" || col.Table == bt.RefName()) {
			return dt
		}
	}
	return nil
}
