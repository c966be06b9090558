package citus

import (
	"cmp"
	"fmt"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// planInsertSelect picks between the INSERT..SELECT strategies of §3.8. Both
// end in tasks that run "INSERT INTO dest_shard (cols) SELECT … [ON CONFLICT
// …] [RETURNING …]" on the destination's placements:
//
//  1. co-located: source and destination share a co-location group and the
//     SELECT is pushdownable without a merge step — each shard pair runs
//     "INSERT INTO dest_shard SELECT ... FROM src_shard" in parallel;
//  2. pull to coordinator: every other INSERT..SELECT, into a distributed,
//     reference or local table — run the SELECT as a subplan, a distributed
//     SELECT reading primary placements, and ship each destination shard's
//     rows to its placements as an intermediate result the INSERT reads.
//
// dt is nil for a local destination.
func (n *Node) planInsertSelect(ins *sql.InsertStmt, dt *metadata.DistTable, params []types.Datum) (engine.Plan, error) {
	if n.colocatedInsertSelectOK(ins, dt) {
		return n.planColocatedInsertSelect(ins, dt, params)
	}
	return &pullInsertSelect{node: n, ins: ins, dt: dt}, nil
}

// colocatedInsertSelectOK checks strategy 1's preconditions.
func (n *Node) colocatedInsertSelectOK(ins *sql.InsertStmt, dt *metadata.DistTable) bool {
	if dt == nil || dt.Type != metadata.DistributedTable {
		return false
	}
	sel := ins.Select
	dist := n.distTablesIn(sel)
	if len(dist) == 0 {
		return false
	}
	for _, src := range dist {
		if !n.Meta.Colocated(src, dt.Name) {
			return false
		}
	}
	if !n.joinsAreColocated(sel) || n.subqueriesPushdownable(sel) != nil {
		return false
	}
	// the SELECT must not need a merge step
	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Columns {
		if !it.Star && expr.ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg && !n.groupByIncludesDistCol(sel) {
		return false
	}
	if sel.Limit != nil || sel.Offset != nil {
		return false
	}
	// the destination's distribution column must be fed by a source
	// distribution column so rows stay within the shard pair
	pos := n.destDistColumnPosition(ins, dt)
	if pos == -1 || pos >= len(sel.Columns) {
		return false
	}
	item := sel.Columns[pos]
	if item.Star {
		return false
	}
	src := item.Expr
	cr, ok := src.(*sql.ColumnRef)
	if !ok {
		return false
	}
	for _, tbl := range dist {
		sdt, _ := n.Meta.Table(tbl)
		if sdt.DistColumn == cr.Name {
			return true
		}
	}
	return false
}

// destDistColumnPosition finds the destination distribution column's index
// in the INSERT column list.
func (n *Node) destDistColumnPosition(ins *sql.InsertStmt, dt *metadata.DistTable) int {
	cols := ins.Columns
	if len(cols) == 0 {
		cols = n.tableColumnsFromSchema(dt)
	}
	for i, c := range cols {
		if c == dt.DistColumn {
			return i
		}
	}
	return -1
}

// planColocatedInsertSelect builds strategy 1: one task per shard pair,
// fully parallel ("Otherwise, the INSERT..SELECT is performed directly on
// the co-located shards in parallel").
func (n *Node) planColocatedInsertSelect(ins *sql.InsertStmt, dt *metadata.DistTable, params []types.Datum) (engine.Plan, error) {
	shards := n.Meta.Shards(dt.Name)
	texts, err := n.shardTexts(ins, shardIndexes(shards)...)
	if err != nil {
		return nil, err
	}
	var tasks []task
	for i, sh := range shards {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{
			nodeID:     nodeID,
			shardGroup: metadata.ShardGroupID(dt.ColocationID, sh.Index),
			sql:        texts[i],
			params:     params,
			isWrite:    true,
		})
	}
	return &distPlan{
		node:  n,
		tasks: tasks,
		isDML: true,
		tag:   "INSERT 0",
		explain: []string{
			"Custom Scan (Citus INSERT ... SELECT)",
			fmt.Sprintf("  INSERT/SELECT method: pushdown (co-located), %d tasks", len(tasks)),
		},
	}, nil
}

// pullInsertSelect is strategy 2.
type pullInsertSelect struct {
	node *Node
	ins  *sql.InsertStmt
	dt   *metadata.DistTable // nil: a local destination
}

func (p *pullInsertSelect) Columns() []string { return nil }
func (p *pullInsertSelect) ExplainLines() []string {
	return []string{
		"Custom Scan (Citus INSERT ... SELECT)",
		"  INSERT/SELECT method: pull to coordinator",
		"  Distributed Subplan: " + p.ins.Select.String(),
	}
}

// Execute runs the SELECT, then, in one executeTasks call, appends each
// destination shard's rows to citus_insert_<n>_<shard index> on the nodes of
// that shard's placements, and has every placement insert its result; a
// reference table's placements but the first are replicas, so each row counts
// once. A local destination reads the rows registered on this node.
func (p *pullInsertSelect) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	n := p.node
	res, err := n.evalSubplan(s, p.ins.Select, params, true)
	if err != nil {
		return nil, err
	}
	// named by position: the SELECT's own names may repeat ("?column?")
	names := make([]string, len(res.Columns))
	for i := range names {
		names[i] = fmt.Sprintf("column%d", i+1)
	}
	prefix := n.resultName("insert") + "_"
	insert := func(table, result string) *sql.InsertStmt {
		return &sql.InsertStmt{Table: table, Alias: cmp.Or(p.ins.Alias, p.ins.Table), Columns: p.ins.Columns,
			Select: selectAll(result), OnConflict: p.ins.OnConflict, Returning: p.ins.Returning}
	}
	if p.dt == nil {
		name := prefix + "0"
		n.Eng.RegisterIntermediateResult(name, &engine.IntermediateResult{Columns: names, Rows: res.Rows})
		defer n.Eng.DropIntermediateResult(name)
		return s.ExecStmt(insert(p.ins.Table, name), params)
	}
	cols := p.ins.Columns
	if len(cols) == 0 {
		cols = n.tableColumnsFromSchema(p.dt)
	}
	routed, err := n.routeRows(p.dt, cols, res.Rows, "insert")
	if err != nil {
		return nil, err
	}
	plan := &distPlan{node: n, isDML: true, tag: "INSERT 0"}
	plan.cleanupOn(prefix)
	var appends []task
	for _, r := range routed {
		name := fmt.Sprintf("%s%d", prefix, r.shard.Index)
		text := insert(r.shard.ShardName(), name).String()
		for i, nodeID := range n.Meta.Placements(r.shard.ID) {
			appends = append(appends, appendTask(nodeID, name, names, r.rows))
			plan.tasks = append(plan.tasks, task{
				nodeID:     nodeID,
				shardGroup: metadata.ShardGroupID(p.dt.ColocationID, r.shard.Index),
				sql:        text,
				params:     params,
				isWrite:    true,
				replica:    i > 0,
			})
		}
	}
	if _, err := n.executeTasks(s, appends); err != nil {
		plan.cleanup()
		return nil, err
	}
	return plan.Execute(s, params)
}
