package citus

import (
	"fmt"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// planInsertSelect picks among the three INSERT..SELECT strategies of §3.8:
//
//  1. co-located: source and destination share a co-location group and the
//     SELECT is pushdownable without a merge step — each shard pair runs
//     "INSERT INTO dest_shard SELECT ... FROM src_shard" in parallel;
//  2. repartition: no merge step needed but not co-located — the SELECT
//     result is repartitioned by the destination's distribution column
//     before insertion;
//  3. via coordinator: the SELECT needs a coordinator merge or has a subplan
//     of its own — run it as a subplan, a distributed SELECT reading primary
//     placements, and route the rows back into the destination.
func (n *Node) planInsertSelect(ins *sql.InsertStmt, dt *metadata.DistTable, params []types.Datum) (engine.Plan, error) {
	if n.colocatedInsertSelectOK(ins, dt) {
		return n.planColocatedInsertSelect(ins, dt, params)
	}
	if plan, err := n.planRepartitionInsertSelect(ins, dt, params); plan != nil || err != nil {
		return plan, err
	}
	return n.planInsertSelectViaCoordinator(ins, params)
}

// colocatedInsertSelectOK checks strategy 1's preconditions.
func (n *Node) colocatedInsertSelectOK(ins *sql.InsertStmt, dt *metadata.DistTable) bool {
	if dt.Type != metadata.DistributedTable {
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
		if !it.Star && containsAgg(it.Expr) {
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

func containsAgg(e sql.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	var walk func(x sql.Expr)
	walk = func(x sql.Expr) {
		if fc, ok := x.(*sql.FuncCall); ok {
			switch fc.Name {
			case "count", "sum", "avg", "min", "max":
				found = true
			}
			for _, a := range fc.Args {
				walk(a)
			}
			return
		}
		switch t := x.(type) {
		case *sql.BinaryExpr:
			walk(t.L)
			walk(t.R)
		case *sql.UnaryExpr:
			walk(t.E)
		case *sql.CastExpr:
			walk(t.E)
		case *sql.CaseExpr:
			if t.Operand != nil {
				walk(t.Operand)
			}
			for _, w := range t.Whens {
				walk(w.When)
				walk(w.Then)
			}
			if t.Else != nil {
				walk(t.Else)
			}
		}
	}
	walk(e)
	return found
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

// planRepartitionInsertSelect builds strategy 2: the pushdownable SELECT
// runs per source shard, and its rows are repartitioned by the destination's
// distribution column into one COPY task per destination shard placement.
func (n *Node) planRepartitionInsertSelect(ins *sql.InsertStmt, dt *metadata.DistTable, params []types.Datum) (engine.Plan, error) {
	if dt.Type != metadata.DistributedTable {
		return nil, nil
	}
	sel := ins.Select
	dist := n.distTablesIn(sel)
	if len(dist) == 0 {
		return nil, nil
	}
	if !n.joinsAreColocated(sel) || n.subqueriesPushdownable(sel) != nil {
		return nil, nil
	}
	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Columns {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if hasAgg && !n.groupByIncludesDistCol(sel) {
		return nil, nil // needs a merge step: via-coordinator strategy
	}
	if sel.Limit != nil || sel.Offset != nil || sel.Distinct {
		return nil, nil
	}
	pos := n.destDistColumnPosition(ins, dt)
	if pos == -1 {
		return nil, nil
	}
	if err := refuseRowClauses(ins); err != nil {
		return nil, err
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = n.tableColumnsFromSchema(dt)
	}
	srcShards := n.Meta.Shards(dist[0])
	srcTexts, err := n.shardTexts(sel, shardIndexes(srcShards)...)
	if err != nil {
		return nil, err
	}
	plan := &distPlan{
		node:  n,
		isDML: true,
		tag:   "INSERT 0",
		explain: []string{
			"Custom Scan (Citus INSERT ... SELECT)",
			"  INSERT/SELECT method: repartition",
		},
	}
	plan.prepare = func(s *engine.Session, params []types.Datum) ([]task, error) {
		// phase 1: run the SELECT per source shard and collect rows
		var selTasks []task
		for i, sh := range srcShards {
			nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
			if err != nil {
				return nil, err
			}
			// the SELECT feeds a durable INSERT: pin it to the primary so an
			// async standby's bounded staleness can't leak into written rows
			selTasks = append(selTasks, task{nodeID: nodeID, shardGroup: -1, sql: srcTexts[i], params: params})
		}
		results, err := n.executeTasks(s, selTasks)
		if err != nil {
			return nil, err
		}
		var rows []types.Row
		for _, r := range results {
			if r != nil {
				rows = append(rows, r.DecodeRows()...)
			}
		}
		// phase 2: repartition rows by the destination distribution column
		// into COPY tasks
		return n.copyTasks(dt, cols, rows, "insert")
	}
	return plan, nil
}

// planInsertSelectViaCoordinator builds strategy 3: the SELECT as a subplan
// (evalSubplan), then COPY the rows into the destination within the same
// distributed transaction.
func (n *Node) planInsertSelectViaCoordinator(ins *sql.InsertStmt, params []types.Datum) (engine.Plan, error) {
	if err := refuseRowClauses(ins); err != nil {
		return nil, err
	}
	return &insertSelectCoordinatorPlan{node: n, ins: ins}, nil
}

// refuseRowClauses rejects what the repartition and via-coordinator
// strategies cannot carry: their rows reach the destination as COPY, which
// has no ON CONFLICT and returns no rows.
func refuseRowClauses(ins *sql.InsertStmt) error {
	switch {
	case ins.OnConflict != nil:
		return fmt.Errorf("ON CONFLICT is not supported in INSERT ... SELECT that repartitions its rows or pulls them to the coordinator")
	case len(ins.Returning) > 0:
		return fmt.Errorf("RETURNING is not supported in INSERT ... SELECT that repartitions its rows or pulls them to the coordinator")
	}
	return nil
}

type insertSelectCoordinatorPlan struct {
	node *Node
	ins  *sql.InsertStmt
}

func (p *insertSelectCoordinatorPlan) Columns() []string { return nil }
func (p *insertSelectCoordinatorPlan) ExplainLines() []string {
	return []string{
		"Custom Scan (Citus INSERT ... SELECT)",
		"  INSERT/SELECT method: pull to coordinator",
		"  Distributed Subplan: " + p.ins.Select.String(),
	}
}

func (p *insertSelectCoordinatorPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	res, err := p.node.evalSubplan(s, p.ins.Select, params, true)
	if err != nil {
		return nil, err
	}
	cols := p.ins.Columns
	n := p.node
	if dt, ok := n.Meta.Table(p.ins.Table); ok {
		if len(cols) == 0 {
			cols = n.tableColumnsFromSchema(dt)
		}
		if len(res.Rows) > 0 && len(res.Rows[0]) != len(cols) {
			return nil, fmt.Errorf("INSERT has %d target columns but SELECT returns %d", len(cols), len(res.Rows[0]))
		}
		return n.writeRows(s, dt, cols, res.Rows, "insert", "INSERT 0")
	}
	// destination is a plain local table
	ncopied, err := s.CopyFrom(p.ins.Table, cols, res.Rows)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Tag: fmt.Sprintf("INSERT 0 %d", ncopied), Affected: ncopied}, nil
}
