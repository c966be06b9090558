package citus

import (
	"fmt"
	"slices"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// planJoinOrder is the logical join-order planner (§3.5): it handles join
// trees with non-co-located joins by moving data — either broadcasting the
// smaller relation to every worker or repartitioning both sides on the join
// key — and picks the strategy that minimizes network traffic. The moved
// relations become intermediate results ("subplans with filters and
// projections pushed into the subplan"), after which the rewritten query is
// planned by the pushdown planner.
func (n *Node) planJoinOrder(sel *sql.SelectStmt, params []types.Datum) (*distPlan, error) {
	dist := n.distTablesIn(sel)
	if len(dist) != 2 {
		return nil, nil // N-way non-co-located joins are a known limitation
	}
	// a FROM subquery that needs a merge step is out of scope here
	if err := n.subqueriesPushdownable(sel); err != nil {
		return nil, nil //nolint:nilerr
	}
	a, b := dist[0], dist[1]

	// estimate relation sizes from shard statistics
	rowsA, err := n.distTableRows(a)
	if err != nil {
		return nil, err
	}
	rowsB, err := n.distTableRows(b)
	if err != nil {
		return nil, err
	}
	workers := int64(len(n.Meta.WorkerNodes()))

	// network-traffic cost model: broadcast ships the relation to every
	// worker; repartition ships each relation once. The preserved side of an
	// outer join is never broadcast: every task would emit the rows that find
	// no match in its own shard.
	preserved := preservedTables(sel)
	small, cost := "", rowsA+rowsB
	if !preserved[b] && rowsB*workers <= cost {
		small, cost = b, rowsB*workers
	}
	if !preserved[a] && rowsA*workers <= cost {
		small = a
	}
	if small == "" {
		return n.planRepartitionJoin(sel, params, a, b)
	}
	return n.planBroadcastJoin(sel, params, small)
}

// preservedTables names the tables on the preserved side of a LEFT JOIN,
// FROM subqueries' joins included.
func preservedTables(sel *sql.SelectStmt) map[string]bool {
	preserved := map[string]bool{}
	var visit func(tr sql.TableRef, keep bool)
	visit = func(tr sql.TableRef, keep bool) {
		switch t := tr.(type) {
		case *sql.JoinRef:
			visit(t.Left, keep || t.Type == sql.LeftJoin)
			visit(t.Right, keep)
		case *sql.SubqueryRef:
			for _, tr := range t.Select.From {
				visit(tr, keep)
			}
		case *sql.BaseTable:
			if keep {
				preserved[t.Name] = true
			}
		}
	}
	for _, tr := range sel.From {
		visit(tr, false)
	}
	return preserved
}

// distTableRows sums the row estimates of a table's shards: this node's
// from its engine, every other node's in one call for all of its shards.
func (n *Node) distTableRows(table string) (int64, error) {
	shardsOn := map[int][]types.Datum{}
	for _, sh := range n.Meta.Shards(table) {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return 0, err
		}
		shardsOn[nodeID] = append(shardsOn[nodeID], sh.ShardName())
	}
	var total int64
	for nodeID, names := range shardsOn {
		if nodeID == n.ID {
			for _, name := range names {
				total += n.Eng.TableRows(name.(string))
			}
			continue
		}
		res, err := n.callNode(nodeID, "citus_node_table_rows", callText("citus_node_table_rows", len(names)), names...)
		if err != nil {
			return 0, fmt.Errorf("row estimate of %s on node %d: %w", table, nodeID, err)
		}
		total += res.Rows[0][0].(int64)
	}
	return total, nil
}

// planBroadcastJoin replicates smallTable, as the subplan `SELECT * FROM
// smallTable`, to the nodes the other table's tasks run on, and plans the
// rewritten query with the pushdown planner (§3.5 "broadcast joins").
func (n *Node) planBroadcastJoin(sel *sql.SelectStmt, params []types.Datum, smallTable string) (*distPlan, error) {
	prefix := n.resultName("bcast") + "_"
	irName := prefix + "rel"

	rewritten, err := sql.CloneStatement(sel)
	if err != nil {
		return nil, err
	}
	sql.RewriteTables(rewritten, func(name string) string {
		if name == smallTable {
			return irName
		}
		return name
	})
	shape, err := n.analyzePushdown(rewritten.(*sql.SelectStmt))
	if shape == nil || err != nil {
		return nil, err
	}
	plan, err := shape.plan(n, params, false)
	if err != nil {
		return nil, err
	}
	plan.withSubplans([]subplan{{name: irName, sel: selectAll(smallTable)}}, prefix,
		fmt.Sprintf("  Join-Order: broadcast join, %s replicated to every task node as %s", smallTable, irName))
	return plan, nil
}

// planRepartitionJoin re-partitions both relations on the join key into
// per-worker buckets and joins co-located buckets (§3.5 "re-partition
// joins").
func (n *Node) planRepartitionJoin(sel *sql.SelectStmt, params []types.Datum, a, b string) (*distPlan, error) {
	// find the equality join conjunct linking a and b
	keyA, keyB, ok := n.findJoinKey(sel, a, b)
	if !ok {
		return nil, fmt.Errorf("cannot repartition: no equality join condition between %q and %q", a, b)
	}
	prefix := n.resultName("repart") + "_"
	sides := []repartSide{{a, keyA, prefix + "a"}, {b, keyB, prefix + "b"}}

	workers := n.Meta.WorkerNodes()
	rewritten, err := sql.CloneStatement(sel)
	if err != nil {
		return nil, err
	}
	sql.RewriteTables(rewritten, func(name string) string {
		for _, side := range sides {
			if name == side.table {
				return side.name
			}
		}
		return name
	})
	pq, err := n.buildPushdownQueries(rewritten.(*sql.SelectStmt), n.resultName("merge"))
	if err != nil {
		return nil, err
	}
	if pq.topN {
		metTopNPushdowns.Add(1)
	}
	// every bucket's task runs the same text: the buckets share their names
	workerSQL := pq.worker.String()

	plan := &distPlan{
		node:    n,
		columns: pq.columns,
		merge:   pq.merge,
		explain: []string{
			"Custom Scan (Citus Adaptive)",
			fmt.Sprintf("  Join-Order: re-partition join on %s.%s = %s.%s into %d buckets", a, keyA, b, keyB, len(workers)),
			"  Merge Step: " + pq.merge.String(),
		},
	}
	plan.cleanupOn(prefix)
	plan.prepare = func(s *engine.Session, params []types.Datum) ([]task, error) {
		if err := n.repartitionTables(s, workers, sides); err != nil {
			return nil, err
		}
		tasks := make([]task, len(workers))
		for i, w := range workers {
			tasks[i] = task{nodeID: w.ID, shardGroup: -1, sql: workerSQL, params: params}
		}
		return tasks, nil
	}
	return plan, nil
}

// repartSide is one relation of a repartition join: its table, join key and
// bucket relation name.
type repartSide struct{ table, key, name string }

// findJoinKey locates the equality conjunct joining tables a and b and
// returns the two column names.
func (n *Node) findJoinKey(sel *sql.SelectStmt, a, b string) (string, string, bool) {
	// alias map
	aliases := map[string]string{}
	sql.WalkTables(sel, func(bt *sql.BaseTable) {
		aliases[bt.RefName()] = bt.Name
	})
	var conjuncts []sql.Expr
	conjuncts = append(conjuncts, splitAnd(sel.Where)...)
	var gatherTR func(tr sql.TableRef)
	gatherTR = func(tr sql.TableRef) {
		if j, ok := tr.(*sql.JoinRef); ok {
			gatherTR(j.Left)
			gatherTR(j.Right)
			conjuncts = append(conjuncts, splitAnd(j.On)...)
		}
	}
	for _, tr := range sel.From {
		gatherTR(tr)
	}
	for _, c := range conjuncts {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != sql.OpEq {
			continue
		}
		lc, lok := be.L.(*sql.ColumnRef)
		rc, rok := be.R.(*sql.ColumnRef)
		if !lok || !rok || lc.Table == "" || rc.Table == "" {
			continue
		}
		lt, rt := aliases[lc.Table], aliases[rc.Table]
		if lt == a && rt == b {
			return lc.Name, rc.Name, true
		}
		if lt == b && rt == a {
			return rc.Name, lc.Name, true
		}
	}
	return "", "", false
}

// repartitionTables reads every shard of each side's table (filters and
// projections could be pushed here; we ship full rows), hashes the rows on
// the side's join key into one bucket per worker, and ships all the buckets
// as append tasks of one executeTasks call: bucket i of a side becomes its
// relation on workers[i].
func (n *Node) repartitionTables(s *engine.Session, workers []*metadata.Node, sides []repartSide) error {
	var reads []task
	bounds := []int{0} // side i's reads are reads[bounds[i]:bounds[i+1]]
	for _, side := range sides {
		for _, sh := range n.Meta.Shards(side.table) {
			nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
			if err != nil {
				return err
			}
			reads = append(reads, task{
				nodeID: nodeID, shardGroup: -1,
				sql:       "SELECT * FROM " + sh.ShardName(),
				readNodes: n.Meta.ReadPlacements(sh.ID),
			})
		}
		bounds = append(bounds, len(reads))
	}
	results, err := n.executeTasks(s, reads)
	if err != nil {
		return err
	}
	var appends []task
	for i, side := range sides {
		var cols []string
		buckets := make([][]types.Row, len(workers))
		for _, r := range results[bounds[i]:bounds[i+1]] {
			if r == nil {
				continue
			}
			cols = r.Columns
			keyIdx := slices.Index(cols, side.key)
			if keyIdx == -1 {
				return fmt.Errorf("join key %q not found in %q", side.key, side.table)
			}
			for _, row := range r.DecodeRows() {
				bucket := int(uint32(types.HashDatum(row[keyIdx]))) % len(workers)
				buckets[bucket] = append(buckets[bucket], row)
			}
		}
		for w, node := range workers {
			appends = append(appends, appendTask(node.ID, side.name, cols, buckets[w]))
		}
	}
	_, err = n.executeTasks(s, appends)
	return err
}
