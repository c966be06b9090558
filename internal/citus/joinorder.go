package citus

import (
	"fmt"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/sql"
	"citusgo/internal/types"
	"citusgo/internal/wire"
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
	// subqueries with their own distributed tables are out of scope here
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
	// worker; repartition ships each relation once
	costBroadcastA := rowsA * workers
	costBroadcastB := rowsB * workers
	costRepartition := rowsA + rowsB

	switch {
	case costBroadcastA <= costBroadcastB && costBroadcastA <= costRepartition:
		return n.planBroadcastJoin(sel, params, a, b)
	case costBroadcastB <= costRepartition:
		return n.planBroadcastJoin(sel, params, b, a)
	default:
		return n.planRepartitionJoin(sel, params, a, b)
	}
}

// distTableRows sums the row estimates of a table's shards.
func (n *Node) distTableRows(table string) (int64, error) {
	var total int64
	for _, sh := range n.Meta.Shards(table) {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return 0, err
		}
		var rows int64
		var rerr error
		n.withNodeConn(nodeID, func(c *wire.Conn) error {
			rows, rerr = c.TableRows(sh.ShardName())
			return rerr
		})
		if rerr != nil {
			return 0, rerr
		}
		total += rows
	}
	return total, nil
}

// planBroadcastJoin materializes smallTable on every worker as an
// intermediate result and delegates the rewritten query to the pushdown
// planner (§3.5 "broadcast joins").
func (n *Node) planBroadcastJoin(sel *sql.SelectStmt, params []types.Datum, smallTable, bigTable string) (*distPlan, error) {
	prefix := fmt.Sprintf("citus_bcast_%d_", n.distSeq.Add(1))
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
	inner, err := shape.plan(n, params, false)
	if err != nil {
		return nil, err
	}
	inner.explain = append([]string{
		"Custom Scan (Citus Adaptive)",
		fmt.Sprintf("  Join-Order: broadcast join, %s replicated to all workers as %s", smallTable, irName),
	}, inner.explain[1:]...)
	inner.cleanupPrefix = prefix
	for _, node := range n.Meta.ActiveNodes() {
		inner.cleanupNodes = append(inner.cleanupNodes, node.ID)
	}

	// the tasks read the broadcast intermediate result, which is shipped to
	// primary workers only — pin them there instead of replica-routing
	for i := range inner.tasks {
		inner.tasks[i].readNodes = nil
	}

	innerPrepare := inner.prepare
	staticTasks := inner.tasks
	inner.tasks = nil
	inner.prepare = func(s *engine.Session, params []types.Datum) ([]task, error) {
		// subplan: pull the small table (as a distributed SELECT) and ship
		// it to every worker
		res, err := s.Exec("SELECT * FROM " + smallTable)
		if err != nil {
			return nil, err
		}
		for _, node := range n.Meta.WorkerNodes() {
			if node.ID == n.ID {
				continue // appended locally below
			}
			var serr error
			n.withNodeConn(node.ID, func(c *wire.Conn) error {
				serr = c.AppendIntermediateResult(irName, res.Columns, res.Rows)
				return serr
			})
			if serr != nil {
				return nil, serr
			}
		}
		// the coordinator may also run tasks (0+1 clusters, reference joins)
		n.Eng.AppendIntermediateResult(irName, res.Columns, res.Rows)
		if innerPrepare != nil {
			return innerPrepare(s, params)
		}
		return staticTasks, nil
	}
	return inner, nil
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
	seq := n.distSeq.Add(1)
	nameA := fmt.Sprintf("citus_repart_%d_a", seq)
	nameB := fmt.Sprintf("citus_repart_%d_b", seq)

	workers := n.Meta.WorkerNodes()
	buckets := len(workers)

	rewritten, err := sql.CloneStatement(sel)
	if err != nil {
		return nil, err
	}
	sql.RewriteTables(rewritten, func(name string) string {
		switch name {
		case a:
			return nameA
		case b:
			return nameB
		default:
			return name
		}
	})
	pq, err := n.buildPushdownQueries(rewritten.(*sql.SelectStmt), fmt.Sprintf("citus_merge_%d", seq))
	if err != nil {
		return nil, err
	}
	if pq.topN {
		metTopNPushdowns.Add(1)
	}
	// every bucket's task runs the same text: the buckets share their names
	workerSQL := pq.worker.String()

	plan := &distPlan{
		node:          n,
		columns:       pq.columns,
		merge:         pq.merge,
		cleanupPrefix: fmt.Sprintf("citus_repart_%d_", seq),
		explain: []string{
			"Custom Scan (Citus Adaptive)",
			fmt.Sprintf("  Join-Order: re-partition join on %s.%s = %s.%s into %d buckets", a, keyA, b, keyB, buckets),
			"  Merge Step: " + pq.merge.String(),
		},
	}
	for _, node := range n.Meta.ActiveNodes() {
		plan.cleanupNodes = append(plan.cleanupNodes, node.ID)
	}

	plan.prepare = func(s *engine.Session, params []types.Datum) ([]task, error) {
		if err := n.repartitionTable(s, a, keyA, nameA, workers); err != nil {
			return nil, err
		}
		if err := n.repartitionTable(s, b, keyB, nameB, workers); err != nil {
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

// repartitionTable reads each shard of a table (filters/projections could
// be pushed here; we ship full rows) and redistributes the rows by the hash
// of the join key into one intermediate result per worker.
func (n *Node) repartitionTable(s *engine.Session, table, key, irName string, workers []*metadata.Node) error {
	shards := n.Meta.Shards(table)
	var selTasks []task
	for _, sh := range shards {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return err
		}
		selTasks = append(selTasks, task{
			nodeID: nodeID, shardGroup: -1,
			sql:       "SELECT * FROM " + sh.ShardName(),
			readNodes: n.Meta.ReadPlacements(sh.ID),
		})
	}
	results, err := n.executeTasks(s, selTasks)
	if err != nil {
		return err
	}
	var cols []string
	keyIdx := -1
	buckets := make([][]types.Row, len(workers))
	for _, r := range results {
		if r == nil {
			continue
		}
		if cols == nil {
			cols = r.Columns
			for i, c := range cols {
				if c == key {
					keyIdx = i
				}
			}
			if keyIdx == -1 {
				return fmt.Errorf("join key %q not found in %q", key, table)
			}
		}
		for _, row := range r.DecodeRows() {
			h := types.HashDatum(row[keyIdx])
			bucket := int(uint32(h)) % len(workers)
			buckets[bucket] = append(buckets[bucket], row)
		}
	}
	for i, w := range workers {
		var serr error
		n.withNodeConn(w.ID, func(c *wire.Conn) error {
			serr = c.AppendIntermediateResult(irName, cols, buckets[i])
			return serr
		})
		if serr != nil {
			return serr
		}
	}
	return nil
}
