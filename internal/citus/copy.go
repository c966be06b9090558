package citus

import (
	"fmt"
	"slices"
	"strings"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// copyHook intercepts COPY into Citus tables (§3.8: "the coordinator opens
// COPY commands for each of the shards and streams rows to the shards
// asynchronously, which means writes are partially parallelized across
// cores even with a single client"). The per-shard COPY commands are tasks
// of the adaptive executor, so they share its slow start, pipelined windows
// and connection limit, and a COPY that touches several shards is one
// distributed transaction like any multi-shard write.
func (n *Node) copyHook(s *engine.Session, table string, columns []string, rows []types.Row) (bool, int, error) {
	dt, ok := n.Meta.Table(table)
	if !ok {
		return false, 0, nil
	}
	if !n.canCoordinate() {
		return true, 0, fmt.Errorf("node %d cannot COPY into distributed tables without metadata", n.ID)
	}
	cols := columns
	if len(cols) == 0 {
		tbl, ok := n.Eng.Catalog.Get(table)
		if !ok {
			return true, 0, fmt.Errorf("relation %q does not exist", table)
		}
		cols = tbl.ColumnNames()
	}
	res, err := n.writeRows(s, dt, cols, rows)
	if err != nil {
		return true, 0, err
	}
	return true, res.Affected, nil
}

// writeRows routes rows into dt's shards (copyTasks) and runs the COPY
// tasks as one distributed write in the session's transaction.
func (n *Node) writeRows(s *engine.Session, dt *metadata.DistTable, cols []string, rows []types.Row) (*engine.Result, error) {
	tasks, err := n.copyTasks(dt, cols, rows)
	if err != nil {
		return nil, err
	}
	plan := &distPlan{node: n, tasks: tasks, isDML: true, tag: "COPY"}
	var res *engine.Result
	err = s.WithTxn(func(*txn.Txn) (err error) {
		res, err = plan.Execute(s, nil)
		return err
	})
	return res, err
}

// copyTasks is the one way typed rows reach shards: a COPY task per
// placement of each shard routeRows gives rows, in shard order, every
// placement but the first a replica.
func (n *Node) copyTasks(dt *metadata.DistTable, cols []string, rows []types.Row) ([]task, error) {
	routed, err := n.routeRows(dt, cols, rows, "COPY")
	if err != nil {
		return nil, err
	}
	var tasks []task
	for _, r := range routed {
		for i, nodeID := range n.Meta.Placements(r.shard.ID) {
			tasks = append(tasks, task{
				nodeID:     nodeID,
				shardGroup: metadata.ShardGroupID(dt.ColocationID, r.shard.Index),
				sql:        r.shard.ShardName(),
				copyCols:   cols,
				copyRows:   r.rows,
				isWrite:    true,
				replica:    i > 0,
			})
		}
	}
	return tasks, nil
}

// shardRows are the rows routed to one shard.
type shardRows struct {
	shard *metadata.Shard
	rows  []types.Row
}

// routeRows groups rows by the shard their distribution column hashes to (a
// reference table's one shard takes them all), in shard order, leaving out
// shards that get none. verb names the statement in the errors: "COPY", or
// "insert" for INSERT..SELECT.
func (n *Node) routeRows(dt *metadata.DistTable, cols []string, rows []types.Row, verb string) ([]shardRows, error) {
	shards := n.Meta.Shards(dt.Name)
	byShard := make([][]types.Row, len(shards)) // by shard index
	if dt.Type == metadata.ReferenceTable {
		byShard[0] = rows
	} else {
		distIdx := slices.Index(cols, dt.DistColumn)
		if distIdx == -1 {
			return nil, fmt.Errorf("%s into %q must include the distribution column %q", strings.ToUpper(verb), dt.Name, dt.DistColumn)
		}
		for _, row := range rows {
			if distIdx >= len(row) || row[distIdx] == nil {
				return nil, fmt.Errorf("cannot %s NULL into distribution column %q", verb, dt.DistColumn)
			}
			sh, err := n.Meta.ShardForValue(dt.Name, row[distIdx])
			if err != nil {
				return nil, err
			}
			byShard[sh.Index] = append(byShard[sh.Index], row)
		}
	}
	var routed []shardRows
	for idx, r := range byShard {
		if len(r) > 0 {
			routed = append(routed, shardRows{shards[idx], r})
		}
	}
	return routed, nil
}
