package citus

import (
	"fmt"
	"sort"
	"sync"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// copyHook intercepts COPY into Citus tables (§3.8: "the coordinator opens
// COPY commands for each of the shards and streams rows to the shards
// asynchronously, which means writes are partially parallelized across
// cores even with a single client").
func (n *Node) copyHook(s *engine.Session, table string, columns []string, rows []types.Row) (bool, int, error) {
	dt, ok := n.Meta.Table(table)
	if !ok {
		return false, 0, nil
	}
	if !n.canCoordinate() {
		return true, 0, fmt.Errorf("node %d cannot COPY into distributed tables without metadata", n.ID)
	}
	if s.InTransaction() {
		return true, 0, fmt.Errorf("COPY into distributed tables inside a transaction block is not supported")
	}
	n.copyStatementsTotal.Add(1)
	count, err := n.distributeRows(table, dt, columns, rows)
	return true, count, err
}

// distributeRows routes rows to their shards and streams them with
// per-shard COPY commands, parallelized across connections.
func (n *Node) distributeRows(table string, dt *metadata.DistTable, columns []string, rows []types.Row) (int, error) {
	cols := columns
	tbl, hasLocal := n.Eng.Catalog.Get(table)
	if len(cols) == 0 {
		if !hasLocal {
			return 0, fmt.Errorf("relation %q does not exist", table)
		}
		cols = tbl.ColumnNames()
	}

	shards := n.Meta.Shards(table)
	byShard := make(map[int][]types.Row)
	if dt.Type == metadata.ReferenceTable {
		byShard[0] = rows
	} else {
		distIdx := -1
		for i, c := range cols {
			if c == dt.DistColumn {
				distIdx = i
				break
			}
		}
		if distIdx == -1 {
			return 0, fmt.Errorf("COPY into %q must include the distribution column %q", table, dt.DistColumn)
		}
		for _, row := range rows {
			if distIdx >= len(row) || row[distIdx] == nil {
				return 0, fmt.Errorf("cannot COPY NULL into distribution column %q", dt.DistColumn)
			}
			sh, err := n.Meta.ShardForValue(table, row[distIdx])
			if err != nil {
				return 0, err
			}
			byShard[sh.Index] = append(byShard[sh.Index], row)
		}
	}

	// one stream per shard placement, parallel across connections
	type shardBatch struct {
		shard  *metadata.Shard
		nodeID int
		rows   []types.Row
	}
	var batches []shardBatch
	idxs := make([]int, 0, len(byShard))
	for idx := range byShard {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		sh := shards[idx]
		for _, nodeID := range n.Meta.Placements(sh.ID) {
			batches = append(batches, shardBatch{shard: sh, nodeID: nodeID, rows: byShard[idx]})
		}
	}

	// paper: async per-shard streams — model with a small worker pool per
	// node so a single COPY client still uses several cores per node
	const copyStreamsPerNode = 4
	byNode := make(map[int][]shardBatch)
	for _, b := range batches {
		byNode[b.nodeID] = append(byNode[b.nodeID], b)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	total := 0
	for nodeID, nodeBatches := range byNode {
		streams := copyStreamsPerNode
		if len(nodeBatches) < streams {
			streams = len(nodeBatches)
		}
		work := make(chan shardBatch, len(nodeBatches))
		for _, b := range nodeBatches {
			work <- b
		}
		close(work)
		for w := 0; w < streams; w++ {
			wg.Add(1)
			go func(nodeID int) {
				defer wg.Done()
				p, err := n.poolFor(nodeID)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				// Each stream flushes its shard batches through one pipelined
				// window: all COPY requests for this connection are encoded
				// back-to-back and the per-shard results drained afterwards,
				// so a stream pays one round trip for its whole queue instead
				// of one per shard. At PipelineWindow 1 every request is
				// drained as it is sent: the sequential round-trip loop.
				type flight struct {
					pd      *wire.Pending
					shardID int64
				}
				var conn *wire.Conn
				var pl *wire.Pipeline
				var inflight []flight
				for b := range work {
					if conn == nil {
						c, err := n.acquireConn(p, nodeID, true)
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							return
						}
						conn = c.conn
						pl = conn.Pipeline(n.Cfg.PipelineWindow)
					}
					inflight = append(inflight, flight{
						pd:      pl.Copy(b.shard.ShardName(), cols, b.rows),
						shardID: b.shard.ID,
					})
				}
				if conn == nil {
					return
				}
				_ = pl.Flush()
				broken := false
				mu.Lock()
				for _, f := range inflight {
					cnt, err := f.pd.Affected()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						if wire.IsTransient(err) {
							broken = true
						}
						continue
					}
					// count only the primary placement toward the total
					if n.Meta.Placements(f.shardID)[0] == nodeID {
						total += cnt
					}
				}
				mu.Unlock()
				// a transport-level failure leaves the connection desynced:
				// discard it instead of recycling it into the pool
				if broken {
					p.Discard(conn)
				} else {
					p.Put(conn)
				}
			}(nodeID)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	// Replication barrier, as for any autocommit write (executeTasks): the
	// workers committed their batches inside the COPY round trips, and the
	// client is not acknowledged — nor does its next statement read a
	// standby — until the rows are on the standbys too.
	if n.SyncWaiter != nil {
		for nodeID := range byNode {
			if err := n.SyncWaiter(nodeID); err != nil {
				return 0, fmt.Errorf("replication wait after COPY on node %d: %w", nodeID, err)
			}
		}
	}
	return total, nil
}

// buildInsertTasks turns materialized rows into batched INSERT tasks per
// shard (used by the via-coordinator INSERT..SELECT strategy, which must
// stay transactional — unlike COPY, these run in the distributed
// transaction and commit via 2PC).
func (n *Node) buildInsertTasks(table string, dt *metadata.DistTable, cols []string, rows []types.Row, params []types.Datum) ([]task, error) {
	const batch = 500
	byShard := make(map[int][]types.Row)
	if dt.Type == metadata.ReferenceTable {
		byShard[0] = rows
	} else {
		distIdx := -1
		for i, c := range cols {
			if c == dt.DistColumn {
				distIdx = i
				break
			}
		}
		if distIdx == -1 {
			return nil, fmt.Errorf("INSERT into %q must include the distribution column %q", table, dt.DistColumn)
		}
		for _, row := range rows {
			if row[distIdx] == nil {
				return nil, fmt.Errorf("cannot insert NULL into distribution column %q", dt.DistColumn)
			}
			sh, err := n.Meta.ShardForValue(table, row[distIdx])
			if err != nil {
				return nil, err
			}
			byShard[sh.Index] = append(byShard[sh.Index], row)
		}
	}
	shards := n.Meta.Shards(table)
	var tasks []task
	idxs := make([]int, 0, len(byShard))
	for idx := range byShard {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		shardRows := byShard[idx]
		sh := shards[idx]
		placements := n.Meta.Placements(sh.ID)
		for start := 0; start < len(shardRows); start += batch {
			end := start + batch
			if end > len(shardRows) {
				end = len(shardRows)
			}
			text := (&engineInsert{table: sh.ShardName(), cols: cols, rows: shardRows[start:end]}).SQL()
			for i, nodeID := range placements {
				tasks = append(tasks, task{
					nodeID:     nodeID,
					shardGroup: metadata.ShardGroupID(dt.ColocationID, sh.Index),
					sql:        text,
					params:     params,
					isWrite:    true,
					replica:    i > 0,
				})
			}
		}
	}
	return tasks, nil
}

// engineInsert deparses a literal-valued INSERT.
type engineInsert struct {
	table string
	cols  []string
	rows  []types.Row
}

func (e *engineInsert) SQL() string {
	var sb []byte
	sb = append(sb, "INSERT INTO "...)
	sb = append(sb, e.table...)
	sb = append(sb, " ("...)
	for i, c := range e.cols {
		if i > 0 {
			sb = append(sb, ", "...)
		}
		sb = append(sb, c...)
	}
	sb = append(sb, ") VALUES "...)
	for i, row := range e.rows {
		if i > 0 {
			sb = append(sb, ", "...)
		}
		sb = append(sb, '(')
		for j, v := range row {
			if j > 0 {
				sb = append(sb, ", "...)
			}
			sb = append(sb, types.QuoteLiteral(v)...)
		}
		sb = append(sb, ')')
	}
	return string(sb)
}
