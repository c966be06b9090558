package citus

import (
	"fmt"
	"sort"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/types"
	"citusgo/internal/wal"
	"citusgo/internal/wire"
)

// RebalanceTableShards implements the shard rebalancer (§3.4): it moves
// shards (together with their co-located shards) between worker nodes until
// every worker holds an even number of shards. Returns the number of shard
// moves performed.
//
// Shard moves reproduce the paper's logical-replication flow: a snapshot of
// the shard is copied while it keeps serving reads and writes, then writes
// are briefly blocked while the WAL delta since the snapshot is replayed on
// the target ("the last few steps typically only take a few seconds, hence
// there is minimal write downtime").
func (n *Node) RebalanceTableShards(s *engine.Session) (int, error) {
	workers := n.Meta.WorkerNodes()
	if len(workers) < 2 {
		return 0, nil
	}
	moves := 0
	for {
		move := n.planNextMove(workers)
		if move == nil {
			return moves, nil
		}
		if err := n.MoveShardPlacement(s, move.shardID, move.from, move.to); err != nil {
			return moves, err
		}
		moves++
	}
}

type shardMove struct {
	shardID int64
	from    int
	to      int
}

// planNextMove finds the most imbalanced pair of workers and picks a shard
// to move (the default "even number of shards" policy; custom cost and
// capacity policies are future work, as in the paper's reference [7]).
func (n *Node) planNextMove(workers []*metadata.Node) *shardMove {
	counts := make(map[int]int)
	shardOn := make(map[int][]int64)
	for _, w := range workers {
		counts[w.ID] = 0
	}
	for _, dt := range n.Meta.Tables() {
		if dt.Type != metadata.DistributedTable {
			continue
		}
		for _, sh := range n.Meta.Shards(dt.Name) {
			nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
			if err != nil {
				continue
			}
			counts[nodeID]++
			shardOn[nodeID] = append(shardOn[nodeID], sh.ID)
		}
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	maxNode, minNode := -1, -1
	for _, id := range ids {
		if maxNode == -1 || counts[id] > counts[maxNode] {
			maxNode = id
		}
		if minNode == -1 || counts[id] < counts[minNode] {
			minNode = id
		}
	}
	if maxNode == -1 || counts[maxNode]-counts[minNode] <= 1 {
		return nil
	}
	shards := shardOn[maxNode]
	if len(shards) == 0 {
		return nil
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	return &shardMove{shardID: shards[0], from: maxNode, to: minNode}
}

// MoveShardPlacement moves one shard (and its co-located shards) from one
// node to another.
func (n *Node) MoveShardPlacement(s *engine.Session, shardID int64, from, to int) error {
	sh, ok := n.Meta.ShardByID(shardID)
	if !ok {
		return fmt.Errorf("shard %d does not exist", shardID)
	}
	dt, ok := n.Meta.Table(sh.Table)
	if !ok {
		return fmt.Errorf("shard %d has no distributed table", shardID)
	}
	// move all co-located shards with the same index together, so joins
	// and foreign keys on the distribution column stay local
	group := []*metadata.Shard{sh}
	for _, other := range n.Meta.Tables() {
		if other.Name == dt.Name || other.Type != metadata.DistributedTable ||
			other.ColocationID != dt.ColocationID {
			continue
		}
		shards := n.Meta.Shards(other.Name)
		if sh.Index < len(shards) {
			group = append(group, shards[sh.Index])
		}
	}
	for _, g := range group {
		if err := n.moveOneShard(s, g, dt.ColocationID, from, to); err != nil {
			return err
		}
	}
	return nil
}

// moveOneShard runs the logical-replication move flow for one shard. Every
// stage evaluates the rebalance.move fault point (keyed by stage name) so
// chaos tests can interrupt a move at any seam; an interrupted move leaves
// the placement metadata untouched (the flip in stage 3 is the commit
// point) and at worst an orphan target table, which the next attempt
// clears before re-creating the shard — so failed moves are retryable.
func (n *Node) moveOneShard(s *engine.Session, sh *metadata.Shard, colocationID, from, to int) error {
	dt, _ := n.Meta.Table(sh.Table)
	ct, indexes, err := n.schemaStatements(sh.Table)
	if err != nil {
		return err
	}
	_ = dt
	shardName := sh.ShardName()
	// 1. create the target shard table, dropping any orphan left behind by
	// a previously interrupted move (the target never holds a live
	// placement at this point — the metadata still routes to the source)
	if err := fault.CheckKey(fault.PointRebalanceMove, "create_shard"); err != nil {
		return fmt.Errorf("moving shard %d: %w", sh.ID, err)
	}
	var cleanErr error
	n.withNodeConn(to, func(c *wire.Conn) error {
		_, cleanErr = c.Query("DROP TABLE IF EXISTS " + shardName)
		return cleanErr
	})
	if cleanErr != nil {
		return cleanErr
	}
	if err := n.createShardOnNode(s, to, sh, ct, indexes); err != nil {
		return err
	}

	// 2. snapshot copy while the source keeps serving traffic; remember
	// the WAL position first so the delta can be replayed, and hold the
	// source's log from there on until it has been
	if err := fault.CheckKey(fault.PointRebalanceMove, "snapshot_copy"); err != nil {
		return fmt.Errorf("moving shard %d: %w", sh.ID, err)
	}
	walHold, err := n.holdRemoteWAL(from)
	if err != nil {
		return err
	}
	defer walHold.Release()
	walPos := walHold.LSN() - 1
	if err := n.copyShardRows(from, to, shardName); err != nil {
		return err
	}

	// 3. block writes briefly, replay the WAL delta, flip the metadata
	release := n.fence(metadata.ShardGroupID(colocationID, sh.Index))
	defer release()
	if err := fault.CheckKey(fault.PointRebalanceMove, "catchup"); err != nil {
		return fmt.Errorf("moving shard %d: %w", sh.ID, err)
	}
	if err := n.replayShardDelta(from, to, shardName, walPos); err != nil {
		return err
	}
	if err := fault.CheckKey(fault.PointRebalanceMove, "metadata_flip"); err != nil {
		return fmt.Errorf("moving shard %d: %w", sh.ID, err)
	}
	if err := n.Meta.MovePlacement(sh.ID, from, to); err != nil {
		return err
	}
	// 4. drop the source shard (the move is already durable in the
	// metadata: a failure here strands an orphan source table but queries
	// route to the new placement)
	if err := fault.CheckKey(fault.PointRebalanceMove, "drop_source"); err != nil {
		return fmt.Errorf("moving shard %d: %w", sh.ID, err)
	}
	var derr error
	n.withNodeConn(from, func(c *wire.Conn) error {
		_, derr = c.Query("DROP TABLE IF EXISTS " + shardName)
		return derr
	})
	return derr
}

// holdRemoteWAL takes a node's current WAL position — the holder's LSN is
// the first a delta replay will read — and keeps the node's checkpoints from
// cutting the log above it until the holder is released. For remote nodes we
// reach the log through the loopback engines (the cluster runs in-process);
// a networked deployment would use a replication slot.
func (n *Node) holdRemoteWAL(nodeID int) (*wal.Holder, error) {
	eng, ok := n.peerEngine(nodeID)
	if !ok {
		return nil, fmt.Errorf("node %d engine is not reachable for replication", nodeID)
	}
	return eng.WAL.Hold("shard_move"), nil
}

// RegisterPeerEngine exposes a peer node's engine for shard-move
// replication (the in-process equivalent of a logical replication slot);
// the cluster orchestrator wires it.
func (n *Node) RegisterPeerEngine(id int, e *engine.Engine) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.peers == nil {
		n.peers = make(map[int]*engine.Engine)
	}
	n.peers[id] = e
}

func (n *Node) peerEngine(nodeID int) (*engine.Engine, bool) {
	if nodeID == n.ID {
		return n.Eng, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.peers[nodeID]
	return e, ok
}

// copyShardRows streams the current contents of a shard to the target.
func (n *Node) copyShardRows(from, to int, shardName string) error {
	var rows []types.Row
	var cols []string
	var qerr error
	n.withNodeConn(from, func(c *wire.Conn) error {
		var res *engine.Result
		res, qerr = c.Query("SELECT * FROM " + shardName)
		if qerr == nil {
			rows, cols = res.Rows, res.Columns
		}
		return qerr
	})
	if qerr != nil {
		return qerr
	}
	if len(rows) == 0 {
		return nil
	}
	var cerr error
	n.withNodeConn(to, func(c *wire.Conn) error {
		_, cerr = c.Copy(shardName, cols, rows)
		return cerr
	})
	return cerr
}

// replayShardDelta applies committed WAL changes to the shard since pos —
// the logical-replication catchup step. It fails if the source's log no
// longer holds the records after pos (the source restarted under the move
// and its new log, which the move does not hold, was cut): replaying what
// is left would silently drop writes.
func (n *Node) replayShardDelta(from, to int, shardName string, pos int64) error {
	src, ok := n.peerEngine(from)
	if !ok {
		return fmt.Errorf("node %d engine is not reachable for replication", from)
	}
	recs, err := src.WAL.Since(pos)
	if err != nil {
		return fmt.Errorf("moving %s: %w", shardName, err)
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == wal.RecCommit || r.Type == wal.RecCommitPrepared {
			committed[r.XID] = true
		}
	}
	var deltaIns, deltaDel []types.Row
	for _, r := range recs {
		if r.Table != shardName || !committed[r.XID] {
			continue
		}
		switch r.Type {
		case wal.RecInsert:
			deltaIns = append(deltaIns, r.Row)
		case wal.RecDelete:
			deltaDel = append(deltaDel, r.Row)
		}
	}
	if len(deltaIns) == 0 && len(deltaDel) == 0 {
		return nil
	}
	var rerr error
	n.withNodeConn(to, func(c *wire.Conn) error {
		for _, row := range deltaDel {
			// delete by full-row image
			_, rerr = c.Query(deleteByImageSQL(shardName, row, to, n))
			if rerr != nil {
				return rerr
			}
		}
		if len(deltaIns) > 0 {
			var cols []string
			if tbl, ok := n.Eng.Catalog.Get(shardTableBase(shardName)); ok {
				cols = tbl.ColumnNames()
			}
			_, rerr = c.Copy(shardName, cols, deltaIns)
		}
		return rerr
	})
	return rerr
}

// shardTableBase strips the shard id suffix to find the logical table name.
func shardTableBase(shardName string) string {
	for i := len(shardName) - 1; i >= 0; i-- {
		if shardName[i] == '_' {
			return shardName[:i]
		}
	}
	return shardName
}

// deleteByImageSQL builds a DELETE matching a full row image.
func deleteByImageSQL(shardName string, row types.Row, nodeID int, n *Node) string {
	tbl, ok := n.Eng.Catalog.Get(shardTableBase(shardName))
	if !ok {
		return "DELETE FROM " + shardName + " WHERE false"
	}
	q := "DELETE FROM " + shardName + " WHERE "
	for i, c := range tbl.Columns {
		if i > 0 {
			q += " AND "
		}
		if i < len(row) && row[i] != nil {
			q += c.Name + " = " + types.QuoteLiteral(row[i])
		} else {
			q += c.Name + " IS NULL"
		}
	}
	return q
}
