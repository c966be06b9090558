package citus

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/wal"
)

// RebalanceTableShards implements the shard rebalancer (§3.4): it moves
// shards (together with their co-located shards) between worker nodes until
// every worker holds an even number of shards. Returns the number of shard
// moves performed.
//
// Shard moves reproduce the paper's logical-replication flow: a snapshot of
// the shard group is copied while it keeps serving reads and writes, the
// WAL since the snapshot streams to the target, then writes are briefly
// blocked on the source while the last of it is drained and the placements
// flip ("the last few steps typically only take a few seconds, hence there
// is minimal write downtime").
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

// MoveShardPlacement moves a shard and its co-located shards — the shard
// group, so joins and foreign keys on the distribution column stay local —
// from one node to another, as one unit.
func (n *Node) MoveShardPlacement(s *engine.Session, shardID int64, from, to int) error {
	sh, ok := n.Meta.ShardByID(shardID)
	if !ok {
		return fmt.Errorf("shard %d does not exist", shardID)
	}
	dt, ok := n.Meta.Table(sh.Table)
	if !ok {
		return fmt.Errorf("shard %d has no distributed table", shardID)
	}
	var group []*metadata.Shard // ordered by table name: every move locks in one order
	for _, t := range n.Meta.Tables() {
		if t.Type == metadata.DistributedTable && t.ColocationID == dt.ColocationID {
			if shards := n.Meta.Shards(t.Name); sh.Index < len(shards) {
				group = append(group, shards[sh.Index])
			}
		}
	}
	return n.moveGroup(s, group, from, to)
}

var metWriteBlocked = obs.Default().Histogram("rebalance_write_blocked_ms",
	"per shard-group move that requested its write block: milliseconds from requesting the exclusive locks on the source shards to the flip, or to the move giving way when they are not granted",
	obs.ExponentialBounds(1, 2, 16)).With()

// ErrWriteBlockTimeout fails a shard move whose write block was not granted
// within one deadlock-detection interval: a writer of the group stayed open
// (idle in its transaction, or prepared and not yet resolved) while later
// writers queued behind the move. The move gives way to them and leaves the
// placements as they were; it can be retried.
var ErrWriteBlockTimeout = errors.New("writers of the shard group did not finish within the deadlock-detection interval; retry the move")

// moveGroup runs the logical-replication move flow (§3.4) for one shard
// group. Every stage evaluates the rebalance.move fault point (keyed by stage
// name) so chaos tests can interrupt a move at any seam. The flip in
// metadata_flip is the commit point: an interruption before it leaves the
// placements as they were and at worst orphan target tables, which the next
// attempt clears before re-creating the shards — so failed moves are
// retryable.
func (n *Node) moveGroup(s *engine.Session, group []*metadata.Shard, from, to int) error {
	stage := func(name string) error {
		if err := fault.CheckKey(fault.PointRebalanceMove, name); err != nil {
			return fmt.Errorf("moving shard group of %d: %w", group[0].ID, err)
		}
		return nil
	}
	names := make([]string, len(group))
	ids := make([]int64, len(group))
	for i, sh := range group {
		names[i], ids[i] = sh.ShardName(), sh.ID
	}
	dst, ok := n.peerEngine(to)
	if !ok {
		return fmt.Errorf("node %d engine is not reachable for replication", to)
	}

	// 1. create the target shard tables, dropping any orphan an interrupted
	// move left behind (the target never holds a live placement at this
	// point — the metadata still routes to the source)
	if err := stage("create_shard"); err != nil {
		return err
	}
	for _, sh := range group {
		ct, indexes, err := n.schemaStatements(sh.Table)
		if err == nil {
			_, err = dst.NewSession().Exec("DROP TABLE IF EXISTS " + sh.ShardName())
		}
		if err == nil {
			err = n.createShardOnNode(s, to, sh, ct, indexes)
		}
		if err != nil {
			return err
		}
	}

	// 2. snapshot copy while the source keeps serving traffic, read at the
	// catch-up stream's start point
	if err := stage("snapshot_copy"); err != nil {
		return err
	}
	src, ok := n.peerEngine(from)
	if !ok {
		return fmt.Errorf("node %d engine is not reachable for replication", from)
	}
	start, tuples, hold, err := src.CopyStart(names)
	if err != nil {
		return err
	}
	defer hold.Release()
	for i, name := range names {
		if _, err := dst.NewSession().CopyTuples(name, tuples[i]); err != nil {
			return err
		}
	}

	// 3. catch up while writes go on; then block them on the source worker —
	// whichever coordinator sends them — drain, and flip the whole group
	if err := stage("catchup"); err != nil {
		return err
	}
	// the engine serving the source now: if the node restarted since the
	// copy, its new log does not reach back to the start point, and the
	// catch-up must fail on it rather than read the old one's
	if src, ok = n.peerEngine(from); !ok {
		return fmt.Errorf("node %d engine is not reachable for replication", from)
	}
	c := &catchup{start: start, pos: start.Redo - 1, shards: map[string]bool{}, pending: map[uint64][]wal.Record{}}
	for _, name := range names {
		c.shards[name] = true
	}
	if err := c.run(src, dst); err != nil {
		return err
	}
	block := src.NewSession()
	if _, err := block.Exec("BEGIN"); err != nil {
		return err
	}
	defer block.Exec("ROLLBACK") // a no-op once the block has committed
	blocked := time.Now()        // writers queue behind the first exclusive request
	if err := n.blockWrites(block, names); err != nil {
		metWriteBlocked.Observe(time.Since(blocked).Milliseconds())
		return fmt.Errorf("blocking writes to shard group of %d: %w", ids[0], err)
	}
	if err := c.run(src, dst); err != nil {
		return err
	}
	if len(c.pending) > 0 {
		// under the exclusive lock only a prepared transaction the source
		// adopted from its log (which holds no locks) can still be open
		return fmt.Errorf("moving shard group of %d: %d transactions that wrote to it are unresolved", ids[0], len(c.pending))
	}
	if err := stage("metadata_flip"); err != nil {
		return err
	}
	if err := n.Meta.MovePlacement(ids, from, to); err != nil {
		return err
	}
	metWriteBlocked.Observe(time.Since(blocked).Milliseconds())

	// 4. drop the source shards before the write block ends: the writes it
	// held off find them gone, and a one-task write is planned again against
	// the new placement (distPlan.replan). The move is already durable in the metadata; when the drop
	// fails the orphans stay behind, and the held-off writes are cancelled
	// rather than let through to them.
	err = stage("drop_source")
	for _, name := range names {
		if err == nil {
			_, err = block.Exec("DROP TABLE IF EXISTS " + name)
		}
	}
	if err != nil {
		src.CancelWaiters(names...)
		return err
	}
	_, err = block.Exec("COMMIT")
	return err
}

// catchup streams a move's source log from pos, in LSN order, into the
// target: the records of the group's shards collect per transaction and go
// over as one transaction of the target's at its commit or COMMIT PREPARED
// record (engine.ApplyTxn), or are dropped at its abort. A transaction the
// start point's snapshot saw ended is in the copy already, and is skipped.
type catchup struct {
	start   *wal.Base
	pos     int64
	shards  map[string]bool
	pending map[uint64][]wal.Record
}

// run applies what the source's log holds beyond pos. It fails if the log no
// longer holds the records after pos — the source restarted under the move
// and its new log, which the move does not hold, was cut: catching up from
// what is left would silently drop writes.
func (c *catchup) run(src, dst *engine.Engine) error {
	recs, err := src.WAL.Since(c.pos)
	if err != nil {
		return fmt.Errorf("moving shard group: %w", err)
	}
	for _, r := range recs {
		c.pos = r.LSN
		switch r.Type {
		case wal.RecInsert, wal.RecDelete:
			if c.shards[r.Table] && !c.start.Settled(r.XID) {
				c.pending[r.XID] = append(c.pending[r.XID], r)
			}
		case wal.RecCommit, wal.RecCommitPrepared:
			if txn, ok := c.pending[r.XID]; ok {
				delete(c.pending, r.XID)
				if err := dst.ApplyTxn(txn); err != nil {
					return err
				}
			}
		case wal.RecAbort, wal.RecAbortPrepared:
			delete(c.pending, r.XID)
		case wal.RecDDL: // below At, the DDL the snapshot — and the copy — saw
			if r.LSN >= c.start.At && c.shards[ddlTable(dst, r.Name)] {
				return fmt.Errorf("moving shard group: %q ran on the source during the move", r.Name)
			}
		}
	}
	return nil
}

// ddlTable is the table a DDL statement changes; a dropped index's is the
// table that has an index of that name on dst, the move's target.
func ddlTable(dst *engine.Engine, ddl string) string {
	switch st, _ := sql.Parse(ddl); st := st.(type) {
	case *sql.DropIndexStmt:
		table, _ := dst.Catalog.IndexTable(st.Name)
		return table
	case *sql.AlterTableAddColumnStmt:
		return st.Table
	case *sql.CreateIndexStmt:
		return st.Table
	case *sql.TruncateStmt:
		return st.Name
	case *sql.DropTableStmt:
		return st.Name
	}
	return ""
}

// blockWrites takes the exclusive relation lock on the source shards in
// block's transaction. It waits out their open and prepared writers, and
// every later writer of the group queues behind it, so it waits at most one
// deadlock-detection interval of the coordinator's: by then a detector has
// broken any cycle through the move, and a writer still in the way is idle
// or unresolved. The move then cancels its own request, the queued writers
// go ahead, and the move fails with ErrWriteBlockTimeout. With the detector
// off, the wait has no limit.
func (n *Node) blockWrites(block *engine.Session, names []string) error {
	if n.Cfg.DeadlockInterval <= 0 {
		return block.LockExclusive(names...)
	}
	timer := time.AfterFunc(n.Cfg.DeadlockInterval, block.Txn().Cancel)
	err := block.LockExclusive(names...)
	if !timer.Stop() {
		return ErrWriteBlockTimeout
	}
	return err
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
