// Package citus implements the paper's primary contribution: the
// distributed database layer that turns a fleet of single-node SQL engines
// into one distributed database. It plugs into the engine's hook points the
// way the Citus extension plugs into PostgreSQL (§3.1):
//
//   - the planner hook intercepts statements referencing distributed or
//     reference tables and produces distributed query plans through a
//     four-planner hierarchy (fast path → router → logical pushdown →
//     logical join-order, §3.5);
//   - the adaptive executor runs plan tasks over per-worker connection
//     pools with slow-start and a shared connection limit (§3.6);
//   - transaction callbacks implement two-phase commit with commit records
//     and recovery (§3.7.2), and a background daemon detects distributed
//     deadlocks by merging worker lock graphs (§3.7.3);
//   - the utility hook propagates DDL and fans out COPY (§3.8).
package citus

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/pool"
	"citusgo/internal/wake"
	"citusgo/internal/wal"
	"citusgo/internal/wire"
)

// Config tunes a Citus node.
type Config struct {
	// ShardCount is the default shard count for new distributed tables
	// (citus.shard_count; Citus defaults to 32).
	ShardCount int
	// MaxSharedPoolSize caps outgoing connections per worker node
	// (citus.max_shared_pool_size). 0 = 64.
	MaxSharedPoolSize int
	// SlowStartInterval is the adaptive executor's ramp-up period between
	// connection-count increases (citus.executor_slow_start_interval,
	// 10ms in the paper).
	SlowStartInterval time.Duration
	// DeadlockInterval is the distributed deadlock detector's polling
	// period (2s in the paper; tests use a few ms). Negative disables.
	DeadlockInterval time.Duration
	// RecoveryInterval is the 2PC prepared-transaction recovery period.
	// Negative disables.
	RecoveryInterval time.Duration
	// RecoveryGrace is how long a prepared transaction must have been
	// sitting on a worker (by the worker's clock) before the recovery
	// daemon will resolve it. It protects transactions whose coordinator
	// is still between prepare and commit-record write from a wrongful
	// rollback based on a stale ListPrepared snapshot. Default 5s;
	// negative disables (tests that hand-craft orphans resolve at once).
	// WAL-adopted orphans report infinite age and are never graced.
	RecoveryGrace time.Duration
	// PipelineWindow bounds how many requests the executor keeps in flight
	// per worker connection (the libpq-pipeline-mode window): task queues
	// issue through it. 1 is serial issue, every request on a connection its
	// own round trip (the ablation A4 baseline; see docs/wire.md). 0 = 32.
	PipelineWindow int
}

func (c Config) withDefaults() Config {
	if c.ShardCount <= 0 {
		c.ShardCount = 32
	}
	if c.MaxSharedPoolSize <= 0 {
		c.MaxSharedPoolSize = 64
	}
	if c.PipelineWindow <= 0 {
		c.PipelineWindow = wire.DefaultPipelineWindow
	}
	if c.SlowStartInterval == 0 {
		c.SlowStartInterval = 10 * time.Millisecond
	}
	if c.DeadlockInterval == 0 {
		c.DeadlockInterval = 2 * time.Second
	}
	if c.RecoveryInterval == 0 {
		c.RecoveryInterval = 30 * time.Second
	}
	if c.RecoveryGrace == 0 {
		c.RecoveryGrace = 5 * time.Second
	} else if c.RecoveryGrace < 0 {
		c.RecoveryGrace = 0
	}
	return c
}

// Node is one server with the Citus extension loaded: an engine plus the
// distributed layer. Every node in a cluster is a Node; whether it can
// coordinate distributed queries depends on it having the metadata
// (the coordinator always does; workers after metadata sync / MX).
type Node struct {
	ID   int
	Eng  *engine.Engine
	Meta *metadata.Catalog
	Cfg  Config

	mu      sync.Mutex
	dialers map[int]pool.Dialer
	pools   map[int]*pool.NodePool
	peers   map[int]*engine.Engine

	// pg_dist_transaction: commit records for 2PC recovery, each with the
	// holder that keeps its WAL record from being cut while the transaction
	// is unresolved — a restart rebuilds this table from the log. commitMu
	// also serializes record writes against restore-point creation (§3.9).
	commitMu      sync.Mutex
	commitRecords map[string]*wal.Holder

	// ssiCommitMu serializes the SSI merged-graph commit check against the
	// worker commits of other serializable distributed transactions from
	// this coordinator: the graph a transaction validates against must not
	// gain edges from a concurrently committing sibling between the check
	// and the point its own commits become visible.
	ssiCommitMu sync.Mutex

	distSeq  atomic.Uint64
	stopOnce sync.Once
	stopCh   chan struct{}
	daemons  sync.WaitGroup // the running maintenance loops

	// procedures with a distribution argument (§3.8 stored procedure
	// delegation): name -> spec
	procMu    sync.Mutex
	distProcs map[string]DistProcedure

	// planCache caches fast-path router plans keyed by normalized statement
	// text and metadata version (see plancache.go).
	planCache *planCache

	// SyncWaiter, when set by the cluster orchestrator, blocks after an
	// autocommit write/DDL on a node until that node's replication
	// contract is met (sync: all standbys acked; async: lag within bound).
	SyncWaiter func(nodeID int) error

	// inflight counts executeTasks invocations in progress, and idle wakes
	// WaitExecutorIdle when it drops to zero; readRR is the round-robin
	// cursor for replica-read placement choice; nodeLat caches the per-node
	// task-latency histogram children.
	inflight atomic.Int64
	idle     wake.Notifier
	readRR   atomic.Uint64
	nodeLat  sync.Map // int -> *obs.Histogram
}

// DistProcedure marks a stored procedure as delegatable to the worker that
// owns the shard of its distribution argument.
type DistProcedure struct {
	// ArgIndex is the 0-based position of the distribution argument.
	ArgIndex int
	// ColocatedWith is the distributed table whose shards the argument
	// routes against.
	ColocatedWith string
}

// NewNode attaches the Citus layer to an engine.
func NewNode(id int, eng *engine.Engine, meta *metadata.Catalog, cfg Config) *Node {
	n := &Node{
		ID:            id,
		Eng:           eng,
		Meta:          meta,
		Cfg:           cfg.withDefaults(),
		dialers:       make(map[int]pool.Dialer),
		pools:         make(map[int]*pool.NodePool),
		commitRecords: make(map[string]*wal.Holder),
		stopCh:        make(chan struct{}),
		distProcs:     make(map[string]DistProcedure),
		planCache:     newPlanCache(),
	}
	eng.PlannerHook = n.plannerHook
	eng.UtilityHook = n.utilityHook
	eng.CopyHook = n.copyHook
	n.registerFunctions()
	return n
}

// SetDialer installs the connection factory for a peer node (the cluster
// orchestrator wires this; it is the analog of node connection info in
// pg_dist_node). Re-installing a dialer — a restarted worker has a new
// engine behind the same node ID — drops the existing pool so cached
// connections to the dead incarnation aren't handed out again.
func (n *Node) SetDialer(nodeID int, d pool.Dialer) {
	n.mu.Lock()
	n.dialers[nodeID] = d
	old := n.pools[nodeID]
	delete(n.pools, nodeID)
	n.mu.Unlock()
	if old != nil {
		old.CloseAll()
	}
}

// poolFor returns the shared connection pool toward a node.
func (n *Node) poolFor(nodeID int) (*pool.NodePool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.pools[nodeID]; ok {
		return p, nil
	}
	d, ok := n.dialers[nodeID]
	if !ok {
		return nil, fmt.Errorf("no connection information for node %d", nodeID)
	}
	p := pool.New(fmt.Sprintf("node-%d", nodeID), n.Cfg.MaxSharedPoolSize, d)
	n.pools[nodeID] = p
	return p, nil
}

// canCoordinate reports whether this node may plan distributed queries: it
// must have the metadata (coordinator, or a worker after metadata sync).
func (n *Node) canCoordinate() bool {
	node, ok := n.Meta.Node(n.ID)
	return ok && (node.IsCoordinator || node.HasMetadata)
}

// StartDaemons launches the maintenance daemon: distributed deadlock
// detection and 2PC recovery (the "background worker" of §3.1).
func (n *Node) StartDaemons() {
	if n.Cfg.DeadlockInterval > 0 {
		n.daemons.Add(1)
		go n.deadlockLoop()
	}
	if n.Cfg.RecoveryInterval > 0 {
		n.daemons.Add(1)
		go n.recoveryLoop()
	}
}

// Close stops the daemons, waiting out a poll or recovery round in flight,
// and drops pooled connections.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.daemons.Wait()
	n.mu.Lock()
	pools := make([]*pool.NodePool, 0, len(n.pools))
	for _, p := range n.pools {
		pools = append(pools, p)
	}
	n.mu.Unlock()
	for _, p := range pools {
		p.CloseAll()
	}
}

// WaitExecutorIdle blocks until no executeTasks call is in flight on this
// node, or the timeout elapses. The cluster's RestartWorker uses it as a
// quiesce gate: rewiring dialers while an executor retry loop holds a
// connection to the old engine incarnation races the retry's re-dial.
func (n *Node) WaitExecutorIdle(timeout time.Duration) bool {
	return n.idle.Wait(time.Now().Add(timeout), func() bool { return n.inflight.Load() == 0 })
}

// executorDone ends an executeTasks call; the last one out wakes
// WaitExecutorIdle.
func (n *Node) executorDone() {
	if n.inflight.Add(-1) == 0 {
		n.idle.Broadcast()
	}
}

// RegisterDistributedProcedure enables worker delegation for a stored
// procedure previously registered on every node's engine.
func (n *Node) RegisterDistributedProcedure(name string, spec DistProcedure) {
	n.procMu.Lock()
	defer n.procMu.Unlock()
	n.distProcs[name] = spec
}

func (n *Node) distProcedure(name string) (DistProcedure, bool) {
	n.procMu.Lock()
	defer n.procMu.Unlock()
	p, ok := n.distProcs[name]
	return p, ok
}

// PoolStats reports (total, idle) connections toward a node.
func (n *Node) PoolStats(nodeID int) (total, idle int) {
	n.mu.Lock()
	p, ok := n.pools[nodeID]
	n.mu.Unlock()
	if !ok {
		return 0, 0
	}
	return p.Stats()
}

// AddCommitRecordForTest inserts a commit record directly (tests simulate a
// coordinator that crashed between writing records and resolving 2PC).
func (n *Node) AddCommitRecordForTest(gid string) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	n.writeCommitRecordLocked(gid)
}

// CommitRecords lists the transactions this node holds a commit record for
// (its pg_dist_transaction rows), sorted.
func (n *Node) CommitRecords() []string {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	gids := make([]string, 0, len(n.commitRecords))
	for gid := range n.commitRecords {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	return gids
}

// writeCommitRecordLocked makes gid's commit record durable and holds the
// log from that record on until dropCommitRecordLocked. Callers hold
// commitMu.
func (n *Node) writeCommitRecordLocked(gid string) {
	n.commitRecords[gid] = n.Eng.WAL.Hold("commit_record")
	n.Eng.WAL.Append(wal.Record{Type: wal.RecCommitRecord, GID: gid})
}

// dropCommitRecordLocked forgets a resolved transaction's commit record and
// lets the log cut it. Callers hold commitMu.
func (n *Node) dropCommitRecordLocked(gid string) {
	if h, ok := n.commitRecords[gid]; ok {
		h.Release()
		delete(n.commitRecords, gid)
	}
}

// deleteCommitRecordLocked takes gid's commit record back, durably: the
// transaction's fate has become abort, and neither this node's recovery
// passes nor a restart reading the log may find the record again. Callers
// hold commitMu.
func (n *Node) deleteCommitRecordLocked(gid string) {
	n.Eng.WAL.Append(wal.Record{Type: wal.RecCommitRecordDeleted, GID: gid})
	n.dropCommitRecordLocked(gid)
}

// RecoverCommitRecords rebuilds the commit-record table from the node's
// recovered WAL (restore/restart path): the records' WAL durability is what
// §3.7.2 relies on ("the commit records are durably stored"). The log holds
// every unresolved record — and whatever resolved ones lie above its last
// cut, which the first recovery passes find nothing prepared for and drop.
func (n *Node) RecoverCommitRecords() {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	for _, r := range n.Eng.WAL.Records() {
		switch r.Type {
		case wal.RecCommitRecord:
			if h, err := n.Eng.WAL.HoldAt("commit_record", r.LSN); err == nil {
				n.dropCommitRecordLocked(r.GID)
				n.commitRecords[r.GID] = h
			}
		case wal.RecCommitRecordDeleted:
			n.dropCommitRecordLocked(r.GID)
		}
	}
}

// nextDistTxnID mints a distributed transaction identifier. The encoded
// timestamp lets the deadlock detector pick the youngest transaction in a
// cycle as the victim.
func (n *Node) nextDistTxnID() string {
	return fmt.Sprintf("%d:%d:%d", n.ID, time.Now().UnixNano(), n.distSeq.Add(1))
}

// resultName names a new intermediate result of one of this node's plans:
// citus_<kind>_<node ID>_<n>. Such relations are global to an engine, and
// with metadata synced every node coordinates, each counting its own n — so
// the node is in the name.
func (n *Node) resultName(kind string) string {
	return fmt.Sprintf("citus_%s_%d_%d", kind, n.ID, n.distSeq.Add(1))
}

// ---------------------------------------------------------------------------
// Session state

// sessState is the distributed layer's per-session state, stored in
// engine.Session.Ext: the connection cache and per-transaction connection
// assignments ("for every connection, Citus tracks which shards have been
// accessed", §3.6.1).
type sessState struct {
	mu sync.Mutex

	// conns are connections pinned to the current transaction, per node.
	conns map[int][]*workerConn
	// groupConn assigns a co-located shard group to the connection that
	// already touched it in this transaction.
	groupConn map[int64]*workerConn

	distID     string
	registered bool // transaction callbacks installed

	// primaryReads counts the subplans feeding a write that are running now
	// (evalSubplan): while it is above zero no read goes to a standby. Only
	// the session's goroutine touches it.
	primaryReads int
}

// workerConn wraps a pooled connection with transaction state.
type workerConn struct {
	conn   *wire.Conn
	nodeID int
	pool   *pool.NodePool // originating pool, for mid-task replacement
	inTxn  bool           // a request naming the transaction's block went out, and the block has not ended
	wrote  bool           // performed a write in this transaction
	broken bool           // protocol error: discard instead of returning to pool
	gone   bool           // already discarded mid-task (failed refresh); skip disposition
}

func (n *Node) state(s *engine.Session) *sessState {
	if st, ok := s.Ext.(*sessState); ok {
		return st
	}
	st := &sessState{
		conns:     make(map[int][]*workerConn),
		groupConn: make(map[int64]*workerConn),
	}
	s.Ext = st
	return st
}
