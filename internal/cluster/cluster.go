// Package cluster orchestrates a Citus cluster: it boots the node engines,
// attaches the Citus layer to each, registers nodes in the distributed
// metadata, gives every node a wire server and every other node a dialer to
// it, and starts the maintenance daemons.
//
// The benchmark harness builds the paper's four configurations through this
// package: plain PostgreSQL (one engine, no Citus), Citus 0+1 (coordinator
// doubling as the only worker), Citus 4+1, and Citus 8+1 (§4).
package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"citusgo/internal/bufpool"
	"citusgo/internal/citus"
	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/repl"
	"citusgo/internal/trace"
	"citusgo/internal/wire"
)

// Config describes a cluster.
type Config struct {
	// Workers is the number of worker nodes; 0 means the coordinator also
	// acts as the worker ("Citus 0+1").
	Workers int
	// ShardCount per distributed table (default 32).
	ShardCount int
	// NetworkRTT is the simulated round-trip time between distinct nodes
	// (0 for none; loopback connections never pay it).
	NetworkRTT time.Duration
	// IOLatency is charged per buffer pool miss once a harness bounds the
	// pools (Pool.SetCapacity; they boot unbounded).
	IOLatency time.Duration
	// UseTCP has every node's server listen on 127.0.0.1 and every dial
	// go over loopback TCP; off, nodes dial each other over socket pairs
	// into the same server loop.
	UseTCP bool
	// SyncMetadata syncs the distributed metadata to all workers at
	// startup (MX mode) so every node can coordinate (§3.2.1).
	SyncMetadata bool
	// Citus layer tuning; zero values use the defaults.
	Citus citus.Config
	// Features every node's engine runs with — primaries, standbys and
	// restarted nodes alike; the zero value turns every optimisation on.
	Features engine.Features
	// Trace configures every node's tracer (sampling, ring size, slow-query
	// log). The zero value means always-on tracing with defaults; set
	// SampleRate negative to disable tracing entirely.
	Trace trace.Config
	// DeadlockInterval overrides the per-node local deadlock detector
	// period (tests use small values).
	LocalDeadlockInterval time.Duration
	// AutoVacuumInterval is every node's maintenance pass (vacuum, then a
	// checkpoint when the node's log is due one); 0 = 500ms
	// (PostgreSQL-style autovacuum keeps MVCC chains short under sustained
	// updates), negative disables both.
	AutoVacuumInterval time.Duration

	// ReplicationFactor is the number of WAL-streaming standbys booted per
	// worker (0 = no replication).
	ReplicationFactor int
	// ReplicationMode selects sync (commit waits for standby acks) or
	// async (bounded-lag) WAL shipping.
	ReplicationMode repl.Mode
	// MaxAsyncLag is the async-mode staleness bound in WAL records.
	MaxAsyncLag int64
	// HealthInterval enables coordinator-side placement health probing (and
	// automatic failover) at this period; 0 disables.
	HealthInterval time.Duration
}

// healthFailures is how many consecutive failed probes mark a worker down
// and trigger failover.
const healthFailures = 3

// Cluster is a running set of nodes.
type Cluster struct {
	Meta    *metadata.Catalog
	Engines []*engine.Engine
	Nodes   []*citus.Node // Nodes[0] is the coordinator
	cfg     Config
	// servers maps node ID -> the node's wire server, standbys included;
	// a crash closes it, a restart starts a new one.
	servers map[int]*wire.Server

	// Repl is the WAL-shipping replication manager (nil unless
	// ReplicationFactor > 0).
	Repl *repl.Manager
	// standbys maps standby node ID -> standby engine.
	standbys map[int]*engine.Engine

	// mu guards Engines/Nodes mutation (worker restart) against the health
	// prober reading them concurrently.
	mu         sync.Mutex
	healthStop chan struct{}
	healthOnce sync.Once
}

// New boots a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.ShardCount > 0 {
		cfg.Citus.ShardCount = cfg.ShardCount
	}
	meta := metadata.NewCatalog()
	total := cfg.Workers + 1
	c := &Cluster{Meta: meta, cfg: cfg, standbys: make(map[int]*engine.Engine),
		servers: make(map[int]*wire.Server)}

	for i := 0; i < total; i++ {
		name := "coordinator"
		if i > 0 {
			name = fmt.Sprintf("worker%d", i)
		}
		eng := c.newEngine(i, name)
		c.Engines = append(c.Engines, eng)
		node := citus.NewNode(i+1, eng, meta, cfg.Citus)
		c.Nodes = append(c.Nodes, node)
		meta.AddNode(&metadata.Node{
			ID:            i + 1,
			Name:          name,
			IsCoordinator: i == 0,
		})
	}

	// wire connectivity: every node can dial every node
	for i, eng := range c.Engines {
		if err := c.serve(i+1, eng); err != nil {
			c.Close()
			return nil, err
		}
	}

	if cfg.SyncMetadata {
		for i := 1; i < total; i++ {
			meta.SetHasMetadata(i+1, true)
		}
	}

	// Replication: boot ReplicationFactor standby engines per worker, ship
	// each worker's WAL to them, and hook the executor's commit path into
	// the replication contract. Standbys are registered in the catalog with
	// role metadata (AddTable later materializes standby placement rows from
	// this topology) and are dialable from every node for replica reads.
	if cfg.ReplicationFactor > 0 && cfg.Workers > 0 {
		mgr := repl.NewManager(meta, repl.Config{
			Mode:        cfg.ReplicationMode,
			MaxAsyncLag: cfg.MaxAsyncLag,
		})
		c.Repl = mgr
		nextID := total + 1
		for i := 1; i < total; i++ {
			primaryID := i + 1
			var targets []repl.StandbyTarget
			for r := 1; r <= cfg.ReplicationFactor; r++ {
				sbID := nextID
				nextID++
				name := fmt.Sprintf("%s-sb%d", c.Engines[i].Name, r)
				sbEng := c.newEngine(sbID-1, name)
				// The shipper copies each primary record into the standby's
				// WAL itself; apply mode stops replicated DDL from appending
				// a second copy, which would break LSN alignment.
				sbEng.SetApplyMode(true)
				// Standby-local sessions (replica reads) allocate XIDs from a
				// range disjoint from any primary's, so a replicated XID can
				// never collide with a locally assigned one.
				sbEng.Txns.AdvanceXIDBase(uint64(sbID) << 40)
				// No Citus layer, but the node functions: a coordinator
				// asks a standby, and the primary it may be promoted to,
				// what it asks every node.
				citus.RegisterNodeFunctions(sbEng, sbID)
				c.standbys[sbID] = sbEng
				meta.AddNode(&metadata.Node{
					ID: sbID, Name: name,
					Standby: true, StandbyOf: primaryID,
				})
				if err := c.serve(sbID, sbEng); err != nil {
					c.Close()
					return nil, err
				}
				targets = append(targets, repl.StandbyTarget{
					NodeID: sbID, Name: name,
					WAL: sbEng.WAL, Apply: sbEng.ReplayTarget(),
				})
			}
			mgr.AddGroup(primaryID, c.Engines[i].Name, c.Engines[i].WAL, targets)
		}
		for _, node := range c.Nodes {
			node.SyncWaiter = mgr.Wait
		}
		if cfg.HealthInterval > 0 {
			c.healthStop = make(chan struct{})
			go c.healthLoop()
		}
	}

	for _, node := range c.Nodes {
		node.StartDaemons()
	}
	return c, nil
}

// serve starts node nodeID's wire server — listening on loopback under
// UseTCP — and points every node's dialer for nodeID at it.
func (c *Cluster) serve(nodeID int, eng *engine.Engine) error {
	addr := ""
	if c.cfg.UseTCP {
		addr = "127.0.0.1:0"
	}
	srv, err := wire.Serve(eng, addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.servers[nodeID] = srv
	nodes := slices.Clone(c.Nodes)
	c.mu.Unlock()
	for _, node := range nodes {
		c.dial(node, nodeID, srv)
	}
	return nil
}

// dial lets node reach node nodeID through its server: at the cluster's RTT,
// or none when node dials itself (a co-located coordinator and worker).
func (c *Cluster) dial(node *citus.Node, nodeID int, srv *wire.Server) {
	rtt := c.cfg.NetworkRTT
	if node.ID == nodeID {
		rtt = 0
	}
	node.SetDialer(nodeID, func() (*wire.Conn, error) { return srv.Connect(rtt) })
	node.RegisterPeerEngine(nodeID, srv.Eng)
}

// server returns node nodeID's current wire server.
func (c *Cluster) server(nodeID int) *wire.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[nodeID]
}

// newEngine builds one node engine with the cluster's configuration
// (shared by initial boot and worker restart).
func (c *Cluster) newEngine(i int, name string) *engine.Engine {
	autovac := c.cfg.AutoVacuumInterval
	if autovac == 0 {
		autovac = 500 * time.Millisecond
	} else if autovac < 0 {
		autovac = 0
	}
	eng := engine.New(engine.Config{
		Name:               name,
		BufferPool:         bufpool.Config{IOLatency: c.cfg.IOLatency},
		DeadlockInterval:   c.cfg.LocalDeadlockInterval,
		AutoVacuumInterval: autovac,
		Features:           c.cfg.Features,
	})
	eng.Tracer = trace.New(i+1, name, c.cfg.Trace)
	return eng
}

// CrashWorker simulates killing worker i's process (i is the node index;
// the coordinator, index 0, cannot be crashed). The worker's WAL is sealed
// at the crash instant — appends racing with the crash are lost, like
// writes that never reached stable storage — and every connection to the
// node starts failing. The chaos harness pairs this with RestartWorker.
func (c *Cluster) CrashWorker(i int) error {
	if i <= 0 || i >= len(c.Engines) {
		return fmt.Errorf("cannot crash node %d (valid workers: 1..%d)", i, len(c.Engines)-1)
	}
	return c.crashNode(i)
}

// CrashCoordinator kills the coordinator process mid-flight: its WAL seals
// at the crash instant (the commit records already written survive on
// "disk"), every open session dies, and in-flight 2PC transactions freeze
// wherever they were — prepared transactions keep holding locks on workers
// until the restarted coordinator's recovery resolves them by the
// commit-record rule (§3.7.2).
func (c *Cluster) CrashCoordinator() error { return c.crashNode(0) }

func (c *Cluster) crashNode(i int) error {
	eng := c.Engines[i]
	// Dead first, then the log sealed: from the moment an append can be
	// dropped, no response leaves the node (the server checks Crashed after
	// handling each request), so nothing the log lacks is ever reported
	// done. Then the server goes, its listener and every connection with it.
	eng.Crash()
	eng.WAL.Seal()
	_ = c.server(i + 1).Close()
	c.Nodes[i].Close()
	return nil
}

// RestartWorker rebuilds a crashed worker from its sealed WAL, exactly
// like a process restart recovering from disk: a fresh engine replays the
// old log (prepared transactions stay pending for 2PC recovery, §3.7.2),
// a fresh Citus layer is attached, connectivity is rewired in both
// directions, and the maintenance daemons start.
func (c *Cluster) RestartWorker(i int) error {
	if i <= 0 || i >= len(c.Engines) {
		return fmt.Errorf("cannot restart node %d (valid workers: 1..%d)", i, len(c.Engines)-1)
	}
	return c.restartNode(i)
}

// RestartCoordinator recovers a crashed coordinator from its sealed WAL:
// the replayed log rebuilds the commit-record table, so the recovery
// daemon can resolve every transaction that was mid-2PC at the crash —
// commit records present ⇒ COMMIT PREPARED, absent ⇒ ROLLBACK PREPARED.
// Sessions opened before the crash are dead; open new ones via Session().
func (c *Cluster) RestartCoordinator() error { return c.restartNode(0) }

func (c *Cluster) restartNode(i int) error {
	old := c.Engines[i]
	if !old.Crashed() {
		return fmt.Errorf("node %d is not crashed", i)
	}
	// A failed-over primary does not come back as a primary: the catalog
	// already promoted a standby in its place, so the restarted node rejoins
	// as a standby of the promoted node (PostgreSQL's pg_rewind + follow).
	if c.Repl != nil {
		if meta, ok := c.Meta.Node(i + 1); ok && meta.Standby {
			return c.rejoinStandby(i, meta.StandbyOf)
		}
	}
	// Base image, then the tail, the new incarnation's log carrying the same
	// history on (a process restart keeps its on-disk log): a second crash of
	// the same worker recovers from what this one recovered from plus
	// whatever it wrote since. Transactions the log left in progress died
	// with the old incarnation and are aborted; prepared ones stay pending
	// for 2PC recovery.
	eng := c.newEngine(i, old.Name)
	if err := eng.RecoverFrom(old.WAL, 0); err != nil {
		return err
	}
	node := citus.NewNode(i+1, eng, c.Meta, c.cfg.Citus)
	// Commit records this node wrote as a coordinator (MX mode) are
	// rebuilt from its WAL, the same way RestoreToPoint does it.
	node.RecoverCommitRecords()
	// Quiesce gate: an executor on a live node may still be inside a
	// read-retry backoff holding a pool bound to the dead incarnation.
	// Swapping its dialer mid-retry races the re-dial (the retry can land
	// on a half-rewired mesh). Wait for in-flight executions to drain
	// before rewiring; under sustained load this is bounded best-effort.
	c.quiesce(i)
	c.mu.Lock()
	c.Engines[i] = eng
	c.Nodes[i] = node
	servers := maps.Clone(c.servers)
	c.mu.Unlock()
	for id, srv := range servers {
		if id != i+1 {
			c.dial(node, id, srv)
		}
	}
	if err := c.serve(i+1, eng); err != nil {
		return err
	}
	if c.Repl != nil {
		node.SyncWaiter = c.Repl.Wait
	}
	node.StartDaemons()
	return nil
}

// quiesce waits, a second at most each, for the executions of every node but
// node i to drain.
func (c *Cluster) quiesce(i int) {
	for j, peer := range c.Nodes {
		if j != i {
			peer.WaitExecutorIdle(time.Second)
		}
	}
}

// rejoinStandby rebuilds a failed-over worker as a standby of the node
// promoted in its place. The recovered engine comes back from its own sealed
// WAL — a strict prefix of the promoted primary's log, since promotion
// drained the winner to the sealed tip before flipping roles — and then
// resumes streaming from the new primary at exactly its own last LSN (the
// logs hold the same records under the same LSNs). If the new primary has
// checkpointed in the meantime and cut its log past that LSN, there is
// nothing to resume from: the node starts empty and takes a base backup of
// the new primary instead (repl.Manager.AddStandby). The node re-enters the
// catalog as a live standby once it has caught up to the primary's current
// tip, at which point replica reads route to it and sync-mode commits wait
// for its acks again.
func (c *Cluster) rejoinStandby(i, primaryID int) error {
	old := c.Engines[i]
	nodeID := i + 1
	c.mu.Lock()
	primaryEng := c.standbys[primaryID]
	c.mu.Unlock()
	if primaryEng == nil {
		return fmt.Errorf("promoted node %d has no engine", primaryID)
	}
	eng := c.newEngine(i, old.Name)
	// Standbys never self-log: the shipper appends each primary record into
	// this WAL itself, and replayed history must share the same alignment.
	eng.SetApplyMode(true)
	// Hold the new primary's log at this node's last LSN while it recovers,
	// so that what it resumes from cannot be cut in between.
	if hold, err := primaryEng.WAL.HoldAt("standby", old.WAL.LastLSN()+1); err == nil {
		defer hold.Release()
		// End of crash recovery included: transactions in flight on the dead
		// timeline have no commit record anywhere — the promoted primary
		// aborted the same set from the same log prefix when it took over,
		// so resolving them here keeps both copies' clogs consistent.
		// Without this, their xmax stamps read as in-progress forever: old
		// row versions stay visible on this standby and the new primary's
		// streamed deletes no longer match them, forking the version chain.
		// Prepared (2PC) XIDs are exempt; their COMMIT/ROLLBACK PREPARED
		// arrives via the stream.
		if err := eng.RecoverFrom(old.WAL, 0); err != nil {
			return err
		}
	}
	// Standby-local sessions (replica reads) allocate XIDs from a range
	// disjoint from any primary's, same as standbys booted at New.
	eng.Txns.AdvanceXIDBase(uint64(nodeID) << 40)
	citus.RegisterNodeFunctions(eng, nodeID)
	// Quiesce in-flight executions before rewiring (see RestartWorker).
	c.quiesce(i)
	c.mu.Lock()
	c.Engines[i] = eng
	c.standbys[nodeID] = eng
	c.mu.Unlock()
	// The demoted node runs no Citus layer (standbys are bare engines but
	// for the node functions, and dial no one); live nodes re-dial it for
	// replica reads.
	if err := c.serve(nodeID, eng); err != nil {
		return err
	}
	if err := c.Repl.AddStandby(primaryID, repl.StandbyTarget{
		NodeID: nodeID, Name: eng.Name,
		WAL: eng.WAL, Apply: eng.ReplayTarget(),
	}, eng.WAL.LastLSN()); err != nil {
		return err
	}
	// Catch up to the promoted primary's current tip before going back into
	// read rotation, so replica reads never regress past the failover.
	tip := primaryEng.WAL.LastLSN()
	g, ok := c.Repl.Group(primaryID)
	if !ok {
		return fmt.Errorf("promoted node %d lost its replication group", primaryID)
	}
	if applied := g.WaitApplied(nodeID, tip, repl.SyncTimeout); applied < tip {
		return fmt.Errorf("standby %s stuck at LSN %d catching up to %d", eng.Name, applied, tip)
	}
	c.Meta.SetNodeDown(nodeID, false)
	return nil
}

// Failover crashes worker i (if it is not already crashed) and promotes
// its furthest-ahead standby: the sealed WAL drains to its tip on the
// standby, catalog roles flip (bumping the metadata version so cached
// plans re-resolve), and surviving standbys re-parent onto the new
// primary. Returns the promoted node's ID.
func (c *Cluster) Failover(i int) (int, error) {
	if c.Repl == nil {
		return 0, fmt.Errorf("cluster has no replication (ReplicationFactor 0)")
	}
	if i <= 0 || i >= len(c.Engines) {
		return 0, fmt.Errorf("cannot fail over node %d (valid workers: 1..%d)", i, len(c.Engines)-1)
	}
	c.mu.Lock()
	eng := c.Engines[i]
	c.mu.Unlock()
	if !eng.Crashed() {
		if err := c.CrashWorker(i); err != nil {
			return 0, err
		}
	}
	newID, err := c.Repl.Promote(i + 1)
	if err != nil {
		return 0, err
	}
	// The promoted engine originates writes now: DDL must self-log again,
	// and writers that were in flight on the crashed primary — replicated
	// as bare heap stamps with no commit record to come — must be aborted,
	// or the first write touching their tuples waits on them forever.
	if eng := c.standbys[newID]; eng != nil {
		eng.FinishRecovery()
		eng.SetApplyMode(false)
	}
	// The promoted engine replicated the primary's commit records through
	// the stream; if an MX worker wrote them, recovery needs them rebuilt
	// on the coordinator side, which reads its own table — nothing to do
	// here. The coordinator's recovery daemon resolves any prepared
	// transactions the promoted standby inherited.
	return newID, nil
}

// StandbyEngine returns the engine of a standby node ID (including
// promoted ones), or nil.
func (c *Cluster) StandbyEngine(nodeID int) *engine.Engine {
	return c.standbys[nodeID]
}

// healthLoop is the coordinator-side placement health prober: every
// HealthInterval it runs a trivial query against each primary worker;
// healthFailures consecutive failures mark the node down in the catalog
// (readers instantly re-route to standbys) and trigger automatic failover.
func (c *Cluster) healthLoop() {
	failures := make(map[int]int)
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.healthStop:
			return
		case <-ticker.C:
			for i := 1; i < len(c.Engines); i++ {
				nodeID := i + 1
				if c.Meta.NodeDown(nodeID) {
					continue
				}
				node, ok := c.Meta.Node(nodeID)
				if !ok || node.Standby {
					continue // already failed over
				}
				if c.probe(nodeID) {
					failures[nodeID] = 0
					continue
				}
				failures[nodeID]++
				if failures[nodeID] < healthFailures {
					continue
				}
				c.Meta.SetNodeDown(nodeID, true)
				if _, ok := c.Repl.Group(nodeID); ok {
					_, _ = c.Failover(i)
				}
			}
		}
	}
}

// probe runs SELECT 1 against a node over the wire protocol.
func (c *Cluster) probe(nodeID int) bool {
	conn, err := c.server(nodeID).Connect(0)
	if err != nil {
		return false
	}
	defer conn.Close()
	_, err = conn.Query("SELECT 1")
	return err == nil
}

// Coordinator returns the coordinator node.
func (c *Cluster) Coordinator() *citus.Node { return c.Nodes[0] }

// Session opens a session on the coordinator.
func (c *Cluster) Session() *engine.Session { return c.Engines[0].NewSession() }

// SessionOn opens a session on node i (0 = coordinator). With metadata
// synced, worker sessions coordinate distributed queries themselves.
func (c *Cluster) SessionOn(i int) *engine.Session { return c.Engines[i].NewSession() }

// Conn opens a client connection to the coordinator over the wire
// protocol.
func (c *Cluster) Conn() *wire.Conn { return c.ConnTo(0) }

// ConnTo opens a client connection to node i. A node that is down refuses
// it: every request on the connection fails with the refusal, a ConnError.
func (c *Cluster) ConnTo(i int) *wire.Conn {
	srv := c.server(i + 1)
	conn, err := srv.Connect(0)
	if err != nil {
		return wire.Refused(srv.Eng.Name, err)
	}
	return conn
}

// NumNodes returns the total node count.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// RestoreToPoint rebuilds a fresh cluster of the same topology from every
// node's WAL, replayed up to the named restore point — the §3.9 backup
// story: "Restoring all servers to the same restore point guarantees that
// all multi-node transactions are either fully committed or aborted in the
// restored cluster, or can be completed by the coordinator through 2PC
// recovery on startup." The distributed metadata catalog is carried over
// (in PostgreSQL it lives in the coordinator's own WAL-logged tables);
// commit records are rebuilt from the coordinator's WAL.
func (c *Cluster) RestoreToPoint(name string) (*Cluster, error) {
	restored, err := New(c.cfg)
	if err != nil {
		return nil, err
	}
	// the restored cluster keeps the same shard metadata
	restored.Meta = c.Meta
	for _, node := range restored.Nodes {
		node.Meta = c.Meta
	}
	for i, eng := range c.Engines {
		lsn, err := eng.WAL.FindRestorePoint(name)
		if err != nil {
			restored.Close()
			return nil, fmt.Errorf("node %s: %w", eng.Name, err)
		}
		// base + tail up to the point; writers in flight there have no
		// commit record before it and are implicitly aborted
		if err := restored.Engines[i].RecoverFrom(eng.WAL, lsn); err != nil {
			restored.Close()
			return nil, err
		}
		// rebuild commit records from the recovered coordinator WAL
		restored.Nodes[i].RecoverCommitRecords()
	}
	// resolve prepared transactions left pending at the restore point
	restored.Coordinator().RecoverTwoPhaseCommits()
	return restored, nil
}

// Checkpoint has every live node checkpoint now and returns how many logs
// took a new base. Nodes do this themselves, every wal.CheckpointEvery
// records; tests call it to put a base under a schedule at a chosen step.
// Standbys take their primary's bases as they apply them.
func (c *Cluster) Checkpoint() int {
	c.mu.Lock()
	servers := maps.Clone(c.servers)
	c.mu.Unlock()
	n := 0
	for _, srv := range servers {
		if srv.Eng.Checkpoint() { // a crashed node, like a standby, refuses
			n++
		}
	}
	return n
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	if c.healthStop != nil {
		c.healthOnce.Do(func() { close(c.healthStop) })
	}
	if c.Repl != nil {
		c.Repl.Stop()
	}
	for _, n := range c.Nodes {
		n.Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
		s.Eng.Close()
	}
	for _, e := range c.Engines {
		e.Close()
	}
}
