package citus

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/pool"
	"citusgo/internal/trace"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// Adaptive executor metrics (§3.6.1). Task counters split read/write;
// connection opens are labeled by target node.
var (
	metTasksVec = obs.Default().Counter("executor_tasks_total",
		"tasks placed by the adaptive executor, by task kind", "kind")
	metTasksRead     = metTasksVec.With("read")
	metTasksWrite    = metTasksVec.With("write")
	metConnsOpenedBy = obs.Default().Counter("executor_conns_opened_total",
		"connections the adaptive executor opened beyond its pinned set, by target node", "node")
	metSlowStartRounds = obs.Default().Counter("executor_slow_start_rounds_total",
		"slow-start ramp rounds elapsed while tasks were pending").With()
	metConnWaits = obs.Default().Counter("executor_conn_waits_total",
		"waits for a connection slot under the shared connection limit").With()
	metTaskLatency = obs.Default().Histogram("executor_task_latency_ns",
		"per-task execution latency in nanoseconds", nil).With()
	metTaskLatencyNode = obs.Default().Histogram("executor_task_latency_by_node_ns",
		"per-task execution latency in nanoseconds, by placement node", nil, "node")
	metTaskRetries = obs.Default().Counter("executor_task_retries_total",
		"read-only task retries after transient connection failures").With()
	// Replica-routing split: every read task with placement candidates is
	// counted by where it actually ran. bench-smoke asserts this split so
	// replica routing cannot silently bit-rot (ablation A6).
	metRoutedReadsVec = obs.Default().Counter("executor_routed_reads_total",
		"read tasks routed by placement role", "placement")
	metPrimaryReads     = metRoutedReadsVec.With("primary")
	metReplicaReads     = metRoutedReadsVec.With("standby")
	metReplicaFallbacks = obs.Default().Counter("executor_replica_fallbacks_total",
		"replica reads that failed on the standby and were retried on the primary").With()
)

// Bounded retry policy for transient connection failures on idempotent
// (read-only, non-transactional) tasks: up to maxTaskAttempts total
// attempts with doubling backoff. Distinct from the plan-invalid
// re-prepare loop (retryPlanInvalid), which has its own cap and may retry
// even writes because the worker rejected before executing anything.
const (
	maxTaskAttempts  = 4
	taskRetryBackoff = 500 * time.Microsecond
)

// task is one query against one shard placement — the unit of distributed
// execution (§3.5: "a distributed query plan consists of a set of tasks").
type task struct {
	nodeID     int
	shardGroup int64 // co-located shard group for connection affinity; -1 none
	sql        string
	params     []types.Datum
	isWrite    bool
	isDDL      bool   // shard DDL: fans out like a write for sync-replication waits
	cache      string // plan-cache disposition for tracing: "hit" or "" (miss)
	// readNodes are the healthy placement candidates of a read task,
	// primary first (metadata.ReadPlacements). The executor picks the
	// actual target at execution time — round-robin across candidates for
	// autocommit reads, the primary inside transactions (read-your-writes).
	// readNodes[0] is also the fallback when a replica read fails.
	readNodes []int
}

// executeTasks is the adaptive executor (§3.6.1). It runs tasks over the
// session's per-worker connections, combining:
//
//   - slow start: one connection per worker initially, allowing one more
//     new connection per SlowStartInterval, so short index lookups finish
//     on a single connection while long analytical tasks fan out;
//   - the shared connection limit, enforced by the per-node pools;
//   - task↔connection affinity: within a transaction, a co-located shard
//     group always reuses the connection that first accessed it, keeping
//     uncommitted writes and locks visible.
func (n *Node) executeTasks(s *engine.Session, tasks []task) ([]*engine.Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	st := n.state(s)

	writeTasks := 0
	for i := range tasks {
		if tasks[i].isWrite {
			writeTasks++
			if tasks[i].shardGroup >= 0 {
				n.fenceWait(tasks[i].shardGroup)
			}
		}
	}
	metTasksWrite.Add(int64(writeTasks))
	metTasksRead.Add(int64(len(tasks) - writeTasks))
	// Replica-aware read routing: an autocommit read with placement
	// candidates picks its node now, round-robin across healthy
	// placements. Reads inside an explicit transaction stay on the primary
	// so the session observes its own uncommitted writes.
	inTxn := s.InTransaction()
	for i := range tasks {
		t := &tasks[i]
		if t.isWrite || len(t.readNodes) == 0 {
			continue
		}
		if !inTxn {
			t.nodeID = n.pickReadNode(t.readNodes)
		}
		if t.nodeID == t.readNodes[0] {
			metPrimaryReads.Inc()
		} else {
			metReplicaReads.Inc()
		}
	}
	// Transaction blocks are needed inside an explicit transaction (for
	// locks/visibility across statements) and for multi-shard writes in a
	// single statement (atomicity via 2PC at commit).
	txnMode := inTxn || writeTasks > 1
	if txnMode {
		n.registerTxnCallbacks(s, st)
	}

	// Fast path: a single task outside a multi-connection transaction
	// round-trips on one connection with minimal overhead.
	results := make([]*engine.Result, len(tasks))

	byNode := make(map[int][]int) // node -> task indexes
	for i := range tasks {
		byNode[tasks[i].nodeID] = append(byNode[tasks[i].nodeID], i)
	}

	var wg sync.WaitGroup
	var firstErr atomic.Value
	for nodeID, idxs := range byNode {
		wg.Add(1)
		go func(nodeID int, idxs []int) {
			defer wg.Done()
			if err := n.runNodeTasks(s, st, nodeID, idxs, tasks, results, txnMode); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(nodeID, idxs)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}
	// Replication barrier for autocommit writes and shard DDL: the worker
	// committed (or ran the DDL) inside the task round trip, so the
	// durability contract is enforced here, before the client sees the
	// result. Transactional writes instead wait in the distributed commit
	// path (dtxn), after COMMIT/COMMIT PREPARED succeeds.
	if !txnMode && n.SyncWaiter != nil {
		waited := map[int]bool{}
		for i := range tasks {
			t := &tasks[i]
			if !t.isWrite && !t.isDDL || waited[t.nodeID] {
				continue
			}
			waited[t.nodeID] = true
			if err := n.SyncWaiter(t.nodeID); err != nil {
				return nil, fmt.Errorf("replication wait after write on node %d: %w", t.nodeID, err)
			}
		}
	}
	return results, nil
}

// pickReadNode chooses the placement a read task runs on: round-robin
// over the candidates that still look healthy (a placement can go down
// between planning and execution), falling back to the primary when every
// candidate is marked down.
func (n *Node) pickReadNode(candidates []int) int {
	healthy := candidates
	for _, id := range candidates {
		if n.Meta.NodeDown(id) {
			healthy = nil
			for _, c := range candidates {
				if !n.Meta.NodeDown(c) {
					healthy = append(healthy, c)
				}
			}
			break
		}
	}
	if len(healthy) == 0 {
		return candidates[0]
	}
	if len(healthy) == 1 {
		return healthy[0]
	}
	return healthy[int(n.readRR.Add(1))%len(healthy)]
}

// latencyFor returns the cached per-node child of the task-latency
// histogram. Resolving the label once per node keeps the hot path at a
// map load instead of a label-vector lookup per task.
func (n *Node) latencyFor(nodeID int) *obs.Histogram {
	if h, ok := n.nodeLat.Load(nodeID); ok {
		return h.(*obs.Histogram)
	}
	h := metTaskLatencyNode.With(strconv.Itoa(nodeID))
	actual, _ := n.nodeLat.LoadOrStore(nodeID, h)
	return actual.(*obs.Histogram)
}

// runNodeTasks schedules one worker node's tasks across its connections.
func (n *Node) runNodeTasks(s *engine.Session, st *sessState, nodeID int, idxs []int, tasks []task, results []*engine.Result, txnMode bool) error {
	p, err := n.poolFor(nodeID)
	if err != nil {
		return err
	}

	// Split tasks into per-connection assigned queues (transaction
	// affinity) and the general pool for this worker.
	st.mu.Lock()
	assigned := make(map[*workerConn][]int)
	var general []int
	for _, i := range idxs {
		if g := tasks[i].shardGroup; g >= 0 {
			if wc, ok := st.groupConn[g]; ok && wc.nodeID == nodeID {
				assigned[wc] = append(assigned[wc], i)
				continue
			}
		}
		general = append(general, i)
	}
	pinned := append([]*workerConn(nil), st.conns[nodeID]...)
	st.mu.Unlock()

	var remaining atomic.Int64
	remaining.Store(int64(len(general)))
	taskCh := make(chan int, len(general))
	for _, i := range general {
		taskCh <- i
	}
	close(taskCh)

	// drained closes once no further connection can help: the general queue
	// is empty or the run aborted. It is what ends the slow-start ramp.
	drained := make(chan struct{})
	var drainedOnce sync.Once
	markDrained := func() { drainedOnce.Do(func() { close(drained) }) }

	var mu sync.Mutex
	var runErr error
	var aborted atomic.Bool
	noteErr := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		aborted.Store(true)
		markDrained()
	}
	finished := func(batch []int) {
		if remaining.Add(-int64(len(batch))) == 0 {
			markDrained()
		}
	}

	window := 1
	if !n.Cfg.DisablePipelining {
		window = n.Cfg.PipelineWindow
	}
	// fairShare is a connection's pipelined batch size for the general
	// queue. The shared connection limit caps this node's possible fan-out,
	// so when it forces multiple tasks per connection the surplus rides one
	// pipelined window instead of paying a round trip each; when the limit
	// would permit one connection per task, batches stay at 1 and the
	// adaptive fan-out keeps its full cross-connection parallelism. The
	// share is fixed from the initial queue length rather than the live
	// remainder: a shrinking target would hand the first grab a full share
	// and every later grab a sliver (windows of 4,2,1,1 instead of 4,4 for
	// 8 tasks under limit 2), paying round trips for parallelism the limit
	// can't deliver anyway.
	fairShare := 1
	if window > 1 && n.Cfg.MaxSharedPoolSize > 0 {
		fairShare = (len(general) + n.Cfg.MaxSharedPoolSize - 1) / n.Cfg.MaxSharedPoolSize
		if fairShare < 1 {
			fairShare = 1
		}
		if fairShare > window {
			fairShare = window
		}
	}

	runOn := func(wc *workerConn, private []int) {
		// The assigned queue is this connection's alone (transaction
		// affinity pins its shard groups here), so it pipelines in full
		// windows — there is no parallelism to preserve by holding back.
		for start := 0; start < len(private); start += window {
			if aborted.Load() {
				return
			}
			end := start + window
			if end > len(private) {
				end = len(private)
			}
			if err := n.runTaskWindow(s, st, wc, private[start:end], tasks, results, txnMode); err != nil {
				noteErr(err)
				return
			}
		}
		batch := make([]int, 0, window)
		for {
			i, ok := <-taskCh
			if !ok {
				return
			}
			batch = append(batch, i)
			target := fairShare
		fill:
			for len(batch) < target {
				select {
				case j, ok := <-taskCh:
					if !ok {
						break fill
					}
					batch = append(batch, j)
				default:
					break fill
				}
			}
			if aborted.Load() {
				finished(batch)
				batch = batch[:0]
				continue
			}
			err := n.runTaskWindow(s, st, wc, batch, tasks, results, txnMode)
			finished(batch)
			batch = batch[:0]
			if err != nil {
				noteErr(err)
			}
		}
	}

	var wg sync.WaitGroup
	var newConns []*workerConn
	var newMu sync.Mutex
	startConn := func(wc *workerConn, private []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOn(wc, private)
		}()
	}

	// Existing pinned/assigned connections start immediately. started is
	// atomic because the ramp goroutine below takes over counting from the
	// caller.
	var started atomic.Int64
	startedSet := map[*workerConn]bool{}
	for wc, private := range assigned {
		startConn(wc, private)
		startedSet[wc] = true
		started.Add(1)
	}
	for _, wc := range pinned {
		if !startedSet[wc] {
			startConn(wc, nil)
			startedSet[wc] = true
			started.Add(1)
		}
	}

	openNew := func() bool {
		wc, err := n.acquireConn(p, nodeID, started.Load() == 0)
		if err != nil {
			if errors.Is(err, pool.ErrLimit) {
				return false
			}
			noteErr(err)
			return false
		}
		metConnsOpenedBy.With(strconv.Itoa(nodeID)).Inc()
		newMu.Lock()
		newConns = append(newConns, wc)
		newMu.Unlock()
		startConn(wc, nil)
		started.Add(1)
		return true
	}

	// Slow start: n=1 connection may be opened now; every interval the
	// allowance grows by one, and we open min(allowance, pending tasks).
	// A negative interval disables the ramp entirely (instant fan-out, the
	// ablation baseline).
	if started.Load() == 0 && (len(general) > 0 || txnMode) {
		openNew()
	}
	if n.Cfg.SlowStartInterval < 0 {
		for int(started.Load()) < len(general) && !aborted.Load() {
			if !openNew() {
				break
			}
		}
	}
	if n.Cfg.SlowStartInterval > 0 && len(general) > 1 {
		// The ramp holds a count in wg for as long as it may open
		// connections, so each wg.Add it makes through startConn is ordered
		// before wg.Wait can return, and every connection it opens is in
		// newConns by the disposition pass below.
		wg.Add(1)
		go func() {
			defer wg.Done()
			allowance := 1
			ticker := time.NewTicker(n.Cfg.SlowStartInterval)
			defer ticker.Stop()
			for {
				select {
				case <-drained:
					return
				case <-ticker.C:
					allowance++
					metSlowStartRounds.Inc()
					want := int(remaining.Load() - started.Load())
					if allowance < want {
						want = allowance
					}
					for k := 0; k < want; k++ {
						if aborted.Load() || !openNew() {
							break
						}
					}
				}
			}
		}()
	}

	wg.Wait()

	// Connection disposition: transactional connections pin to the
	// session; others return to the shared pool.
	newMu.Lock()
	opened := newConns
	newMu.Unlock()
	st.mu.Lock()
	for _, wc := range opened {
		if wc.gone {
			continue
		} else if wc.inTxn {
			st.conns[nodeID] = append(st.conns[nodeID], wc)
		} else if wc.broken {
			st.mu.Unlock()
			p.Discard(wc.conn)
			st.mu.Lock()
		} else {
			st.mu.Unlock()
			p.Put(wc.conn)
			st.mu.Lock()
		}
	}
	st.mu.Unlock()

	mu.Lock()
	defer mu.Unlock()
	return runErr
}

// acquireConn gets a connection from the pool, waiting under the shared
// limit only when the caller has no connection at all (must ≥ 1 to make
// progress; the wait is how connection slots converge to a fair division
// between concurrent distributed queries, §3.6.1).
func (n *Node) acquireConn(p *pool.NodePool, nodeID int, mustHave bool) (*workerConn, error) {
	for {
		c, err := p.Get()
		if err == nil {
			return &workerConn{conn: c, nodeID: nodeID, pool: p}, nil
		}
		if !errors.Is(err, pool.ErrLimit) || !mustHave {
			return nil, err
		}
		metConnWaits.Inc()
		time.Sleep(200 * time.Microsecond)
	}
}

// beginTxnBlock opens the remote transaction block the first time a
// transactional task lands on a connection. BEGIN and the session SETs
// (dist txn id, plus the isolation level for serializable sessions) ride
// one pipelined batch (one round trip instead of two or three); all are
// checked before any task request is issued, so a failed BEGIN can never
// let a write execute outside the block. With pipelining disabled they
// fall back to plain round trips.
func (n *Node) beginTxnBlock(s *engine.Session, st *sessState, wc *workerConn) error {
	stmts := []string{
		"BEGIN",
		fmt.Sprintf("SET citus.dist_txn_id = '%s'", st.distID),
	}
	// Serializable sessions propagate the isolation level so the worker's
	// local transaction registers for SSI tracking (SIREAD locks and
	// rw-antidependency edges happen where the data lives; see docs/ssi.md).
	if s.Serializable() && n.ssiActive() {
		stmts = append(stmts, "SET transaction_isolation = 'serializable'")
	}
	// The pool is shared across coordinator sessions, so these session-level
	// GUCs must be wiped before the connection is reused (see
	// resetWorkerSession) — a leaked 'serializable' would enroll unrelated
	// queries in SSI tracking, and a stale dist txn id could let a
	// cluster-wide pivot abort doom an innocent transaction.
	wc.dirty = true
	if n.Cfg.DisablePipelining {
		for i, q := range stmts {
			if _, err := wc.conn.Query(q); err != nil {
				wc.broken = true
				if i == 0 {
					return fmt.Errorf("opening transaction block on node %d: %w", wc.nodeID, err)
				}
				return err
			}
		}
		wc.inTxn = true
		return nil
	}
	pl := wc.conn.Pipeline(len(stmts))
	pending := make([]*wire.Pending, len(stmts))
	for i, q := range stmts {
		pending[i] = pl.Query(q)
	}
	_ = pl.Flush()
	for i, pd := range pending {
		if _, err := pd.Result(); err != nil {
			wc.broken = true
			if i == 0 {
				return fmt.Errorf("opening transaction block on node %d: %w", wc.nodeID, err)
			}
			return err
		}
	}
	wc.inTxn = true
	return nil
}

// resetWorkerSession wipes the session-level GUCs beginTxnBlock installed
// (dist txn id, isolation level) before a connection goes back to the
// shared pool — the moral equivalent of a pooler's server_reset_query.
// Without it the next checkout inherits another session's serializable
// isolation (enrolling plain autocommit reads in SSI tracking) and its
// stale dist txn id (misattributing stat rows, and worse: a cluster-wide
// pivot abort matches on dist id). Returns false when the reset itself
// failed, in which case the connection must be discarded, not pooled.
func (n *Node) resetWorkerSession(wc *workerConn) bool {
	stmts := []string{
		"SET citus.dist_txn_id = ''",
		"SET transaction_isolation = 'read committed'",
	}
	if n.Cfg.DisablePipelining {
		for _, q := range stmts {
			if _, err := wc.conn.Query(q); err != nil {
				return false
			}
		}
		wc.dirty = false
		return true
	}
	pl := wc.conn.Pipeline(len(stmts))
	pending := make([]*wire.Pending, len(stmts))
	for i, q := range stmts {
		pending[i] = pl.Query(q)
	}
	_ = pl.Flush()
	for _, pd := range pending {
		if _, err := pd.Result(); err != nil {
			return false
		}
	}
	wc.dirty = false
	return true
}

// runTask executes one task on one connection, opening a remote
// transaction block first when in transactional mode.
func (n *Node) runTask(s *engine.Session, st *sessState, wc *workerConn, t *task, results []*engine.Result, i int, txnMode bool) error {
	if txnMode && !wc.inTxn {
		if err := n.beginTxnBlock(s, st, wc); err != nil {
			return err
		}
	}
	// One child span per task (§3.6.1 meets the trace model): labeled with
	// the shard group, target node, plan-cache disposition, and — after the
	// round trip — the attempt count and row count. The trace context is
	// stamped onto the connection so the worker's engine spans (parse, plan,
	// execute, lock_wait, wal_fsync) nest under this task span.
	sp := n.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "task", t.sql)
	if sp != nil {
		sp.SetAttr("shard_group", strconv.FormatInt(t.shardGroup, 10))
		sp.SetAttr("node", strconv.Itoa(t.nodeID))
		cache := t.cache
		if cache == "" {
			cache = "miss"
		}
		sp.SetAttr("plancache", cache)
		wc.conn.SetTrace(s.TraceID, sp.SpanID())
	}
	start := time.Now()
	res, attempts, err := n.queryTask(wc, t)
	// Transient transport failures (connection reset, dropped response) on
	// idempotent work retry on a fresh connection with doubling backoff.
	// Only read-only tasks outside a transaction block qualify: a write or
	// an in-transaction task may have taken effect on the worker before
	// the response was lost, so re-running it is not safe.
	if err != nil && !t.isWrite && !txnMode && wc.pool != nil {
		for wire.IsTransient(err) && attempts < maxTaskAttempts {
			time.Sleep(taskRetryBackoff << (attempts - 1))
			if rerr := n.refreshConn(wc); rerr != nil {
				break
			}
			if sp != nil {
				wc.conn.SetTrace(s.TraceID, sp.SpanID())
			}
			metTaskRetries.Inc()
			attempts++
			res, _, err = n.queryTask(wc, t)
		}
	}
	if err != nil && wire.IsTransient(err) {
		// A transport-level failure means the connection's streams can no
		// longer be trusted (the transport may even be closed): mark it
		// broken so every disposition path discards it instead of
		// recycling it into the pool — even if the task itself is rescued
		// by the primary fallback below.
		wc.broken = true
	}
	if err != nil && n.canFallbackToPrimary(t, txnMode, wc) {
		if fres, ferr := n.replicaFallback(t); ferr == nil {
			res, err = fres, nil
		}
	}
	metTaskLatency.ObserveSince(start)
	n.latencyFor(wc.nodeID).ObserveSince(start)
	if sp != nil {
		sp.SetAttr("attempt", strconv.Itoa(attempts))
		if err != nil {
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("rows", strconv.Itoa(len(res.Rows)))
		}
		sp.Finish()
		wc.conn.ClearTrace()
	}
	if err != nil {
		return fmt.Errorf("task on node %d failed: %w", wc.nodeID, err)
	}
	results[i] = res
	if t.isWrite {
		wc.wrote = true
	}
	if txnMode && t.shardGroup >= 0 {
		st.mu.Lock()
		if _, ok := st.groupConn[t.shardGroup]; !ok {
			st.groupConn[t.shardGroup] = wc
		}
		st.mu.Unlock()
	}
	return nil
}

// runTaskWindow issues a batch of tasks bound for one connection as a
// single pipelined window (§3.6.1 meets libpq pipeline mode): all requests
// are encoded back-to-back and the responses drained in order, so a queue
// of k tasks costs one network round trip instead of k. Single-task
// batches (and the DisablePipelining ablation, which never builds larger
// ones) take the plain runTask path. Error semantics are runTask's:
// semantic errors fail their own task; a transport failure marks the
// connection broken, poisons the rest of the window, and — for read-only
// tasks outside a transaction — re-issues the failed tasks individually on
// a fresh connection, with writes never retried.
func (n *Node) runTaskWindow(s *engine.Session, st *sessState, wc *workerConn, idxs []int, tasks []task, results []*engine.Result, txnMode bool) error {
	if len(idxs) == 1 {
		return n.runTask(s, st, wc, &tasks[idxs[0]], results, idxs[0], txnMode)
	}
	if txnMode && !wc.inTxn {
		if err := n.beginTxnBlock(s, st, wc); err != nil {
			return err
		}
	}
	depth := strconv.Itoa(len(idxs))
	pl := wc.conn.Pipeline(n.Cfg.PipelineWindow)
	type slot struct {
		idx   int
		sp    *trace.ActiveSpan
		prep  *wire.Pending
		pd    *wire.Pending
		name  string
		start time.Time
	}
	slots := make([]slot, 0, len(idxs))
	var issueErr error
	for _, i := range idxs {
		t := &tasks[i]
		// executor.task fires per pipelined request exactly as it does per
		// round trip; a fault here stops issuing the rest of the window
		// (those tasks never reach the wire and report the same error).
		kind := "read"
		if t.isWrite {
			kind = "write"
		}
		if err := fault.CheckKey(fault.PointExecutorTask, kind); err != nil {
			issueErr = err
			break
		}
		sl := slot{idx: i, start: time.Now()}
		sp := n.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "task", t.sql)
		if sp != nil {
			sp.SetAttr("shard_group", strconv.FormatInt(t.shardGroup, 10))
			sp.SetAttr("node", strconv.Itoa(t.nodeID))
			cache := t.cache
			if cache == "" {
				cache = "miss"
			}
			sp.SetAttr("plancache", cache)
			sp.SetAttr("pipeline_depth", depth)
			// The request header is captured at enqueue time, so each task's
			// worker-side spans nest under its own task span even though the
			// whole window shares the connection.
			wc.conn.SetTrace(s.TraceID, sp.SpanID())
		}
		sl.sp = sp
		if n.Cfg.DisablePlanCache || len(t.params) == 0 {
			sl.pd = pl.Query(t.sql, t.params...)
		} else {
			sl.name = preparedName(t.sql)
			if wc.conn.PreparedSQL(sl.name) != t.sql {
				sl.prep = pl.Prepare(sl.name, t.sql)
			}
			sl.pd = pl.ExecutePrepared(sl.name, t.params...)
		}
		slots = append(slots, sl)
	}
	_ = pl.Flush()
	wc.conn.ClearTrace()

	var firstErr error
	refreshed := false
	for k := range slots {
		sl := &slots[k]
		t := &tasks[sl.idx]
		attempts := 1
		var res *engine.Result
		var err error
		if sl.prep != nil {
			err = sl.prep.Err()
		}
		if err == nil {
			res, err = sl.pd.Result()
			res, attempts, err = retryPlanInvalid(wc.conn, sl.name, t, res, err)
		}
		if err != nil && wire.IsTransient(err) {
			wc.broken = true
			// Re-issue transient failures on idempotent work, as runTask
			// does — the connection is refreshed once for the whole window,
			// then each failed read-only task retries individually on it.
			if !t.isWrite && !txnMode && wc.pool != nil {
				for wire.IsTransient(err) && attempts < maxTaskAttempts {
					time.Sleep(taskRetryBackoff << (attempts - 1))
					if !refreshed || wc.broken {
						if rerr := n.refreshConn(wc); rerr != nil {
							break
						}
						refreshed = true
					}
					if sl.sp != nil {
						wc.conn.SetTrace(s.TraceID, sl.sp.SpanID())
					}
					metTaskRetries.Inc()
					attempts++
					res, _, err = n.queryTask(wc, t)
					if err != nil && wire.IsTransient(err) {
						wc.broken = true
					}
				}
				wc.conn.ClearTrace()
			}
		}
		if err != nil && n.canFallbackToPrimary(t, txnMode, wc) {
			if fres, ferr := n.replicaFallback(t); ferr == nil {
				res, err = fres, nil
			}
		}
		metTaskLatency.ObserveSince(sl.start)
		n.latencyFor(wc.nodeID).ObserveSince(sl.start)
		if sl.sp != nil {
			sl.sp.SetAttr("attempt", strconv.Itoa(attempts))
			if err != nil {
				sl.sp.SetAttr("error", err.Error())
			} else {
				sl.sp.SetAttr("rows", strconv.Itoa(len(res.Rows)))
			}
			sl.sp.Finish()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("task on node %d failed: %w", wc.nodeID, err)
			}
			continue
		}
		results[sl.idx] = res
		if t.isWrite {
			wc.wrote = true
		}
		if txnMode && t.shardGroup >= 0 {
			st.mu.Lock()
			if _, ok := st.groupConn[t.shardGroup]; !ok {
				st.groupConn[t.shardGroup] = wc
			}
			st.mu.Unlock()
		}
	}
	if firstErr == nil && issueErr != nil {
		firstErr = fmt.Errorf("task on node %d failed: %w", wc.nodeID, issueErr)
	}
	return firstErr
}

// refreshConn swaps a worker connection's transport for a freshly dialed
// one from the originating pool (the old connection is presumed broken).
// The new connection is acquired before the old one is discarded so a
// failed dial leaves wc untouched — the normal broken-connection
// disposition then discards it exactly once. Under a tight shared
// connection limit the broken connection may itself hold the last slot:
// on ErrLimit the old one is discarded first to free its slot and the
// checkout retried with the same bounded wait acquireConn uses (the
// caller holds ≥1 slot's worth of claim and must get a connection to
// make progress).
func (n *Node) refreshConn(wc *workerConn) error {
	c, err := wc.pool.Get()
	if errors.Is(err, pool.ErrLimit) {
		wc.pool.Discard(wc.conn)
		wc.gone = true
		for errors.Is(err, pool.ErrLimit) {
			metConnWaits.Inc()
			time.Sleep(200 * time.Microsecond)
			c, err = wc.pool.Get()
		}
	}
	if err != nil {
		wc.broken = true
		return err
	}
	if !wc.gone {
		wc.pool.Discard(wc.conn)
	}
	wc.conn = c
	wc.gone = false
	wc.broken = false
	return nil
}

// queryTask ships one task to its worker. Parameterized tasks use the
// prepared-statement protocol so each (connection, statement shape) pair
// parses at most once worker-side; subsequent executions ship only the
// statement name and parameters. DDL and other parameterless one-off
// statements use plain Query. The second return value is the number of
// execution attempts (more than 1 after plan-invalid retries), recorded on
// the task span.
func (n *Node) queryTask(wc *workerConn, t *task) (*engine.Result, int, error) {
	// executor.task, keyed "read"/"write": fails or delays a task at the
	// moment of issue, before anything reaches the wire.
	kind := "read"
	if t.isWrite {
		kind = "write"
	}
	if err := fault.CheckKey(fault.PointExecutorTask, kind); err != nil {
		return nil, 1, err
	}
	if n.Cfg.DisablePlanCache || len(t.params) == 0 {
		res, err := wc.conn.Query(t.sql, t.params...)
		return res, 1, err
	}
	name := preparedName(t.sql)
	if wc.conn.PreparedSQL(name) != t.sql {
		if err := wc.conn.Prepare(name, t.sql); err != nil {
			return nil, 1, err
		}
	}
	res, err := wc.conn.ExecutePrepared(name, t.params...)
	return retryPlanInvalid(wc.conn, name, t, res, err)
}

// maxPlanInvalidAttempts caps the executions of one prepared task under
// back-to-back DDL; past it the rejection surfaces rather than spin.
const maxPlanInvalidAttempts = 6

// retryPlanInvalid takes the outcome of executing t's prepared statement
// and, while the worker rejects the plan as stale (DDL bumped its schema
// version after the Prepare), re-prepares and executes again with plain
// round trips. Every round-trip and pipelined execution goes through here,
// so the internal error reaches a client only past the cap. The worker
// rejects before it executes anything, which makes the loop safe for
// writes too. It returns the final outcome and the number of executions.
func retryPlanInvalid(conn *wire.Conn, name string, t *task, res *engine.Result, err error) (*engine.Result, int, error) {
	attempts := 1
	for wire.IsPlanInvalid(err) && attempts < maxPlanInvalidAttempts {
		attempts++
		if perr := conn.Prepare(name, t.sql); perr != nil {
			return nil, attempts, perr
		}
		// executor.reprepare: the window in which one more DDL makes the
		// fresh plan stale again before it runs.
		if ferr := fault.Check(fault.PointExecutorReprepare); ferr != nil {
			return nil, attempts, ferr
		}
		res, err = conn.ExecutePrepared(name, t.params...)
	}
	return res, attempts, err
}

// canFallbackToPrimary reports whether a failed read may be re-issued on
// its primary placement: the task ran on a replica (standby reads can
// fail transiently — lagging schema, mid-promotion, crashed standby),
// it is idempotent (read-only, outside a transaction block), and a
// primary candidate exists.
func (n *Node) canFallbackToPrimary(t *task, txnMode bool, wc *workerConn) bool {
	return !t.isWrite && !txnMode && len(t.readNodes) > 1 && wc.nodeID != t.readNodes[0]
}

// replicaFallback retries a failed replica read on the primary placement
// over a fresh connection. The replica's connection disposition is
// untouched — the caller already marked it broken if the transport died.
func (n *Node) replicaFallback(t *task) (*engine.Result, error) {
	primary := t.readNodes[0]
	p, err := n.poolFor(primary)
	if err != nil {
		return nil, err
	}
	wc, err := n.acquireConn(p, primary, true)
	if err != nil {
		return nil, err
	}
	res, _, err := n.queryTask(wc, t)
	if err != nil {
		p.Discard(wc.conn)
		return nil, err
	}
	p.Put(wc.conn)
	metReplicaFallbacks.Inc()
	return res, nil
}

// preparedName derives a stable statement name from the task SQL. A hash
// collision is harmless: PreparedSQL compares the full text, so a colliding
// shape just re-Prepares (the server overwrites the name).
func preparedName(sqlText string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sqlText))
	return "cs_" + strconv.FormatUint(h.Sum64(), 16)
}
