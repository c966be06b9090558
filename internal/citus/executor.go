package citus

import (
	"errors"
	"fmt"
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
	metTasksResult   = metTasksVec.With("result")
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
// attempts with doubling backoff.
const (
	maxTaskAttempts  = 4
	taskRetryBackoff = 500 * time.Microsecond
)

// task is one query against one shard placement — the unit of distributed
// execution (§3.5: "a distributed query plan consists of a set of tasks").
type task struct {
	nodeID     int
	shardGroup int64  // co-located shard group for connection affinity; -1 none
	sql        string // the statement; for a COPY task, the shard it loads
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
	// replica marks a write another task of the plan also makes, on another
	// placement of the same shard (a reference table's): the statement's
	// affected count and RETURNING rows come from the other task.
	replica bool
	// copyRows make the task a COPY of these rows, columns copyCols, into
	// the shard named by sql (copyTasks), or with isResult an append of them
	// to the intermediate result named by sql (appendTask).
	copyCols []string
	copyRows []types.Row
	// isResult marks an append to an intermediate result: neither a read nor
	// a write. It is never retried or routed to a replica, since a second
	// append would duplicate its rows, and it joins no transaction block.
	isResult bool
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
	defer n.executorDone()
	st := n.state(s)

	writeTasks, resultTasks := 0, 0
	for i := range tasks {
		switch {
		case tasks[i].isWrite:
			writeTasks++
		case tasks[i].isResult:
			resultTasks++
		}
	}
	metTasksWrite.Add(int64(writeTasks))
	metTasksResult.Add(int64(resultTasks))
	metTasksRead.Add(int64(len(tasks) - writeTasks - resultTasks))
	// Replica-aware read routing: an autocommit read with placement
	// candidates picks its node now, round-robin across healthy
	// placements. Reads inside an explicit transaction stay on the primary
	// so the session observes its own uncommitted writes, and so do the
	// reads of a subplan that feeds a write (evalSubplan).
	inTxn := s.InTransaction()
	routed := !inTxn && st.primaryReads == 0
	for i := range tasks {
		t := &tasks[i]
		if t.isWrite || len(t.readNodes) == 0 {
			continue
		}
		if routed {
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

	results := make([]*engine.Result, len(tasks))
	if len(tasks) == 1 {
		// One task (every router and fast-path statement): there is nothing
		// to run beside it, so it runs here, on the session's goroutine.
		if err := n.runNodeTasks(s, st, tasks[0].nodeID, []int{0}, tasks, results, txnMode); err != nil {
			return nil, err
		}
	} else {
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

// nodeRun schedules one worker node's share of a statement's tasks across
// that node's connections: partition splits them into per-connection queues
// and the general queue, every connection runs drain and, unless a
// transaction holds it by then, goes back to the pool at its end, ramp opens
// more connections on the slow-start schedule, dispose pins the opened
// connections a transaction holds to the session.
type nodeRun struct {
	n       *Node
	s       *engine.Session
	st      *sessState
	nodeID  int
	pool    *pool.NodePool
	tasks   []task
	results []*engine.Result
	txnMode bool

	// inline: the node has one task, so the first connection started runs
	// it on the caller's goroutine and any other finds the queue empty.
	inline bool

	// general is the queue any connection may take from; remaining counts
	// its tasks not yet finished.
	general   chan int
	remaining atomic.Int64
	// fairShare is how many general tasks a connection takes per window.
	fairShare int

	// conns counts connections running drain, ramp included while it may
	// still open one; started counts them for the ramp's arithmetic.
	conns   sync.WaitGroup
	started atomic.Int64
	// drained closes once no further connection can help: the general queue
	// is finished or the run aborted. It is what ends the ramp, and is nil
	// in a run that has none.
	drained     chan struct{}
	drainedOnce sync.Once
	aborted     atomic.Bool

	mu     sync.Mutex // guards err and opened
	err    error
	opened []*workerConn
}

// runNodeTasks schedules one worker node's tasks across its connections.
func (n *Node) runNodeTasks(s *engine.Session, st *sessState, nodeID int, idxs []int, tasks []task, results []*engine.Result, txnMode bool) error {
	p, err := n.poolFor(nodeID)
	if err != nil {
		return err
	}
	r := &nodeRun{
		n: n, s: s, st: st, nodeID: nodeID, pool: p,
		tasks: tasks, results: results, txnMode: txnMode,
		inline: len(idxs) == 1,
	}
	assigned, pinned, general := r.partition(idxs)
	ramps := n.Cfg.SlowStartInterval > 0 && general > 1
	if ramps {
		r.drained = make(chan struct{})
	}

	// Existing pinned/assigned connections start immediately.
	for wc, private := range assigned {
		r.start(wc, private)
	}
	for _, wc := range pinned {
		if _, ok := assigned[wc]; !ok {
			r.start(wc, nil)
		}
	}
	// Slow start: n=1 connection may be opened now; every interval the
	// allowance grows by one, and we open min(allowance, pending tasks).
	// A negative interval disables the ramp entirely (instant fan-out, the
	// ablation baseline).
	if r.started.Load() == 0 && (general > 0 || txnMode) {
		r.open()
	}
	if n.Cfg.SlowStartInterval < 0 {
		for int(r.started.Load()) < general && !r.aborted.Load() {
			if !r.open() {
				break
			}
		}
	}
	if ramps {
		// The ramp holds a count in conns for as long as it may open
		// connections, so each Add it makes through start is ordered before
		// Wait can return, and every connection it opens is in r.opened by
		// the time dispose runs.
		r.conns.Add(1)
		go r.ramp()
	}
	r.conns.Wait()
	r.dispose()
	return r.err
}

// partition splits the node's tasks into per-connection assigned queues
// (transaction affinity: a shard group stays on the connection that first
// touched it) and the general queue, which it fills, and returns the
// session's connections already pinned to this node. It also fixes
// fairShare, a connection's window size for the general queue. The shared
// connection limit caps this node's possible fan-out, so when it forces
// multiple tasks per connection the surplus rides one pipelined window
// instead of paying a round trip each; when the limit would permit one
// connection per task, windows stay at 1 and the adaptive fan-out keeps its
// full cross-connection parallelism. The share is fixed from the initial
// queue length rather than the live remainder: a shrinking target would hand
// the first grab a full share and every later grab a sliver (windows of
// 4,2,1,1 instead of 4,4 for 8 tasks under limit 2), paying round trips for
// parallelism the limit can't deliver anyway.
func (r *nodeRun) partition(idxs []int) (assigned map[*workerConn][]int, pinned []*workerConn, general int) {
	r.general = make(chan int, len(idxs))
	r.st.mu.Lock()
	for _, i := range idxs {
		if g := r.tasks[i].shardGroup; g >= 0 {
			if wc, ok := r.st.groupConn[g]; ok && wc.nodeID == r.nodeID {
				if assigned == nil {
					assigned = make(map[*workerConn][]int)
				}
				assigned[wc] = append(assigned[wc], i)
				continue
			}
		}
		r.general <- i
	}
	pinned = append(pinned, r.st.conns[r.nodeID]...)
	r.st.mu.Unlock()
	close(r.general)
	general = len(r.general)
	r.remaining.Store(int64(general))

	limit := r.n.Cfg.MaxSharedPoolSize
	r.fairShare = max(1, min((general+limit-1)/limit, r.n.Cfg.PipelineWindow))
	return assigned, pinned, general
}

// start runs drain for one connection: on its own goroutine, or, when the
// node's one task leaves nothing to run in parallel, right here.
func (r *nodeRun) start(wc *workerConn, private []int) {
	r.started.Add(1)
	if r.inline {
		r.drain(wc, private)
		return
	}
	r.conns.Add(1)
	go func() {
		defer r.conns.Done()
		r.drain(wc, private)
	}()
}

// drain is the per-connection loop: first the connection's private queue,
// then windows of fairShare tasks from the general queue until it is empty.
// The private queue is this connection's alone (transaction affinity pins
// its shard groups here), so it goes out in full windows — there is no
// parallelism to preserve by holding back.
func (r *nodeRun) drain(wc *workerConn, private []int) {
	window := r.n.Cfg.PipelineWindow
	for len(private) > 0 {
		if r.aborted.Load() {
			return
		}
		k := min(len(private), window)
		if err := r.n.runTaskWindow(r.s, r.st, wc, private[:k], r.tasks, r.results, r.txnMode); err != nil {
			r.fail(err)
			return
		}
		private = private[k:]
	}
	batch := make([]int, 0, r.fairShare)
	for i := range r.general {
		batch = append(batch[:0], i)
	fill:
		for len(batch) < r.fairShare {
			select {
			case j, ok := <-r.general:
				if !ok {
					break fill
				}
				batch = append(batch, j)
			default:
				break fill
			}
		}
		if !r.aborted.Load() {
			if err := r.n.runTaskWindow(r.s, r.st, wc, batch, r.tasks, r.results, r.txnMode); err != nil {
				r.fail(err)
			}
		}
		if r.remaining.Add(-int64(len(batch))) == 0 {
			r.markDrained()
		}
	}
	// A connection no transaction holds — so one this run opened: the
	// session's pinned ones are all inside its block — has nothing more to do
	// for the statement once the queue is empty, and goes back now, not when
	// the statement ends: its slot of the shared limit is another session's to
	// take while this statement's slower connections finish.
	if !wc.inTxn {
		switch {
		case wc.gone:
		case wc.broken:
			r.pool.Discard(wc.conn)
		default:
			r.pool.Put(wc.conn)
		}
	}
}

func (r *nodeRun) markDrained() {
	if r.drained != nil {
		r.drainedOnce.Do(func() { close(r.drained) })
	}
}

// fail records the run's first error and aborts it: queued tasks are
// consumed without being issued.
func (r *nodeRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.aborted.Store(true)
	r.markDrained()
}

// open checks a new connection out of the node's pool and starts it on the
// general queue. It reports false when the shared connection limit (not an
// error) or a failed checkout (the run's error) left nothing to start.
func (r *nodeRun) open() bool {
	wc, err := r.n.acquireConn(r.pool, r.nodeID, r.started.Load() == 0)
	if err != nil {
		if !errors.Is(err, pool.ErrLimit) {
			r.fail(err)
		}
		return false
	}
	metConnsOpenedBy.With(strconv.Itoa(r.nodeID)).Inc()
	r.mu.Lock()
	r.opened = append(r.opened, wc)
	r.mu.Unlock()
	r.start(wc, nil)
	return true
}

// ramp is the slow-start schedule (§3.6.1): each tick the allowance grows by
// one and it opens min(allowance, tasks no connection has reached yet) new
// connections, until the general queue is drained.
func (r *nodeRun) ramp() {
	defer r.conns.Done()
	allowance := 1
	ticker := time.NewTicker(r.n.Cfg.SlowStartInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.drained:
			return
		case <-ticker.C:
			allowance++
			metSlowStartRounds.Inc()
			// Unfinished tasks less started connections: at a task per window
			// that is the tasks still queued less the connections about to
			// take one. A wider window in flight counts all its tasks, and the
			// connection opened for them finds the queue empty and goes
			// straight back (drain).
			want := int(r.remaining.Load() - r.started.Load())
			if allowance < want {
				want = allowance
			}
			for k := 0; k < want; k++ {
				if r.aborted.Load() || !r.open() {
					break
				}
			}
		}
	}
}

// dispose pins the connections this run opened that are now inside the
// transaction's block to the session; drain has handed back the rest.
func (r *nodeRun) dispose() {
	for _, wc := range r.opened {
		if wc.inTxn && !wc.gone {
			r.st.mu.Lock()
			r.st.conns[r.nodeID] = append(r.st.conns[r.nodeID], wc)
			r.st.mu.Unlock()
		}
	}
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
		p.WaitFree()
	}
}

// issuedTask is one task between its issue and resolve steps: the wire
// request in flight for it and what finishing it needs.
type issuedTask struct {
	idx   int
	sp    *trace.ActiveSpan
	start time.Time
	pd    *wire.Pending
	err   error // executor.task fault: nothing was sent
}

// runTaskWindow is the one way a task reaches a connection (§3.6.1 meets
// libpq pipeline mode). It issues a batch of tasks bound for one connection
// as a single window — all requests encoded back-to-back — and resolves the
// responses in order, so a queue of k tasks costs one network round trip
// instead of k; serial issue is the same code at a window of 1. In
// transactional mode every request names the distributed transaction's block
// (wire.Block) and the worker enters it — opening it for the first request
// to arrive — as one step with executing the statement: the block costs no
// round trip of its own, and at any window a request whose block cannot be
// entered executes nothing. Serializable sessions pass the isolation level
// along, so the worker's transaction registers for SSI tracking where the
// data lives (docs/ssi.md); repeatable read sessions pass theirs, so the
// worker's transaction keeps its first statement's snapshot.
// Semantic errors fail their own task; a transport failure marks the
// connection broken, poisons the rest of the window, and — for read-only
// tasks outside a transaction — re-issues the failed tasks one by one on a
// fresh connection, with writes never retried.
func (n *Node) runTaskWindow(s *engine.Session, st *sessState, wc *workerConn, idxs []int, tasks []task, results []*engine.Result, txnMode bool) error {
	if txnMode {
		wc.conn.SetBlock(wire.Block{DistID: st.distID, Serializable: s.Serializable() && n.ssiActive(),
			RepeatableRead: s.RepeatableRead()})
		defer wc.conn.ClearBlock()
	}
	pl := wc.conn.Pipeline(n.Cfg.PipelineWindow)
	issued := make([]issuedTask, 0, len(idxs))
	for _, i := range idxs {
		t := &tasks[i]
		// One child span per task: labeled with the shard group, target node,
		// plan-cache disposition, and — once resolved — the attempt count and
		// row count. The trace context is stamped onto the connection and
		// captured in the request header at enqueue time, so the worker's
		// engine spans (parse, plan, execute, lock_wait, wal_fsync) nest under
		// their own task span even though the window shares the connection.
		start := time.Now()
		sp := n.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "task", t.sql)
		if sp != nil {
			sp.SetAttr("shard_group", strconv.FormatInt(t.shardGroup, 10))
			sp.SetAttr("node", strconv.Itoa(t.nodeID))
			cache := t.cache
			if cache == "" {
				cache = "miss"
			}
			sp.SetAttr("plancache", cache)
			if len(idxs) > 1 {
				sp.SetAttr("pipeline_depth", strconv.Itoa(len(idxs)))
			}
			wc.conn.SetTrace(s.TraceID, sp.SpanID())
		}
		is := sendTask(pl, t)
		is.idx, is.sp, is.start = i, sp, start
		issued = append(issued, is)
		if is.err != nil {
			// A fault at issue stops the window: the remaining tasks never
			// reach the wire and the statement fails with this error.
			break
		}
		if txnMode && !t.isResult {
			// The worker may be inside the block from here on, whatever
			// becomes of the response: the connection stays with the
			// transaction.
			wc.inTxn = true
		}
	}
	_ = pl.Flush()
	wc.conn.ClearTrace()

	var firstErr error
	for k := range issued {
		is := &issued[k]
		t := &tasks[is.idx]
		res, err := n.finishTask(s, wc, t, is, txnMode)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("task on node %d failed: %w", wc.nodeID, err)
			}
			continue
		}
		results[is.idx] = res
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
	if firstErr == nil && len(issued) < len(idxs) {
		// The faulted task itself was rescued (primary fallback), but the
		// tasks behind it were never issued and have no result.
		firstErr = fmt.Errorf("task on node %d failed: %w", wc.nodeID, issued[len(issued)-1].err)
	}
	return firstErr
}

// sendTask is the issue step: it enqueues t's request on pl, the task's text
// and its parameters, or a COPY or append task's rows. The worker session
// behind a pooled connection parses a text once and keeps the tree
// (engine.Session.ExecForward), so a repeated task shape costs the worker a
// map lookup.
func sendTask(pl *wire.Pipeline, t *task) issuedTask {
	// executor.task, keyed "read"/"write"/"result": fails or delays a task
	// at the moment of issue, before anything reaches the wire.
	kind := "read"
	switch {
	case t.isWrite:
		kind = "write"
	case t.isResult:
		kind = "result"
	}
	if err := fault.CheckKey(fault.PointExecutorTask, kind); err != nil {
		return issuedTask{err: err}
	}
	if t.isResult {
		return issuedTask{pd: pl.AppendResult(t.sql, t.copyCols, t.copyRows)}
	}
	if t.copyRows != nil {
		return issuedTask{pd: pl.Copy(t.sql, t.copyCols, t.copyRows)}
	}
	return issuedTask{pd: pl.Query(t.sql, t.params...)}
}

// recvTask is the resolve step, valid once the window holding is was
// flushed: the task's result.
func recvTask(is *issuedTask) (*engine.Result, error) {
	if is.err != nil {
		return nil, is.err
	}
	return is.pd.EncodedResult()
}

// finishTask resolves one issued task and applies the executor's recovery
// policy to its outcome, then closes its span and records its latency.
func (n *Node) finishTask(s *engine.Session, wc *workerConn, t *task, is *issuedTask, txnMode bool) (*engine.Result, error) {
	res, err := recvTask(is)
	attempts := 1 // recorded on the task span
	// Transient transport failures (connection reset, dropped response) on
	// idempotent work retry on a fresh connection with doubling backoff.
	// Only read-only tasks outside a transaction block qualify: a write, an
	// append or an in-transaction task may have taken effect on the worker
	// before the response was lost, so re-running it is not safe.
	//
	// A transport-level failure also means the connection's streams can no
	// longer be trusted (the transport may even be closed): it is marked
	// broken so every disposition path discards it instead of recycling it
	// into the pool — even if the task itself is rescued by a retry on a
	// fresh connection or by the primary fallback below. So is a connection
	// whose session refused the transaction block: it is in some other one.
	if wire.IsTransient(err) || wire.IsBlockRefused(err) {
		wc.broken = true
	}
	retryable := !t.isWrite && !t.isResult && !txnMode && wc.pool != nil
	for retryable && wire.IsTransient(err) && attempts < maxTaskAttempts {
		time.Sleep(taskRetryBackoff << (attempts - 1))
		if n.refreshConn(wc) != nil {
			break
		}
		if is.sp != nil {
			wc.conn.SetTrace(s.TraceID, is.sp.SpanID())
		}
		metTaskRetries.Inc()
		attempts++
		res, err = n.queryTask(wc.conn, t)
		wc.conn.ClearTrace()
		wc.broken = wire.IsTransient(err)
	}
	if err != nil && n.canFallbackToPrimary(t, txnMode, wc) {
		if fres, ferr := n.replicaFallback(t); ferr == nil {
			res, err = fres, nil
		}
	}
	metTaskLatency.ObserveSince(is.start)
	n.latencyFor(wc.nodeID).ObserveSince(is.start)
	if is.sp != nil {
		is.sp.SetAttr("attempt", strconv.Itoa(attempts))
		if err != nil {
			is.sp.SetAttr("error", err.Error())
		} else {
			is.sp.SetAttr("rows", strconv.Itoa(res.NumRows()))
		}
		is.sp.Finish()
	}
	return res, err
}

// refreshConn swaps a worker connection's transport, presumed broken, for a
// freshly dialed one inside the slot of the shared connection limit the old
// one holds (pool.Replace): the retry competes with no other session for a
// slot, however tight the limit. A failed dial leaves wc without a
// connection and without a slot.
func (n *Node) refreshConn(wc *workerConn) error {
	c, err := wc.pool.Replace(wc.conn)
	if err != nil {
		wc.gone, wc.broken = true, true
		return err
	}
	wc.conn, wc.broken = c, false
	return nil
}

// queryTask ships one task on its own: issue one, resolve one. The
// transient-retry loop and the replica fallback use it once a task's
// window is gone.
func (n *Node) queryTask(conn *wire.Conn, t *task) (*engine.Result, error) {
	pl := conn.Pipeline(n.Cfg.PipelineWindow)
	is := sendTask(pl, t)
	_ = pl.Flush()
	return recvTask(&is)
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
	res, err := n.queryTask(wc.conn, t)
	if err != nil {
		p.Discard(wc.conn)
		return nil, err
	}
	p.Put(wc.conn)
	metReplicaFallbacks.Inc()
	return res, nil
}
