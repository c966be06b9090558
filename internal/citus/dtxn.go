package citus

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/ssi"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// Distributed transaction and deadlock detector metrics (§3.7).
var (
	metSingleNodeCommits = obs.Default().Counter("dtxn_single_node_commits_total",
		"distributed transactions committed via single-node delegation (no 2PC, §3.7.1)").With()
	met2pcPrepares = obs.Default().Counter("dtxn_2pc_prepares_total",
		"PREPARE TRANSACTION calls issued to workers (§3.7.2)").With()
	met2pcCommits = obs.Default().Counter("dtxn_2pc_commits_total",
		"two-phase commits that reached the committed decision").With()
	met2pcAborts = obs.Default().Counter("dtxn_2pc_aborts_total",
		"two-phase commits that aborted (prepare failure or local rollback)").With()
	metRecoveryResolved = obs.Default().Counter("dtxn_recovery_resolved_total",
		"prepared transactions resolved by the 2PC recovery daemon").With()
	metCommitLatency = obs.Default().Histogram("dtxn_commit_latency_ns",
		"2PC commit protocol latency (prepare through resolution) in nanoseconds", nil).With()

	metDeadlockPolls = obs.Default().Counter("deadlock_polls_total",
		"distributed deadlock detector graph polls (§3.7.3)").With()
	metDeadlockCycles = obs.Default().Counter("deadlock_cycles_total",
		"cycles found in the merged distributed waits-for graph").With()
	metDeadlockVictims = obs.Default().Counter("deadlock_victims_total",
		"distributed transactions cancelled as deadlock victims").With()
)

// registerTxnCallbacks hooks the distributed commit protocol into the
// session's local transaction (the paper's transaction callbacks, §3.1 and
// §3.7): pre-commit runs PREPARE TRANSACTION on every involved worker and
// writes commit records; the end callback resolves the prepared
// transactions on a best-effort basis, with the recovery daemon as backstop.
// Each phase is one flight: its requests go out on all participants'
// connections before any response is read, so a phase costs one wait however
// many participants there are.
func (n *Node) registerTxnCallbacks(s *engine.Session, st *sessState) {
	st.mu.Lock()
	if st.registered {
		st.mu.Unlock()
		return
	}
	st.registered = true
	st.distID = n.nextDistTxnID()
	st.mu.Unlock()

	t := s.Txn()
	if t == nil {
		// runPlan/WithTxn always ensure a transaction before execution
		panic("citus: registerTxnCallbacks without a transaction")
	}
	t.SetDistID(st.distID)
	// The trace context of the statement that opened the distributed
	// transaction. 2PC spans attach here so the commit protocol shows up in
	// the same trace as the work it makes atomic (the callbacks may fire
	// after that statement's root span has closed — the spans still land in
	// the ring and reassemble via citus_trace, they just miss the slow log).
	traceID, traceSpanID := s.TraceID, s.SpanID

	var prepared []preparedConn
	committedRecords := false
	var commitStart time.Time

	t.OnPreCommit(func() error {
		participants := st.txnConns()
		if len(participants) == 0 {
			return nil
		}
		writers := 0
		nodes := make(map[int]bool)
		for _, wc := range participants {
			if wc.wrote {
				writers++
			}
			nodes[wc.nodeID] = true
		}
		// Distributed SSI: a serializable transaction spanning several nodes
		// validates against the merged conflict graph before any participant
		// commits; the commit mutex is held until the worker commits (or
		// prepares, which fix the SSI commit order) have landed, so sibling
		// serializable commits serialize against this check. A dangerous
		// pivot aborts here with a retryable serialization error — the
		// cluster-wide write-skew abort.
		if len(nodes) > 1 && s.Serializable() && n.ssiActive() {
			release, err := n.ssiMergedCheck(st.distID, participants, traceID, traceSpanID)
			defer release()
			if err != nil {
				return err
			}
		}
		stmts := make([]flightStmt, len(participants))
		// Single-node delegation (§3.7.1): with at most one writer there
		// is nothing to make atomic across nodes — plain COMMIT suffices
		// and the worker provides full ACID locally.
		if writers <= 1 {
			for i, wc := range participants {
				stmts[i] = flightStmt{wc: wc, sql: "COMMIT"}
			}
			var firstErr error
			for i, err := range flight(stmts) {
				wc := participants[i]
				if err != nil {
					if wc.wrote && firstErr == nil {
						firstErr = err
					}
					continue
				}
				wc.inTxn = false
				// Sync-replication barrier: the worker committed, but the
				// client is not acknowledged until the write is on the
				// standbys (or within the async lag bound).
				if wc.wrote && firstErr == nil && n.SyncWaiter != nil {
					if err := n.SyncWaiter(wc.nodeID); err != nil {
						firstErr = fmt.Errorf("replication wait after commit on node %d: %w", wc.nodeID, err)
					}
				}
			}
			if firstErr == nil {
				metSingleNodeCommits.Inc()
			}
			return firstErr
		}
		// Two-phase commit (§3.7.2). The prepare flight: PREPARE TRANSACTION
		// to every writer — behind 2pc.prepare, keyed by worker node ID, where
		// chaos schedules stop (gate) to crash a participant or fail the
		// prepare outright — and, since they have nothing to make atomic,
		// COMMIT to the read-only participants.
		commitStart = time.Now()
		psp := n.Eng.Tracer.StartSpan(traceID, traceSpanID, "2pc_prepare", st.distID)
		defer psp.Finish()
		gids := make([]string, len(participants))
		for i, wc := range participants {
			if !wc.wrote {
				stmts[i] = flightStmt{wc: wc, sql: "COMMIT"}
				continue
			}
			met2pcPrepares.Inc()
			gids[i] = gidFor(st.distID, i)
			stmts[i] = flightStmt{wc: wc, point: fault.Point2PCPrepare,
				sql: "PREPARE TRANSACTION " + types.QuoteString(gids[i])}
		}
		var prepareErr error
		for i, err := range flight(stmts) {
			wc := participants[i]
			switch {
			case err == nil:
				wc.inTxn = false
				if wc.wrote {
					prepared = append(prepared, preparedConn{wc: wc, gid: gids[i]})
				}
			case wc.wrote && prepareErr == nil:
				prepareErr = fmt.Errorf("prepare on node %d failed: %w", wc.nodeID, err)
			}
		}
		if prepareErr != nil {
			// Every participant must abort: roll back those that did
			// prepare. One whose vote was lost in transit may be prepared
			// too; with no commit record, the recovery daemon rolls it back.
			resolve(prepared, false)
			prepared = nil
			met2pcAborts.Inc()
			return prepareErr
		}
		// 2pc.commit_record, keyed by dist txn id: this is the moment the
		// commit-record rule pivots on. A failure here means no record
		// became durable, so the abort path (OnEnd with committedRecords
		// still false) rolls back every prepared participant; a delay here
		// widens the prepare→record window the recovery grace period must
		// protect (see RecoverTwoPhaseCommits).
		if err := fault.CheckKey(fault.Point2PCCommitRecord, st.distID); err != nil {
			met2pcAborts.Inc()
			return fmt.Errorf("writing commit records for %s failed: %w", st.distID, err)
		}
		// Write the commit records; their durability with the local commit
		// decides the transaction's fate during recovery. commitMu also
		// serializes against restore-point creation (§3.9).
		n.commitMu.Lock()
		for _, p := range prepared {
			n.writeCommitRecordLocked(p.gid)
		}
		n.commitMu.Unlock()
		committedRecords = true
		return nil
	})

	t.OnEnd(func(committed bool) {
		// Resolve prepared transactions best-effort, in one flight; failures
		// are left to the recovery daemon, guided by the commit records.
		if len(prepared) > 0 {
			rsp := n.Eng.Tracer.StartSpan(traceID, traceSpanID, "2pc_resolve", st.distID)
			defer rsp.Finish()
			commit := committed && committedRecords
			if committedRecords && !commit {
				// The local commit failed behind durable commit records: the
				// coordinator's transaction was cancelled — a distributed
				// deadlock's victim — after its pre-commit callbacks had run.
				// The decision is abort, and it is made durable before the
				// first ROLLBACK PREPARED goes out: a rollback that is lost
				// leaves its participant prepared, and recovery commits
				// whatever a record still names.
				n.commitMu.Lock()
				for _, p := range prepared {
					n.deleteCommitRecordLocked(p.gid)
				}
				n.commitMu.Unlock()
				committedRecords = false
			}
			allResolved := resolve(prepared, commit)
			if committedRecords && allResolved {
				n.commitMu.Lock()
				for _, p := range prepared {
					n.dropCommitRecordLocked(p.gid)
				}
				n.commitMu.Unlock()
			}
			if commit {
				met2pcCommits.Inc()
				// Sync-replication barrier after COMMIT PREPARED: the
				// decision is final (commit records are durable), so a wait
				// failure cannot change the outcome — it only delays the
				// client acknowledgment, and timeouts are surfaced through
				// the repl_sync_timeouts_total counter.
				if n.SyncWaiter != nil && allResolved {
					for _, p := range prepared {
						_ = n.SyncWaiter(p.wc.nodeID)
					}
				}
			} else {
				met2pcAborts.Inc()
			}
			if !commitStart.IsZero() {
				metCommitLatency.ObserveSince(commitStart)
			}
		}
		// Abort any connection still holding an open transaction block
		// (statement failure or local rollback). A broken one is about to be
		// discarded, which ends its block on the worker.
		var open []flightStmt
		for _, wc := range st.txnConns() {
			if wc.inTxn && !wc.broken {
				open = append(open, flightStmt{wc: wc, sql: "ROLLBACK"})
			}
		}
		for i, err := range flight(open) {
			if err == nil {
				open[i].wc.inTxn = false
			}
		}
		n.releaseSessionConns(st)
	})
}

// preparedConn is a participant that voted yes, with the name of its vote.
type preparedConn struct {
	wc  *workerConn
	gid string
}

// flightStmt is one connection's statement in a flight.
type flightStmt struct {
	wc *workerConn
	// point, when set, is the 2pc.* fault point checked, keyed by the
	// worker's node ID, before this statement is issued: an error there
	// fails this participant alone, a gate holds the rest of the flight back
	// with the earlier participants' requests already on the wire.
	point string
	sql   string
}

// flight issues one statement on each of several connections before it reads
// any response: the participants work at the same time and the coordinator,
// on the caller's goroutine, waits once for all of them. It returns each
// participant's error. A participant whose statement failed is marked broken
// and so discarded, never pooled — after a transport failure its connection
// may hold a response nobody read, after any other its session is not where
// the commit protocol assumes.
func flight(stmts []flightStmt) []error {
	errs := make([]error, len(stmts))
	pending := make([]*wire.Pending, len(stmts))
	for i, f := range stmts {
		if f.point != "" {
			errs[i] = fault.CheckKey(f.point, strconv.Itoa(f.wc.nodeID))
		}
		if errs[i] == nil {
			pending[i] = f.wc.conn.Start(f.sql)
		}
	}
	for i, f := range stmts {
		if pending[i] != nil {
			_, errs[i] = f.wc.conn.Finish(pending[i])
		}
		if errs[i] != nil {
			f.wc.broken = true
		}
	}
	return errs
}

// resolve finishes prepared transactions in one flight — COMMIT PREPARED, or
// ROLLBACK PREPARED — each behind its 2pc.commit / 2pc.abort fault point: a
// fault there leaves the prepared transaction dangling on that worker, which
// is exactly the state the recovery daemon must resolve from the commit
// records. It serves the commit, the abort after a local rollback and the
// abort after a failed prepare, and reports whether every participant
// confirmed.
func resolve(prepared []preparedConn, commit bool) bool {
	verb, point := "ROLLBACK PREPARED ", fault.Point2PCAbort
	if commit {
		verb, point = "COMMIT PREPARED ", fault.Point2PCCommit
	}
	stmts := make([]flightStmt, len(prepared))
	for i, p := range prepared {
		stmts[i] = flightStmt{wc: p.wc, point: point, sql: verb + types.QuoteString(p.gid)}
	}
	all := true
	for _, err := range flight(stmts) {
		all = all && err == nil
	}
	return all
}

// txnConns flattens the session's pinned connections, ordered by node so
// that a transaction's participants — their flight positions and gids — do
// not depend on map iteration.
func (st *sessState) txnConns() []*workerConn {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*workerConn
	for _, conns := range st.conns {
		out = append(out, conns...)
	}
	slices.SortStableFunc(out, func(a, b *workerConn) int { return a.nodeID - b.nodeID })
	return out
}

// releaseSessionConns returns the session's pinned connections to the
// shared pools and resets per-transaction state. A connection's session kept
// nothing of the transaction — its id and isolation level ended with the
// block — so a sound one goes back as it is.
func (n *Node) releaseSessionConns(st *sessState) {
	st.mu.Lock()
	conns := st.conns
	st.conns = make(map[int][]*workerConn)
	st.groupConn = make(map[int64]*workerConn)
	st.registered = false
	st.distID = ""
	st.mu.Unlock()
	for nodeID, list := range conns {
		p, err := n.poolFor(nodeID)
		if err != nil {
			continue
		}
		for _, wc := range list {
			if wc.broken || wc.inTxn {
				p.Discard(wc.conn)
			} else {
				p.Put(wc.conn)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// 2PC recovery daemon (§3.7.2)

func (n *Node) recoveryLoop() {
	defer n.daemons.Done()
	ticker := time.NewTicker(n.Cfg.RecoveryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			n.RecoverTwoPhaseCommits()
		}
	}
}

// RecoverTwoPhaseCommits compares pending prepared transactions on every
// node against the local commit records: "If a commit record is present for
// a prepared transaction, the coordinator committed hence the prepared
// transaction must also commit. Conversely, if no record is present for a
// transaction that has ended, the prepared transaction must abort." Each
// coordinator only recovers the transactions it initiated. Returns the
// number of transactions resolved.
func (n *Node) RecoverTwoPhaseCommits() int {
	myPrefix := fmt.Sprintf("citus_%d_", n.ID)
	grace := n.Cfg.RecoveryGrace
	resolved := 0
	// The commit records that exist before any node is asked: a record
	// follows its transaction's prepares, so each of these is prepared on
	// its participant by now, or no longer.
	n.commitMu.Lock()
	unclaimed := make(map[string]bool, len(n.commitRecords))
	for gid := range n.commitRecords {
		unclaimed[gid] = true
	}
	n.commitMu.Unlock()
	listedAll := true
	// Standbys are deliberately excluded: their prepared transactions are
	// replicas of a primary's, and the stream will deliver the COMMIT
	// PREPARED / ROLLBACK PREPARED outcome. Resolving them here would race
	// the stream and could roll back a transaction the primary committed.
	for _, node := range n.Meta.ActiveNodes() {
		pendings, err := n.callNode(node.ID, "citus_node_list_prepared", "SELECT citus_node_list_prepared()")
		if err != nil {
			// skipped for this round; its transactions wait for the next
			listedAll = false
			continue
		}
		for _, p := range pendings.Rows {
			gid, ageNs := p[0].(string), p[2].(int64)
			if !strings.HasPrefix(gid, myPrefix) {
				continue
			}
			delete(unclaimed, gid)
			// Grace period: a transaction prepared moments ago almost
			// certainly has a live coordinator txn about to write its
			// commit record and resolve it. The Active check below
			// covers most of that window, but it reads *current* state
			// while this prepared list may be stale — the coordinator can
			// finish (txn no longer active, records already deleted) after
			// the list was taken, and the daemon would wrongly ROLLBACK
			// PREPARED a transaction whose COMMIT PREPARED already
			// happened. Skipping young prepared transactions closes that
			// race; WAL-adopted orphans report infinite age and are never
			// graced.
			if grace > 0 && ageNs < int64(grace) {
				continue
			}
			// still running locally? (the transaction may be between
			// prepare and commit-prepared right now)
			if distID, ok := gidDistID(gid); ok && n.runningDist(distID) {
				continue
			}
			n.commitMu.Lock()
			_, committed := n.commitRecords[gid]
			n.commitMu.Unlock()
			verb := "ROLLBACK PREPARED"
			if committed {
				verb = "COMMIT PREPARED"
			}
			if _, err := n.callNode(node.ID, verb, verb+" "+types.QuoteString(gid)); err != nil {
				continue
			}
			resolved++
			if committed {
				n.commitMu.Lock()
				n.dropCommitRecordLocked(gid)
				n.commitMu.Unlock()
			}
		}
	}
	// A record whose transaction no node that could hold it still has
	// prepared is resolved — its COMMIT PREPARED went through and only the
	// answer was lost, or a restart read it back from above the log's cut —
	// and nothing will ever ask for it again. With a node unheard from, it
	// may be that node's to commit after its restart, and stays.
	if listedAll {
		n.commitMu.Lock()
		for gid := range unclaimed {
			n.dropCommitRecordLocked(gid)
		}
		n.commitMu.Unlock()
	}
	metRecoveryResolved.Add(int64(resolved))
	return resolved
}

// gidFor names participant i's prepared transaction of the distributed
// transaction distID (node:start:seq, nextDistTxnID):
// citus_<node>_<start>_<seq>_<i>, start and seq in base 36 to keep the name,
// which the logs of both sides hold, short. The start time keeps it unique
// across the coordinator's restarts, which no counter of its own would.
func gidFor(distID string, i int) string {
	node, rest, _ := strings.Cut(distID, ":")
	start, seq, _ := strings.Cut(rest, ":")
	b := append(make([]byte, 0, 40), "citus_"...)
	b = append(append(b, node...), '_')
	b = append(appendBase36(b, start), '_')
	b = append(appendBase36(b, seq), '_')
	return string(strconv.AppendInt(b, int64(i), 10))
}

func appendBase36(b []byte, decimal string) []byte {
	v, _ := strconv.ParseUint(decimal, 10, 64)
	return strconv.AppendUint(b, v, 36)
}

// gidDistID parses the distributed transaction id out of a gidFor gid.
func gidDistID(gid string) (string, bool) {
	parts := strings.Split(gid, "_")
	if len(parts) != 5 {
		return "", false
	}
	start, err1 := strconv.ParseUint(parts[2], 36, 64)
	seq, err2 := strconv.ParseUint(parts[3], 36, 64)
	if err1 != nil || err2 != nil {
		return "", false
	}
	return fmt.Sprintf("%s:%d:%d", parts[1], start, seq), true
}

// runningDist reports whether this node still runs the distributed
// transaction's local member.
func (n *Node) runningDist(distID string) bool {
	for _, t := range n.Eng.Txns.ActiveTxns() {
		if t.DistID() == distID {
			return true
		}
	}
	return false
}

// callNode runs one statement on another node over a connection from that
// node's pool: a node function (SELECT citus_node_wait_edges(), ...), or 2PC
// recovery's COMMIT PREPARED and ROLLBACK PREPARED. fn names the call for the
// node.call fault point. Every error comes back, a failed checkout included.
// A transport error discards the connection, which a dead peer would
// otherwise leave in the pool to wedge every later call; any other outcome
// returns it. The checkout never waits for a slot (pool.Get answers ErrLimit
// at the limit): the daemons that call this must not queue behind the very
// transactions they are there to break up, and skip the node for the round.
func (n *Node) callNode(nodeID int, fn, stmt string, params ...types.Datum) (*engine.Result, error) {
	p, err := n.poolFor(nodeID)
	if err != nil {
		return nil, err
	}
	c, err := p.Get()
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	// node.call, keyed by fn: an injected drop discards the connection as a
	// lost peer would.
	if err = fault.CheckKey(fault.PointNodeCall, fn); err == nil {
		res, err = c.Query(stmt, params...)
	}
	if wire.IsTransient(err) || errors.Is(err, fault.ErrDropConn) {
		p.Discard(c)
	} else {
		p.Put(c)
	}
	return res, err
}

// callText is the statement that calls fn with n parameters.
func callText(fn string, n int) string {
	params := make([]string, n)
	for i := range params {
		params[i] = "$" + strconv.Itoa(i+1)
	}
	return "SELECT " + fn + "(" + strings.Join(params, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Distributed deadlock detection (§3.7.3)

func (n *Node) deadlockLoop() {
	defer n.daemons.Done()
	ticker := time.NewTicker(n.Cfg.DeadlockInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-ticker.C:
			n.CheckDistributedDeadlock()
		}
	}
}

// CheckDistributedDeadlock polls every node's waits-for edges, merges the
// processes that belong to the same distributed transaction, and cancels
// the youngest distributed transaction of any cycle. Returns the cancelled
// distributed transaction id, or "".
//
// The same poll piggybacks the nodes' SSI rw-antidependency edges
// (citus_node_wait_edges returns both in one statement) and dooms any in-flight
// distributed transaction that already forms a dangerous structure in the
// merged conflict graph — the background half of cluster-wide pivot abort.
func (n *Node) CheckDistributedDeadlock() string {
	metDeadlockPolls.Inc()
	type edge struct{ from, to string }
	var edges []edge
	var ssiEdges []ssi.WireEdge
	vertexName := func(nodeID int, vid uint64, dist string) string {
		if dist != "" {
			return "d:" + dist
		}
		return fmt.Sprintf("l:%d:%d", nodeID, vid)
	}
	collect := func(nodeID int, les []engine.LockEdge) {
		for _, le := range les {
			edges = append(edges, edge{
				from: vertexName(nodeID, le.WaiterVID, le.WaiterDist),
				to:   vertexName(nodeID, le.HolderVID, le.HolderDist),
			})
		}
	}
	collect(n.ID, n.Eng.LockGraph())
	ssiEdges = append(ssiEdges, n.Eng.SSIWireEdges()...)
	for _, node := range n.Meta.ActiveNodes() {
		if node.ID == n.ID {
			continue
		}
		// a node that cannot be asked is skipped for this round: a missing
		// edge can hide a cycle until the next poll, never invent one
		if res, err := n.callNode(node.ID, "citus_node_wait_edges", "SELECT citus_node_wait_edges()"); err == nil {
			les, ses := parseWaitEdges(res.Rows)
			collect(node.ID, les)
			ssiEdges = append(ssiEdges, ses...)
		}
	}
	n.doomActivePivots(ssiEdges)

	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	cycle := findCycleStr(adj)
	if len(cycle) == 0 {
		return ""
	}
	metDeadlockCycles.Inc()
	// choose the youngest distributed transaction in the cycle (greatest
	// start timestamp embedded in the dist id)
	victim := ""
	var victimTS int64 = -1
	for _, v := range cycle {
		if !strings.HasPrefix(v, "d:") {
			continue
		}
		dist := v[2:]
		parts := strings.Split(dist, ":")
		if len(parts) != 3 {
			continue
		}
		ts, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			continue
		}
		if ts > victimTS {
			victimTS = ts
			victim = dist
		}
	}
	if victim == "" {
		return "" // purely local cycle: the node-local detector handles it
	}
	metDeadlockVictims.Inc()
	n.Eng.CancelByDistID(victim)
	for _, node := range n.Meta.ActiveNodes() {
		if node.ID == n.ID {
			continue
		}
		_, _ = n.callNode(node.ID, "citus_node_cancel_dist", "SELECT citus_node_cancel_dist($1)", victim)
	}
	return victim
}

var waitEdgeColumns = []string{"kind", "from_vid", "to_vid", "from_dist", "to_dist", "from_commit_ns", "to_commit_ns"}

// waitEdgeRows is citus_node_wait_edges' relation: a "lock" row per waits-for
// edge (from waits for to; virtual and dist txn ids) and an "rw" row per
// rw-antidependency (from read what to wrote; dist txn ids and commit times).
func waitEdgeRows(locks []engine.LockEdge, rws []ssi.WireEdge) []types.Row {
	rows := make([]types.Row, 0, len(locks)+len(rws))
	for _, e := range locks {
		rows = append(rows, types.Row{"lock", int64(e.WaiterVID), int64(e.HolderVID), e.WaiterDist, e.HolderDist, int64(0), int64(0)})
	}
	for _, e := range rws {
		rows = append(rows, types.Row{"rw", int64(0), int64(0), e.From, e.To, e.FromCommitNs, e.ToCommitNs})
	}
	return rows
}

// parseWaitEdges reads waitEdgeRows back.
func parseWaitEdges(rows []types.Row) ([]engine.LockEdge, []ssi.WireEdge) {
	var locks []engine.LockEdge
	var rws []ssi.WireEdge
	for _, r := range rows {
		from, to := r[3].(string), r[4].(string)
		if r[0] == "lock" {
			locks = append(locks, engine.LockEdge{
				WaiterVID: uint64(r[1].(int64)), HolderVID: uint64(r[2].(int64)), WaiterDist: from, HolderDist: to,
			})
		} else {
			rws = append(rws, ssi.WireEdge{From: from, To: to, FromCommitNs: r[5].(int64), ToCommitNs: r[6].(int64)})
		}
	}
	return locks, rws
}

// findCycleStr finds one cycle in a string-keyed digraph.
func findCycleStr(adj map[string][]string) []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string
	var dfs func(u string) bool
	dfs = func(u string) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				if dfs(v) {
					return true
				}
			case gray:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == v {
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = black
		return false
	}
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	for _, u := range keys {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}
