// Package txn implements the per-node transaction manager: XID allocation,
// the commit log (clog), MVCC snapshots, prepared transactions for
// two-phase commit, and transaction lifecycle callbacks.
//
// The callback set mirrors the PostgreSQL hooks the paper lists in §3.1
// ("Transaction callbacks are called at critical points in the lifecycle of
// a transaction (e.g. pre-commit, post-commit, abort). Citus uses these to
// implement distributed transactions."): the distributed layer registers
// pre-commit / post-commit / abort callbacks on the coordinator's local
// transaction to drive 2PC on the workers.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/wake"
)

// Status is a transaction's commit-log state.
type Status int8

const (
	InProgress Status = iota
	Committed
	Aborted
)

// Txn is one node-local transaction.
type Txn struct {
	XID uint64

	// distID is DistID's value; the deadlock detector, the cancel and doom
	// node functions and citus_stat_activity read it from other sessions'
	// goroutines while the transaction runs, hence an atomic.
	distID atomic.Pointer[string]

	mgr *Manager

	mu         sync.Mutex
	abortCh    chan struct{}
	aborted    bool
	preCommit  []func() error
	postCommit []func(committed bool)

	// snapMin is the oldest transaction the latest statement snapshot
	// considers in-progress; the vacuum horizon must not pass it (a tuple
	// whose deleter this snapshot still sees as running must survive).
	snapMin atomic.Uint64

	// traceID/spanKind identify the trace and current span kind of the
	// statement driving this transaction; citus_stat_activity reads them
	// from other sessions' goroutines, hence atomics.
	traceID  atomic.Uint64
	spanKind atomic.Value // string

	// wrote marks that the transaction appended data WAL records. The
	// commit path reads it to attribute a wal_fsync span only to writes
	// (a read-only commit is not a durability point). Only the
	// transaction's own session goroutine touches it.
	wrote bool
}

// MarkWrite records that the transaction wrote data (DML WAL append).
func (t *Txn) MarkWrite() { t.wrote = true }

// DidWrite reports whether MarkWrite was called.
func (t *Txn) DidWrite() bool { return t.wrote }

// boxedKinds pre-boxes the span kinds stored on every traced statement:
// atomic.Value.Store(string) would otherwise heap-allocate the interface
// conversion each time.
var (
	boxedStatement any = "statement"
	boxedExecute   any = "execute"
	boxedNoKind    any = ""
)

func boxKind(kind string) any {
	switch kind {
	case "statement":
		return boxedStatement
	case "execute":
		return boxedExecute
	case "":
		return boxedNoKind
	}
	return kind
}

// SetTraceSpan records the trace context of the statement currently
// running in this transaction (trace ID travels beside DistID).
func (t *Txn) SetTraceSpan(traceID uint64, kind string) {
	t.traceID.Store(traceID)
	t.spanKind.Store(boxKind(kind))
}

// DistID tags the distributed transaction this local transaction is part of
// ("" when purely local). The coordinator assigns it and propagates it to
// workers; the distributed deadlock detector merges lock-graph nodes that
// share a DistID. Safe to call from any goroutine.
func (t *Txn) DistID() string {
	if id := t.distID.Load(); id != nil {
		return *id
	}
	return ""
}

// SetDistID sets DistID.
func (t *Txn) SetDistID(id string) { t.distID.Store(&id) }

// TraceSpan returns the transaction's current trace ID and span kind
// (0, "" when untraced). Safe to call from any goroutine.
func (t *Txn) TraceSpan() (uint64, string) {
	kind, _ := t.spanKind.Load().(string)
	return t.traceID.Load(), kind
}

// AbortCh is closed when the transaction is cancelled (deadlock victim or
// explicit cancel); lock waits select on it.
func (t *Txn) AbortCh() <-chan struct{} { return t.abortCh }

// Cancel marks the transaction aborted and wakes any lock wait. Used by the
// deadlock detectors. Safe to call multiple times.
func (t *Txn) Cancel() {
	t.mu.Lock()
	if !t.aborted {
		t.aborted = true
		close(t.abortCh)
	}
	t.mu.Unlock()
	t.mgr.ended.Broadcast()
}

// Cancelled reports whether Cancel was called.
func (t *Txn) Cancelled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.aborted
}

// OnPreCommit registers f to run just before the local commit becomes
// durable; returning an error aborts the transaction. The Citus layer uses
// this to send PREPARE TRANSACTION to all involved workers and write commit
// records.
func (t *Txn) OnPreCommit(f func() error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.preCommit = append(t.preCommit, f)
}

// OnEnd registers f to run after the transaction ends; committed reports
// the outcome. The Citus layer uses it to send COMMIT/ROLLBACK PREPARED on
// a best-effort basis.
func (t *Txn) OnEnd(f func(committed bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.postCommit = append(t.postCommit, f)
}

func (t *Txn) takeCallbacks() (pre []func() error, post []func(bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pre, post = t.preCommit, t.postCommit
	t.preCommit, t.postCommit = nil, nil
	return pre, post
}

// Snapshot is an MVCC snapshot: transactions with XID >= Xmax or in the
// InProgress set at snapshot time are invisible.
type Snapshot struct {
	Xmax       uint64
	InProgress map[uint64]struct{}
	Self       uint64
}

// Manager allocates transactions and tracks their status.
type Manager struct {
	mu       sync.RWMutex
	nextXID  uint64
	status   map[uint64]Status
	active   map[uint64]*Txn
	prepared map[string]*preparedTxn

	// ended wakes WaitEnd: every status change and every Cancel broadcasts.
	ended wake.Notifier
}

type preparedTxn struct {
	txn *Txn
	gid string
	// at is when the transaction was prepared. Zero for transactions
	// adopted from WAL replay, which report infinite age: their
	// coordinator is gone, so recovery must not wait out a grace period.
	at time.Time
	// ended: FinishPrepared has set its outcome, and its outcome record is
	// on its way to the log. It is still listed, for recovery, until
	// ForgetPrepared; snapshots see it ended.
	ended bool
}

// NewManager creates a transaction manager. XIDs start at 2 (XID 1 is the
// bootstrap transaction that loads initial data, treated as committed).
func NewManager() *Manager {
	return &Manager{
		nextXID:  2,
		status:   map[uint64]Status{1: Committed},
		active:   make(map[uint64]*Txn),
		prepared: make(map[string]*preparedTxn),
	}
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	xid := m.nextXID
	m.nextXID++
	t := &Txn{XID: xid, mgr: m, abortCh: make(chan struct{})}
	m.status[xid] = InProgress
	m.active[xid] = t
	return t
}

// TakeSnapshot captures the set of concurrently running transactions. With
// per-statement snapshots this gives READ COMMITTED, PostgreSQL's default.
func (m *Manager) TakeSnapshot(self *Txn) Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	inProgress := make(map[uint64]struct{}, len(m.active)+len(m.prepared))
	min := m.nextXID
	for xid := range m.active {
		inProgress[xid] = struct{}{}
		if xid < min {
			min = xid
		}
	}
	for _, p := range m.prepared {
		if p.ended {
			continue
		}
		inProgress[p.txn.XID] = struct{}{}
		if p.txn.XID < min {
			min = p.txn.XID
		}
	}
	s := Snapshot{Xmax: m.nextXID, InProgress: inProgress}
	if self != nil {
		s.Self = self.XID
		if self.XID < min {
			min = self.XID
		}
		self.snapMin.Store(min)
	}
	return s
}

// Status returns the commit-log status of a transaction.
func (m *Manager) Status(xid uint64) Status {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.status[xid]
	if !ok {
		return Aborted // unknown: crashed before commit
	}
	return st
}

// Sees reports whether a tuple stamped with writer xid is visible under
// snapshot s, consulting the commit log.
func (m *Manager) Sees(s Snapshot, xid uint64) bool {
	if xid == 0 {
		return false
	}
	if xid == s.Self {
		return true
	}
	if xid >= s.Xmax {
		return false
	}
	if _, busy := s.InProgress[xid]; busy {
		return false
	}
	return m.Status(xid) == Committed
}

// Commit finalizes a transaction: pre-commit callbacks run first and may
// abort it; the clog flip is the atomic commit point.
func (m *Manager) Commit(t *Txn) error {
	pre, post := t.takeCallbacks()
	for _, f := range pre {
		if err := f(); err != nil {
			m.finish(t, Aborted)
			for _, g := range post {
				g(false)
			}
			return fmt.Errorf("pre-commit failed, transaction aborted: %w", err)
		}
	}
	if t.Cancelled() {
		m.finish(t, Aborted)
		for _, g := range post {
			g(false)
		}
		return errors.New("transaction was cancelled")
	}
	m.finish(t, Committed)
	for _, g := range post {
		g(true)
	}
	return nil
}

// Abort rolls back a transaction.
func (m *Manager) Abort(t *Txn) {
	_, post := t.takeCallbacks()
	m.finish(t, Aborted)
	for _, g := range post {
		g(false)
	}
}

func (m *Manager) finish(t *Txn, st Status) {
	m.mu.Lock()
	m.status[t.XID] = st
	delete(m.active, t.XID)
	m.mu.Unlock()
	m.ended.Broadcast()
}

// WaitEnd parks until transaction xid is no longer in progress, or until
// waiter is cancelled, and reports whether xid ended. A writer holding a row
// lock that still finds the version's deleter in progress waits here.
func (m *Manager) WaitEnd(xid uint64, waiter *Txn) bool {
	m.ended.Wait(time.Time{}, func() bool { return m.Status(xid) != InProgress || waiter.Cancelled() })
	return m.Status(xid) != InProgress
}

// Prepare performs the first phase of 2PC: the transaction leaves the
// active set but keeps its locks and stays in-progress in the clog under
// the given global identifier, exactly like PREPARE TRANSACTION.
func (m *Manager) Prepare(t *Txn, gid string) error {
	// Pre-commit work that cannot fail later must happen at prepare time.
	pre, _ := t.takeCallbacks()
	for _, f := range pre {
		if err := f(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.prepared[gid]; exists {
		return fmt.Errorf("transaction identifier %q is already in use", gid)
	}
	if _, ok := m.active[t.XID]; !ok {
		return fmt.Errorf("transaction %d is not active", t.XID)
	}
	delete(m.active, t.XID)
	m.prepared[gid] = &preparedTxn{txn: t, gid: gid, at: time.Now()}
	return nil
}

// FinishPrepared resolves a prepared transaction. It returns the prepared
// local transaction so the engine can release its locks. The transaction
// stays listed (ListPrepared) until ForgetPrepared: its outcome record is
// not in the log yet, and until it is, a crash brings it back prepared.
func (m *Manager) FinishPrepared(gid string, commit bool) (*Txn, error) {
	m.mu.Lock()
	p, ok := m.prepared[gid]
	if !ok || p.ended {
		m.mu.Unlock()
		return nil, fmt.Errorf("prepared transaction with identifier %q does not exist", gid)
	}
	p.ended = true
	st := Aborted
	if commit {
		st = Committed
	}
	m.status[p.txn.XID] = st
	m.mu.Unlock()
	m.ended.Broadcast()
	return p.txn, nil
}

// ForgetPrepared takes a finished prepared transaction off the list, once
// its outcome record is in the log.
func (m *Manager) ForgetPrepared(gid string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.prepared[gid]; ok && p.ended {
		delete(m.prepared, gid)
	}
}

// PreparedInfo describes one pending prepared transaction; the 2PC recovery
// daemon compares these against the coordinator's commit records.
type PreparedInfo struct {
	GID    string
	XID    uint64
	DistID string
	// PreparedAt is when Prepare ran; zero for WAL-adopted transactions
	// (treated as infinitely old by the recovery grace period).
	PreparedAt time.Time
}

// ListPrepared returns all pending prepared transactions.
func (m *Manager) ListPrepared() []PreparedInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]PreparedInfo, 0, len(m.prepared))
	for gid, p := range m.prepared {
		out = append(out, PreparedInfo{GID: gid, XID: p.txn.XID, DistID: p.txn.DistID(), PreparedAt: p.at})
	}
	return out
}

// Active returns the running transaction with the given XID, if any.
func (m *Manager) Active(xid uint64) (*Txn, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.active[xid]
	return t, ok
}

// ActiveTxns snapshots all running transactions (used by deadlock victim
// selection: the youngest transaction has the highest XID).
func (m *Manager) ActiveTxns() []*Txn {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Txn, 0, len(m.active))
	for _, t := range m.active {
		out = append(out, t)
	}
	return out
}

// ForceStatus sets the commit-log status of an XID directly and advances
// the XID allocator past it. Used by WAL replay when rebuilding a node.
func (m *Manager) ForceStatus(xid uint64, st Status) {
	m.mu.Lock()
	m.status[xid] = st
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
	m.mu.Unlock()
	m.ended.Broadcast()
}

// MarkReplicating records a replicated writer as in-progress unless its
// outcome is already known. A standby applies data records the moment
// they arrive on the stream, possibly before the commit record: without
// this marker the writer's status would read as Aborted (unknown XID) and
// vacuum could reclaim a tuple whose commit is still in flight.
func (m *Manager) MarkReplicating(xid uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.status[xid]; !ok {
		m.status[xid] = InProgress
	}
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
}

// AbortInDoubt aborts every transaction known only from replicated WAL:
// in-progress in the commit log, but with no live local session and no
// prepared record. After a promotion or crash restart these are writers
// that were in flight on the failed primary — their commit record can
// never arrive, so leaving them in-progress would block every later
// writer that meets their XID in a tuple header (PostgreSQL resolves the
// same way: transactions without a commit record at the end of crash
// recovery are implicitly aborted). Prepared transactions are exempt:
// their fate belongs to the coordinator's 2PC recovery. Returns the
// aborted XIDs.
func (m *Manager) AbortInDoubt() []uint64 {
	defer m.ended.Broadcast()
	m.mu.Lock()
	defer m.mu.Unlock()
	preparedXIDs := make(map[uint64]struct{}, len(m.prepared))
	for _, p := range m.prepared {
		preparedXIDs[p.txn.XID] = struct{}{}
	}
	var aborted []uint64
	for xid, st := range m.status {
		if st != InProgress {
			continue
		}
		if _, live := m.active[xid]; live {
			continue
		}
		if _, prep := preparedXIDs[xid]; prep {
			continue
		}
		m.status[xid] = Aborted
		aborted = append(aborted, xid)
	}
	return aborted
}

// AdvanceXIDBase moves the XID allocator to at least base. Standby nodes
// allocate local (read-session) XIDs from a disjoint range so they can
// never collide with XIDs replicated from the primary's WAL.
func (m *Manager) AdvanceXIDBase(base uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if base > m.nextXID {
		m.nextXID = base
	}
}

// AdoptPrepared recreates a prepared transaction during WAL replay: the
// transaction stays in-progress under gid, pending 2PC resolution.
func (m *Manager) AdoptPrepared(xid uint64, gid string) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{XID: xid, mgr: m, abortCh: make(chan struct{})}
	m.status[xid] = InProgress
	m.prepared[gid] = &preparedTxn{txn: t, gid: gid}
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
	return t
}

// GlobalXmin returns the vacuum horizon: the oldest transaction any live
// snapshot may still consider in-progress. Tuples whose deleter committed
// below this horizon are invisible to every possible snapshot and can be
// reclaimed. Like PostgreSQL's OldestXmin, it is the minimum over active
// transactions of their snapshot xmins (not just their own XIDs): a tuple
// deleted by an old-XID transaction that committed *after* a concurrent
// statement's snapshot was taken must survive until that statement ends.
func (m *Manager) GlobalXmin() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	xmin := m.nextXID
	consider := func(t *Txn) {
		bound := t.snapMin.Load()
		if bound == 0 || t.XID < bound {
			bound = t.XID
		}
		if bound < xmin {
			xmin = bound
		}
	}
	for _, t := range m.active {
		consider(t)
	}
	for _, p := range m.prepared {
		consider(p.txn)
	}
	return xmin
}
