// Package txn implements the per-node transaction manager: virtual IDs and
// the sessions' proc array, XID allocation at a transaction's first write,
// the paged commit log (clog.go), MVCC snapshots, prepared transactions for
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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/obs"
	"citusgo/internal/wake"
)

// Status is a transaction's commit-log state.
type Status int8

const (
	InProgress Status = iota
	Committed
	Aborted
)

// Txn is one node-local transaction. Its identity is VID, a virtual ID
// taken from a counter when it begins (PostgreSQL's virtual transaction id):
// the lock manager, SSI, the deadlock graph, cancel and doom and
// citus_stat_activity know it by that. It takes an XID — an entry in the
// commit log and in the snapshots of others — only when it first writes
// (EnsureXID): a heap write, a row lock, a data WAL record, PREPARE. A
// read-only transaction never takes one.
type Txn struct {
	VID uint64

	// xid is 0 until EnsureXID. Other sessions' goroutines read it
	// (citus_stat_activity, vacuum's horizon), hence an atomic.
	xid atomic.Uint64

	// distID is DistID's value; the deadlock detector, the cancel and doom
	// node functions and citus_stat_activity read it from other sessions'
	// goroutines while the transaction runs, hence an atomic.
	distID atomic.Pointer[string]

	mgr *Manager
	// slot is the session slot the transaction runs in; nil for one begun
	// by Manager.Begin or adopted from the log.
	slot *procSlot

	// ended is set when the transaction commits or aborts.
	ended atomic.Bool

	mu         sync.Mutex
	abortCh    chan struct{}
	aborted    bool
	preCommit  []func() error
	postCommit []func(committed bool)

	// snapMin is the oldest transaction the latest statement snapshot
	// considers in-progress; the vacuum horizon must not pass it (a tuple
	// whose deleter this snapshot still sees as running must survive).
	snapMin atomic.Uint64

	// held is the transaction snapshot (HeldSnapshot) once taken. Only the
	// transaction's own session goroutine touches it.
	held    Snapshot
	hasHeld bool

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

// XID returns the transaction's XID, 0 while it has none. Safe to call from
// any goroutine.
func (t *Txn) XID() uint64 { return t.xid.Load() }

// EnsureXID returns the transaction's XID, assigning one at the first call:
// from here on the transaction is in the commit log and in every snapshot
// taken while it runs. Callers are the transaction's own session.
func (t *Txn) EnsureXID() uint64 {
	if xid := t.xid.Load(); xid != 0 {
		return xid
	}
	m := t.mgr
	m.mu.Lock()
	xid := m.assignLocked(t)
	m.mu.Unlock()
	m.xidsAssigned(t)
	return xid
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
// explicit cancel); lock waits select on it. It is made on first use: most
// transactions never wait.
func (t *Txn) AbortCh() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.abortCh == nil {
		t.abortCh = make(chan struct{})
		if t.aborted {
			close(t.abortCh)
		}
	}
	return t.abortCh
}

// Cancel marks the transaction aborted and wakes any lock wait. Used by the
// deadlock detectors. Safe to call multiple times.
func (t *Txn) Cancel() {
	t.mu.Lock()
	if !t.aborted {
		t.aborted = true
		if t.abortCh != nil {
			close(t.abortCh)
		}
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

// Snapshot is an MVCC snapshot: transactions with XID >= Xmax or in
// InProgress at snapshot time are invisible.
type Snapshot struct {
	Xmax uint64
	// InProgress is the XIDs running when the snapshot was taken, sorted
	// (PostgreSQL's xip). It is shared with the manager and other
	// snapshots: never modify it.
	InProgress []uint64
	// Self is the XID of the transaction the snapshot is for, 0 while it
	// has none.
	Self uint64
}

// Running reports whether xid was in progress when the snapshot was taken.
func (s Snapshot) Running(xid uint64) bool {
	if len(s.InProgress) == 0 || xid < s.InProgress[0] {
		return false
	}
	_, found := slices.BinarySearch(s.InProgress, xid)
	return found
}

// procSlot is one entry of the manager's proc array: the transaction a
// session is running, if any.
type procSlot struct {
	cur atomic.Pointer[Txn]
}

// Proc is a session's slot in the manager's proc array, PostgreSQL's
// PGPROC: registered once per session, it holds the session's running
// transaction. Through it vacuum's horizon (GlobalXmin) sees the snapshot of
// a transaction that has no XID, and citus_stat_activity, the deadlock
// detectors and cancel find it, without a per-transaction entry anywhere.
type Proc struct {
	m    *Manager
	slot *procSlot
}

// NewProc registers a session slot. Close it when the session goes away; a
// Proc nobody closes gives its slot back once the garbage collector finds
// it unreachable (the array holds the slot, not the Proc).
func (m *Manager) NewProc() *Proc {
	p := &Proc{m: m, slot: &procSlot{}}
	m.mu.Lock()
	m.procs = append(m.procs, p.slot)
	m.mu.Unlock()
	runtime.SetFinalizer(p, (*Proc).Close)
	return p
}

// Close takes the slot out of the proc array.
func (p *Proc) Close() {
	runtime.SetFinalizer(p, nil)
	m := p.m
	m.mu.Lock()
	if i := slices.Index(m.procs, p.slot); i >= 0 {
		last := len(m.procs) - 1
		m.procs[i] = m.procs[last]
		m.procs[last] = nil
		m.procs = m.procs[:last]
	}
	m.mu.Unlock()
}

// Begin starts a transaction in the slot. It takes a virtual ID and nothing
// else: no lock, no XID, no commit-log entry.
func (p *Proc) Begin() *Txn {
	t := &Txn{VID: p.m.nextVID.Add(1), mgr: p.m, slot: p.slot}
	p.slot.cur.Store(t)
	return t
}

// Manager allocates transactions and tracks their status.
type Manager struct {
	mu      sync.RWMutex
	nextXID uint64
	clog    clog
	// active holds the running transactions that have an XID, but for the
	// prepared ones.
	active map[uint64]*Txn
	// xip is the sorted XIDs of the active and the unfinished prepared
	// transactions. It is replaced, never modified, so a snapshot shares it.
	xip      []uint64
	prepared map[string]*preparedTxn
	procs    []*procSlot

	nextVID atomic.Uint64

	// onXID, when set, is told of every XID a transaction takes (the SSI
	// manager indexes the writers it tracks by XID).
	onXID func(t *Txn)

	metXIDs *obs.Counter
	metClog *obs.Gauge

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

var (
	metXIDsAssigned = obs.Default().Counter("txn_xids_assigned_total",
		"XIDs a node gave out: one per transaction that wrote, locked a row or prepared; readers take none", "node")
	metClogBytes = obs.Default().Gauge("txn_clog_bytes",
		"bytes of a node's commit log: 8 KiB pages of 32768 two-bit entries, one allocated per range of XIDs used", "node")
)

// NewManager creates a transaction manager. XIDs start at 2 (XID 1 is the
// bootstrap transaction that loads initial data, treated as committed).
func NewManager() *Manager {
	m := &Manager{
		nextXID:  2,
		active:   make(map[uint64]*Txn),
		prepared: make(map[string]*preparedTxn),
	}
	m.SetNode("")
	m.clog.set(1, Committed)
	return m
}

// SetNode labels the manager's metrics with the node's name.
func (m *Manager) SetNode(name string) {
	m.metXIDs = metXIDsAssigned.With(name)
	m.metClog = metClogBytes.With(name)
	m.metClog.Set(int64(m.clog.bytes()))
}

// OnXID installs f to be told of each XID a transaction takes, outside the
// manager's lock.
func (m *Manager) OnXID(f func(t *Txn)) { m.onXID = f }

// ClogBytes is the memory the commit log takes.
func (m *Manager) ClogBytes() int { return m.clog.bytes() }

// Begin starts a transaction outside any session, with its XID: a writer
// the engine runs itself (a shard move's catch-up) and tests.
func (m *Manager) Begin() *Txn {
	t := &Txn{VID: m.nextVID.Add(1), mgr: m}
	t.EnsureXID()
	return t
}

// assignLocked gives t the next XID. Callers hold mu.
func (m *Manager) assignLocked(t *Txn) uint64 {
	xid := m.nextXID
	m.nextXID++
	m.setLocked(xid, InProgress)
	m.active[xid] = t
	// XIDs are handed out in order, so xid sorts last; the three-index
	// slice makes append copy, leaving the published slice alone
	m.xip = append(m.xip[:len(m.xip):len(m.xip)], xid)
	t.xid.Store(xid)
	return xid
}

// xidsAssigned counts the XID t took and tells onXID.
func (m *Manager) xidsAssigned(t *Txn) {
	m.metXIDs.Inc()
	if m.onXID != nil {
		m.onXID(t)
	}
}

// setLocked writes xid's commit-log entry, keeping the clog gauge. Callers
// hold mu.
func (m *Manager) setLocked(xid uint64, st Status) {
	before := m.clog.bytes()
	m.clog.set(xid, st)
	if after := m.clog.bytes(); after != before {
		m.metClog.Set(int64(after))
	}
}

// dropXIPLocked takes xid out of xip. Callers hold mu.
func (m *Manager) dropXIPLocked(xid uint64) {
	if i, ok := slices.BinarySearch(m.xip, xid); ok {
		m.xip = slices.Delete(slices.Clone(m.xip), i, i+1)
	}
}

// TakeSnapshot captures the set of concurrently running transactions. With
// per-statement snapshots this gives READ COMMITTED, PostgreSQL's default.
// It allocates nothing: the snapshot shares the manager's xip.
func (m *Manager) TakeSnapshot(self *Txn) Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Snapshot{Xmax: m.nextXID, InProgress: m.xip}
	if self != nil {
		min := m.nextXID
		if len(m.xip) > 0 {
			min = m.xip[0]
		}
		s.Self = self.XID()
		// published under mu: GlobalXmin, also under it, sees either this
		// bound or the XIDs it was computed from, which cannot end before
		// mu is released
		self.snapMin.Store(min)
	}
	return s
}

// HeldSnapshot returns t's transaction snapshot, taking it at the first
// call: REPEATABLE READ and SERIALIZABLE run every statement under the first
// statement's snapshot. Self is t's XID as of now, which it may have taken
// after the snapshot.
func (m *Manager) HeldSnapshot(t *Txn) Snapshot {
	if !t.hasHeld {
		t.held, t.hasHeld = m.TakeSnapshot(t), true
	}
	s := t.held
	s.Self = t.XID()
	return s
}

// Status returns the commit-log status of a transaction. It takes no lock.
func (m *Manager) Status(xid uint64) Status { return m.clog.status(xid) }

// Sees reports whether a tuple stamped with writer xid is visible under
// snapshot s, consulting the commit log. It takes no lock.
func (m *Manager) Sees(s Snapshot, xid uint64) bool {
	if xid == 0 {
		return false
	}
	if xid == s.Self {
		return true
	}
	if xid >= s.Xmax || s.Running(xid) {
		return false
	}
	return m.clog.code(xid) == clogCommitted
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

// finish ends t. A transaction with no XID has nothing to record and no one
// waiting on it: it only leaves its slot.
func (m *Manager) finish(t *Txn, st Status) {
	t.ended.Store(true)
	if xid := t.XID(); xid != 0 {
		m.mu.Lock()
		m.setLocked(xid, st)
		delete(m.active, xid)
		m.dropXIPLocked(xid)
		m.mu.Unlock()
		m.ended.Broadcast()
	}
	if t.slot != nil {
		t.slot.cur.CompareAndSwap(t, nil)
	}
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
// the given global identifier, exactly like PREPARE TRANSACTION. It takes
// the XID a transaction that wrote nothing yet has not.
func (m *Manager) Prepare(t *Txn, gid string) error {
	// Pre-commit work that cannot fail later must happen at prepare time.
	pre, _ := t.takeCallbacks()
	for _, f := range pre {
		if err := f(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	if _, exists := m.prepared[gid]; exists {
		m.mu.Unlock()
		return fmt.Errorf("transaction identifier %q is already in use", gid)
	}
	xid := t.XID()
	if _, ok := m.active[xid]; t.ended.Load() || xid != 0 && !ok {
		m.mu.Unlock()
		return fmt.Errorf("transaction %d is not active", t.VID)
	}
	assigned := xid == 0
	if assigned {
		xid = m.assignLocked(t)
	}
	delete(m.active, xid)
	m.prepared[gid] = &preparedTxn{txn: t, gid: gid, at: time.Now()}
	m.mu.Unlock()
	if assigned {
		m.xidsAssigned(t)
	}
	if t.slot != nil {
		t.slot.cur.CompareAndSwap(t, nil)
	}
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
	m.setLocked(p.txn.XID(), st)
	m.dropXIPLocked(p.txn.XID())
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
	VID    uint64
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
		out = append(out, PreparedInfo{GID: gid, XID: p.txn.XID(), VID: p.txn.VID, DistID: p.txn.DistID(), PreparedAt: p.at})
	}
	return out
}

// ByVID returns the running transaction with virtual ID vid, if any: the
// lock manager's and the deadlock graph's name for it.
func (m *Manager) ByVID(vid uint64) (*Txn, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, p := range m.procs {
		if t := p.cur.Load(); t != nil && t.VID == vid {
			return t, true
		}
	}
	for _, t := range m.active {
		if t.VID == vid {
			return t, true
		}
	}
	return nil, false
}

// ActiveTxns snapshots all running transactions, with an XID or not (used
// by deadlock victim selection: the youngest transaction has the highest
// VID).
func (m *Manager) ActiveTxns() []*Txn {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []*Txn
	for _, p := range m.procs {
		if t := p.cur.Load(); t != nil {
			out = append(out, t)
		}
	}
	for _, t := range m.active {
		if t.slot == nil {
			out = append(out, t)
		}
	}
	return out
}

// ForceStatus sets the commit-log status of an XID directly and advances
// the XID allocator past it. Used by WAL replay when rebuilding a node.
func (m *Manager) ForceStatus(xid uint64, st Status) {
	m.mu.Lock()
	m.setLocked(xid, st)
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
	// every path that gives an XID a status also moves nextXID past it
	if m.clog.code(xid) != clogUnknown {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.clog.code(xid) == clogUnknown {
		m.setLocked(xid, InProgress)
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
		preparedXIDs[p.txn.XID()] = struct{}{}
	}
	var aborted []uint64
	m.clog.eachInProgress(func(xid uint64) {
		if _, live := m.active[xid]; live {
			return
		}
		if _, prep := preparedXIDs[xid]; prep {
			return
		}
		aborted = append(aborted, xid)
	})
	for _, xid := range aborted {
		m.setLocked(xid, Aborted)
	}
	return aborted
}

// AdvanceXIDBase moves the XID allocator to at least base. Standby nodes
// allocate local XIDs from a disjoint range so they can never collide with
// XIDs replicated from the primary's WAL.
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
	t := &Txn{VID: m.nextVID.Add(1), mgr: m}
	t.xid.Store(xid)
	m.setLocked(xid, InProgress)
	m.prepared[gid] = &preparedTxn{txn: t, gid: gid}
	if i, found := slices.BinarySearch(m.xip, xid); !found {
		m.xip = slices.Insert(slices.Clone(m.xip), i, xid)
	}
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
	return t
}

// GlobalXmin returns the vacuum horizon: the oldest transaction any live
// snapshot may still consider in-progress. Tuples whose deleter committed
// below this horizon are invisible to every possible snapshot and can be
// reclaimed. Like PostgreSQL's OldestXmin, it is the minimum over running
// transactions of their XIDs and their snapshot xmins: a tuple deleted by an
// old-XID transaction that committed *after* a concurrent statement's
// snapshot was taken must survive until that statement ends. A transaction
// with no XID counts through its session's slot.
func (m *Manager) GlobalXmin() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	xmin := m.nextXID
	if len(m.xip) > 0 && m.xip[0] < xmin {
		xmin = m.xip[0]
	}
	consider := func(t *Txn) {
		if bound := t.snapMin.Load(); bound != 0 && bound < xmin {
			xmin = bound
		}
	}
	for _, p := range m.procs {
		if t := p.cur.Load(); t != nil {
			consider(t)
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
