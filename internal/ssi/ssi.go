// Package ssi implements Serializable Snapshot Isolation for one node,
// following the PostgreSQL recipe ("Serializable Snapshot Isolation in
// PostgreSQL", VLDB 2012): reads take SIREAD predicate locks (tuple, page,
// table, or index-key granularity, promoted under memory pressure), writes
// probe them to record rw-antidependency edges between concurrent
// transactions, and the pre-commit check aborts a pivot — a transaction
// with both an in- and an out-conflict whose out-neighbor committed first —
// with a retryable serialization error. Committed transactions are retained
// (locks and edges intact) until every concurrent snapshot has drained.
//
// The distributed extension lives in dist.go: per-node edges are exported
// keyed by distributed transaction id and merged on the coordinator, so a
// pivot whose in- and out-conflicts live on different worker nodes is still
// caught (see internal/citus/dtxn.go).
package ssi

import (
	"errors"
	"sort"
	"sync"
	"time"

	"citusgo/internal/obs"
	"citusgo/internal/txn"
)

// ErrSerializationFailure is the retryable abort error, worded like
// PostgreSQL's SQLSTATE 40001 message so clients can pattern-match it.
var ErrSerializationFailure = errors.New(
	"could not serialize access due to read/write dependencies among transactions")

// IsSerializationFailure reports whether err is (or wraps) an SSI abort.
func IsSerializationFailure(err error) bool {
	return errors.Is(err, ErrSerializationFailure)
}

var (
	metLocks = obs.Default().Gauge("ssi_siread_locks",
		"SIREAD predicate locks currently held, including retention past commit").With()
	metConflicts = obs.Default().Counter("ssi_rw_conflicts_total",
		"rw-antidependency edges recorded between concurrent transactions").With()
	metAborts = obs.Default().Counter("ssi_aborts_total",
		"transactions aborted by the SSI dangerous-structure check").With()
	metPromotions = obs.Default().Counter("ssi_lock_promotions_total",
		"SIREAD lock promotions to a coarser granularity").With()
)

// Granularity orders SIREAD lock coverage from finest to coarsest.
type Granularity uint8

const (
	// GranTuple locks one tuple version (by TID).
	GranTuple Granularity = iota
	// GranPage locks one heap page (covers every tuple on it).
	GranPage
	// GranTable locks a whole table (covers everything, incl. phantoms).
	GranTable
	// GranIndexKey locks one index equality-search key (phantom
	// protection: an insert producing that key collides with it).
	GranIndexKey
)

// Key identifies one SIREAD lock target.
type Key struct {
	Table int64
	Gran  Granularity
	Page  int32
	// Tuple is the tuple TID for GranTuple, or the search-key hash for
	// GranIndexKey.
	Tuple int64
}

// TupleKey locks one tuple version.
func TupleKey(table int64, tid int64, page int32) Key {
	return Key{Table: table, Gran: GranTuple, Page: page, Tuple: tid}
}

// PageKey locks one heap page.
func PageKey(table int64, page int32) Key {
	return Key{Table: table, Gran: GranPage, Page: page}
}

// TableKey locks a whole table.
func TableKey(table int64) Key { return Key{Table: table, Gran: GranTable} }

// IndexKey locks one index equality-search key by hash.
func IndexKey(table int64, hash uint64) Key {
	return Key{Table: table, Gran: GranIndexKey, Tuple: int64(hash)}
}

// Promotion thresholds (vars so tests can lower them).
var (
	// PromoteTuplesPerPage is how many tuple locks a transaction may hold
	// on one page before they collapse into a page lock.
	PromoteTuplesPerPage = 16
	// PromoteLocksPerTable is how many locks a transaction may hold on one
	// table before they collapse into a table lock.
	PromoteLocksPerTable = 256
)

type pageRef struct {
	table int64
	page  int32
}

// TxnState is the SSI bookkeeping for one local transaction. All mutable
// fields are guarded by the owning Manager's mutex.
type TxnState struct {
	vid uint64
	// xid is the transaction's XID once it has taken one (bindLocked): the
	// name tuple stamps give a writer.
	xid uint64
	t   *txn.Txn
	m   *Manager

	// dist is the distributed transaction id, refreshed from t.DistID() on
	// every entry point called from the session goroutine (the field is
	// written by the session, so only that goroutine may read it; pollers
	// read this copy under the manager lock instead).
	dist string

	beginSeq uint64
	// commitSeq is assigned when the pre-commit check passes (the
	// transaction is treated as committed from that moment — see
	// PreCommit); 0 while active. commitWall is the matching wall-clock
	// instant, used for cross-node commit ordering.
	commitSeq  uint64
	commitWall int64
	finished   bool
	aborted    bool
	doomed     bool

	// in holds transactions R with an rw-antidependency R → this (R read
	// something this transaction wrote); out holds W with this → W.
	in  map[*TxnState]struct{}
	out map[*TxnState]struct{}

	locks      map[Key]struct{}
	tableLocks map[int64]int
	pageTuples map[pageRef]int
}

// Manager is the per-node SSI state: every serializable transaction's lock
// set and conflict edges, including transactions retained past commit.
type Manager struct {
	mu  sync.Mutex
	seq uint64
	// states holds the tracked transactions by virtual ID, writers by XID
	// too: a reader meets a writer through the XID in a tuple's stamp.
	states map[uint64]*TxnState
	byXID  map[uint64]*TxnState
	locks  map[Key]map[*TxnState]struct{}
}

// NewManager creates a node-local SSI manager, told by the node's
// transaction manager of each XID a transaction takes.
func NewManager(clog *txn.Manager) *Manager {
	m := &Manager{
		states: make(map[uint64]*TxnState),
		byXID:  make(map[uint64]*TxnState),
		locks:  make(map[Key]map[*TxnState]struct{}),
	}
	clog.OnXID(m.bindXID)
	return m
}

// bindXID indexes a tracked transaction by the XID it has just taken.
func (m *Manager) bindXID(t *txn.Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.states) == 0 {
		return
	}
	if st, ok := m.states[t.VID]; ok && st.t == t {
		m.bindLocked(st)
	}
}

func (m *Manager) bindLocked(st *TxnState) {
	if st.xid == 0 {
		if st.xid = st.t.XID(); st.xid != 0 {
			m.byXID[st.xid] = st
		}
	}
}

// Register enrolls a transaction in SSI tracking. Idempotent: the second
// call for the same transaction returns the existing state with isNew =
// false.
func (m *Manager) Register(t *txn.Txn) (st *TxnState, isNew bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.states[t.VID]; ok {
		st.dist = t.DistID()
		return st, false
	}
	m.seq++
	st = &TxnState{
		vid: t.VID, t: t, m: m,
		dist:       t.DistID(),
		beginSeq:   m.seq,
		in:         make(map[*TxnState]struct{}),
		out:        make(map[*TxnState]struct{}),
		locks:      make(map[Key]struct{}),
		tableLocks: make(map[int64]int),
		pageTuples: make(map[pageRef]int),
	}
	m.states[t.VID] = st
	m.bindLocked(st)
	return st, true
}

// StateFor returns the tracked state for a local transaction's virtual ID,
// or nil.
func (m *Manager) StateFor(vid uint64) *TxnState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[vid]
}

// OnRead records a SIREAD lock for st, applying granularity promotion.
func (m *Manager) OnRead(st *TxnState, k Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.aborted || st.finished {
		return
	}
	st.dist = st.t.DistID()
	m.acquireLocked(st, k)
}

func (m *Manager) acquireLocked(st *TxnState, k Key) {
	// Coarser coverage already held?
	if _, ok := st.locks[TableKey(k.Table)]; ok {
		return
	}
	if k.Gran == GranTuple {
		if _, ok := st.locks[PageKey(k.Table, k.Page)]; ok {
			return
		}
	}
	if _, ok := st.locks[k]; ok {
		return
	}
	st.locks[k] = struct{}{}
	holders, ok := m.locks[k]
	if !ok {
		holders = make(map[*TxnState]struct{})
		m.locks[k] = holders
	}
	holders[st] = struct{}{}
	metLocks.Inc()
	st.tableLocks[k.Table]++

	if k.Gran == GranTuple {
		ref := pageRef{k.Table, k.Page}
		st.pageTuples[ref]++
		if st.pageTuples[ref] >= PromoteTuplesPerPage {
			m.promoteLocked(st, k.Table, func(held Key) bool {
				return held.Gran == GranTuple && held.Page == k.Page
			}, PageKey(k.Table, k.Page))
			delete(st.pageTuples, ref)
		}
	}
	if k.Gran != GranTable && st.tableLocks[k.Table] >= PromoteLocksPerTable {
		m.promoteLocked(st, k.Table, func(held Key) bool {
			return held.Gran != GranTable
		}, TableKey(k.Table))
		st.tableLocks[k.Table] = 1
		for ref := range st.pageTuples {
			if ref.table == k.Table {
				delete(st.pageTuples, ref)
			}
		}
	}
}

// promoteLocked replaces st's locks on table matching drop with the single
// coarser lock.
func (m *Manager) promoteLocked(st *TxnState, table int64, drop func(Key) bool, coarse Key) {
	metPromotions.Inc()
	for held := range st.locks {
		if held.Table != table || !drop(held) {
			continue
		}
		m.releaseOneLocked(st, held)
	}
	if _, ok := st.locks[coarse]; !ok {
		st.locks[coarse] = struct{}{}
		holders, ok := m.locks[coarse]
		if !ok {
			holders = make(map[*TxnState]struct{})
			m.locks[coarse] = holders
		}
		holders[st] = struct{}{}
		metLocks.Inc()
		st.tableLocks[table]++
	}
}

func (m *Manager) releaseOneLocked(st *TxnState, k Key) {
	delete(st.locks, k)
	if holders, ok := m.locks[k]; ok {
		delete(holders, st)
		if len(holders) == 0 {
			delete(m.locks, k)
		}
	}
	st.tableLocks[k.Table]--
	metLocks.Dec()
}

// ConflictOut records a read-side rw-antidependency: reader st observed a
// tuple version written (or deleted) by a concurrent transaction writerXID.
// The caller has already established concurrency (the writer is neither
// visible to st's snapshot nor aborted). Returns ErrSerializationFailure if
// the edge completes a dangerous structure that must abort the reader.
func (m *Manager) ConflictOut(st *TxnState, writerXID uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.aborted || st.finished {
		return nil
	}
	st.dist = st.t.DistID()
	w, ok := m.byXID[writerXID]
	if !ok || w == st || w.aborted {
		// Untracked writer: a non-serializable concurrent transaction.
		// SSI only guarantees serializability among SERIALIZABLE
		// transactions, exactly like PostgreSQL.
		return nil
	}
	return m.addEdgeLocked(st, w, st)
}

// OnWrite probes the SIREAD table at each key (the caller passes the tuple,
// its page, the table, and any index keys the write produces): every holder
// concurrent with writer st gets an rw-antidependency holder → st.
func (m *Manager) OnWrite(st *TxnState, keys ...Key) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.aborted || st.finished {
		return nil
	}
	st.dist = st.t.DistID()
	for _, k := range keys {
		for r := range m.locks[k] {
			if r == st || r.aborted {
				continue
			}
			// A reader that committed before this writer began is not
			// concurrent; its retained lock exists only for writers that
			// overlapped it.
			if r.commitSeq != 0 && r.commitSeq < st.beginSeq {
				continue
			}
			if err := m.addEdgeLocked(r, st, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// addEdgeLocked links reader r → writer w and evaluates the dangerous
// structure centered on either endpoint. An active pivot is doomed (it will
// abort at commit); when the pivot — or a committed pivot's completing
// neighbor — is the caller itself, the abort is immediate.
func (m *Manager) addEdgeLocked(r, w, caller *TxnState) error {
	if r == w || r.aborted || w.aborted {
		return nil
	}
	if _, dup := r.out[w]; !dup {
		r.out[w] = struct{}{}
		w.in[r] = struct{}{}
		metConflicts.Inc()
	}
	for _, p := range [2]*TxnState{r, w} {
		if p.aborted || p.doomed || !m.dangerousLocked(p) {
			continue
		}
		if p.commitSeq == 0 {
			if p == caller {
				m.abortLocked(caller)
				return ErrSerializationFailure
			}
			p.doomed = true
			continue
		}
		// The pivot already committed; the failure must land on the
		// still-active transaction completing the structure.
		m.abortLocked(caller)
		return ErrSerializationFailure
	}
	return nil
}

// dangerousLocked reports whether p is a pivot in a dangerous structure:
// p has an in-conflict R → p and an out-conflict p → W where W committed
// first (before p, and not after R if R committed). A conservative check —
// false positives abort retryable transactions, never admit anomalies.
func (m *Manager) dangerousLocked(p *TxnState) bool {
	for w := range p.out {
		if w.aborted || w.commitSeq == 0 {
			continue
		}
		if p.commitSeq != 0 && w.commitSeq > p.commitSeq {
			continue // p committed before its out-neighbor: safe
		}
		for r := range p.in {
			if r.aborted {
				continue
			}
			if r.commitSeq != 0 && r.commitSeq < w.commitSeq {
				continue // in-neighbor committed strictly first: safe
			}
			return true
		}
	}
	return false
}

// PreCommit is the dangerous-structure check, run from the transaction's
// pre-commit callback (and, for 2PC participants, at PREPARE TRANSACTION).
// On success the transaction is assigned its commit sequence immediately —
// treating it as committed from this instant closes the race where a
// concurrent pivot's check runs between our check and our clog flip; if the
// transaction still aborts afterwards, the result is at worst a false
// positive on someone else.
func (m *Manager) PreCommit(st *TxnState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.dist = st.t.DistID()
	if st.aborted {
		return ErrSerializationFailure
	}
	if st.doomed || m.dangerousLocked(st) {
		m.abortLocked(st)
		return ErrSerializationFailure
	}
	m.seq++
	st.commitSeq = m.seq
	st.commitWall = time.Now().UnixNano()
	return nil
}

// Finish ends SSI tracking for the transaction. A committed transaction is
// retained — locks and edges intact — until every transaction whose
// snapshot could overlap it has finished; an aborted one is unlinked at
// once (aborted transactions cannot take part in a serialization cycle).
func (m *Manager) Finish(st *TxnState, committed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st.aborted {
		m.gcLocked()
		return
	}
	if !committed {
		m.abortLocked(st)
		m.gcLocked()
		return
	}
	if st.commitSeq == 0 { // commit without a pre-commit check (defensive)
		m.seq++
		st.commitSeq = m.seq
		st.commitWall = time.Now().UnixNano()
	}
	st.finished = true
	m.gcLocked()
}

// Doom marks the active transaction carrying a distributed transaction id
// for abort at commit (the coordinator's cluster-wide pivot abort).
func (m *Manager) Doom(distID string) bool {
	if distID == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.states {
		if st.dist == distID && st.commitSeq == 0 && !st.aborted {
			st.doomed = true
			return true
		}
	}
	return false
}

// abortLocked removes st from the conflict graph and releases its locks.
func (m *Manager) abortLocked(st *TxnState) {
	if st.aborted {
		return
	}
	st.aborted = true
	st.finished = true
	metAborts.Inc()
	m.dropLocked(st)
}

func (m *Manager) dropLocked(st *TxnState) {
	for w := range st.out {
		delete(w.in, st)
	}
	for r := range st.in {
		delete(r.out, st)
	}
	st.in, st.out = map[*TxnState]struct{}{}, map[*TxnState]struct{}{}
	for k := range st.locks {
		m.releaseOneLocked(st, k)
	}
	delete(m.states, st.vid)
	if st.xid != 0 {
		delete(m.byXID, st.xid)
	}
}

// gcLocked drains committed transactions no live snapshot can overlap: a
// retained transaction is droppable once every unfinished transaction began
// after it committed.
func (m *Manager) gcLocked() {
	minBegin := ^uint64(0)
	for _, st := range m.states {
		if !st.finished {
			if st.beginSeq < minBegin {
				minBegin = st.beginSeq
			}
		}
	}
	for _, st := range m.states {
		if st.finished && !st.aborted && st.commitSeq < minBegin {
			m.dropLocked(st)
		}
	}
}

// Stats reports current tracking volume (tests and citus_stat UDFs).
func (m *Manager) Stats() (txns, locks int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, holders := range m.locks {
		locks += len(holders)
	}
	return len(m.states), locks
}

// SessionState is a read-only snapshot of one tracked transaction's SSI
// bookkeeping — the pg_stat-style row behind citus_stat_ssi(). Committed
// transactions retained for conflict detection still appear (state
// "committed") until gc drains them, exactly mirroring PostgreSQL's
// SERIALIZABLEXACT retention.
type SessionState struct {
	// VID is the transaction's virtual ID, XID its XID (0 while it has
	// written nothing).
	VID      uint64
	XID      uint64
	DistID   string
	BeginSeq uint64
	// CommitSeq is the commit order assigned by the pre-commit check; 0
	// while the transaction is active or when it aborted.
	CommitSeq uint64
	// State is "active", "committed", or "aborted".
	State string
	// Doomed marks a transaction already condemned by the cluster-wide
	// pivot check: it is still running but its commit will fail.
	Doomed bool
	// InConflicts / OutConflicts count rw-antidependency edges (R → this /
	// this → W) currently recorded against the transaction.
	InConflicts  int
	OutConflicts int
	// SIREADLocks counts predicate locks held, after promotion.
	SIREADLocks int
}

// Sessions exports every tracked transaction's state, ordered by begin
// sequence so concurrent observers see a stable listing.
func (m *Manager) Sessions() []SessionState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SessionState, 0, len(m.states))
	for _, st := range m.states {
		state := "active"
		switch {
		case st.finished && st.aborted:
			state = "aborted"
		case st.finished:
			state = "committed"
		}
		out = append(out, SessionState{
			VID:          st.vid,
			XID:          st.xid,
			DistID:       st.dist,
			BeginSeq:     st.beginSeq,
			CommitSeq:    st.commitSeq,
			State:        state,
			Doomed:       st.doomed,
			InConflicts:  len(st.in),
			OutConflicts: len(st.out),
			SIREADLocks:  len(st.locks),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BeginSeq < out[j].BeginSeq })
	return out
}
