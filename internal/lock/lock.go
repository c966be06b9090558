// Package lock implements the per-node lock manager: exclusive row locks
// and relation locks in two modes, shared and exclusive, with FIFO queueing,
// a waits-for graph, and cycle detection. A writer holds its table's
// relation lock shared from its first write to the end of its transaction;
// DDL that would erase or reshape the rows and a shard move's write block
// take it exclusively, so each waits for the other. The waits-for graph is
// what the distributed deadlock detector polls from every worker node (paper
// §3.7.3): each node reports "process a waits for process b" edges, and the
// coordinator merges nodes that belong to the same distributed transaction.
package lock

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// ErrAborted is returned from Acquire when the waiting transaction was
// aborted (e.g. chosen as a deadlock victim).
var ErrAborted = errors.New("canceling statement due to deadlock or abort")

// Key identifies a lockable object.
type Key struct {
	Table int64
	Tuple int64 // -1 is the table's relation lock (TableKey); otherwise a tuple id
}

// TableKey returns the relation lock key for a table.
func TableKey(table int64) Key { return Key{Table: table, Tuple: -1} }

// Mode is how a lock is held: any number of transactions may hold a key
// shared, one exclusive holder excludes everyone else.
type Mode int8

const (
	Exclusive Mode = iota
	Shared
)

// Edge is one waits-for edge: Waiter is blocked on a lock held (or queued
// ahead) by Holder.
type Edge struct {
	Waiter uint64
	Holder uint64
}

type waiter struct {
	txn   uint64
	mode  Mode
	ready chan struct{}
}

type lockState struct {
	mode   Mode     // the owners'
	owners []uint64 // one when exclusive
	queue  []*waiter
}

// conflicts reports whether a request in mode a must wait for a holder (or a
// waiter queued ahead) in mode b.
func conflicts(a, b Mode) bool { return a == Exclusive || b == Exclusive }

// grantable reports whether txn may take the lock in mode now, its own
// holding aside: shared beside shared owners, exclusive with no other owner.
func (ls *lockState) grantable(txn uint64, mode Mode) bool {
	for _, o := range ls.owners {
		if o != txn && conflicts(mode, ls.mode) {
			return false
		}
	}
	return true
}

// holds reports whether txn already holds the lock in a mode covering mode.
func (ls *lockState) holds(txn uint64, mode Mode) bool {
	return slices.Contains(ls.owners, txn) && (ls.mode == Exclusive || mode == Shared)
}

// Manager is a node-local lock manager.
type Manager struct {
	mu    sync.Mutex
	locks map[Key]*lockState
	// peak is the most entries locks has held since it was last made: a Go
	// map keeps the buckets it grew to when its entries go, so one
	// transaction's many row locks would stay in memory after their release
	// (shrink).
	peak  int
	owned map[uint64][]Key
}

// minShrinkPeak is the smallest peak shrink rebuilds the lock table after: a
// table that small costs less than rebuilding it each time it empties.
const minShrinkPeak = 1024

// NewManager creates an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		locks: make(map[Key]*lockState),
		owned: make(map[uint64][]Key),
	}
}

// Acquire takes the lock on key in mode for txn, blocking until granted.
// It is re-entrant for the same transaction, and a sole shared holder's
// exclusive request upgrades at once. abort (may be nil) aborts the wait
// when closed — the engine closes it when the transaction is chosen as a
// deadlock victim.
func (m *Manager) Acquire(ctx context.Context, txn uint64, key Key, mode Mode, abort <-chan struct{}) error {
	m.mu.Lock()
	ls := m.state(key)
	if m.tryLocked(ls, txn, key, mode) {
		m.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, ready: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		m.removeWaiter(key, w)
		return ctx.Err()
	case <-abort:
		m.removeWaiter(key, w)
		return ErrAborted
	}
}

// TryAcquire takes the lock in mode if that needs no wait.
func (m *Manager) TryAcquire(txn uint64, key Key, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tryLocked(m.state(key), txn, key, mode)
}

func (m *Manager) state(key Key) *lockState {
	ls, ok := m.locks[key]
	if !ok {
		ls = &lockState{}
		m.locks[key] = ls
		m.peak = max(m.peak, len(m.locks))
	}
	return ls
}

// shrink rebuilds the lock table once it holds less than a quarter of its
// peak, so that what the table costs follows the locks held now. Each
// rebuild copies at most a quarter of the entries the table lost since the
// last, so the copying is paid for by the releases.
func (m *Manager) shrink() {
	if m.peak < minShrinkPeak || len(m.locks) >= m.peak/4 {
		return
	}
	locks := make(map[Key]*lockState, len(m.locks))
	for k, ls := range m.locks {
		locks[k] = ls
	}
	m.locks, m.peak = locks, len(locks)
}

// tryLocked grants txn's request when it is already covered, or when
// nothing holds or queues in its way (no barging past a queued waiter).
func (m *Manager) tryLocked(ls *lockState, txn uint64, key Key, mode Mode) bool {
	if ls.holds(txn, mode) {
		return true
	}
	if len(ls.queue) > 0 || !ls.grantable(txn, mode) {
		return false
	}
	m.grantLocked(ls, txn, key, mode)
	return true
}

func (m *Manager) grantLocked(ls *lockState, txn uint64, key Key, mode Mode) {
	if slices.Contains(ls.owners, txn) {
		ls.mode = mode // an upgrade: txn is the only owner
		return
	}
	if len(ls.owners) == 0 {
		ls.mode = mode
	}
	ls.owners = append(ls.owners, txn)
	m.owned[txn] = append(m.owned[txn], key)
}

// removeWaiter drops w from the queue after a cancelled wait. If the lock
// was granted concurrently (ready closed), it is released again so the next
// waiter is not starved.
func (m *Manager) removeWaiter(key Key, w *waiter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.locks[key]
	if ls == nil {
		return
	}
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			m.wakeLocked(key, ls) // w may have held back shared waiters behind it
			return
		}
	}
	// Not in queue: the grant raced with the cancel. Hand it on.
	select {
	case <-w.ready:
		m.releaseLocked(key, ls, w.txn)
	default:
	}
}

// ReleaseAll releases every lock held by txn (called at commit/abort, like
// PostgreSQL's lock release at transaction end).
func (m *Manager) ReleaseAll(txn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.owned[txn] {
		if ls := m.locks[key]; ls != nil {
			m.releaseLocked(key, ls, txn)
		}
	}
	delete(m.owned, txn)
}

func (m *Manager) releaseLocked(key Key, ls *lockState, txn uint64) {
	ls.owners = slices.DeleteFunc(ls.owners, func(o uint64) bool { return o == txn })
	m.wakeLocked(key, ls)
}

// wakeLocked grants the queue from its head for as long as the head is
// grantable: one exclusive waiter, or a run of shared ones.
func (m *Manager) wakeLocked(key Key, ls *lockState) {
	for len(ls.queue) > 0 {
		next := ls.queue[0]
		if !ls.grantable(next.txn, next.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		m.grantLocked(ls, next.txn, key, next.mode)
		close(next.ready)
	}
	if len(ls.queue) == 0 && len(ls.owners) == 0 {
		delete(m.locks, key)
		m.shrink()
	}
}

// Waiters returns the transactions queued on key.
func (m *Manager) Waiters(key Key) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var txns []uint64
	if ls := m.locks[key]; ls != nil {
		for _, w := range ls.queue {
			txns = append(txns, w.txn)
		}
	}
	return txns
}

// Edges snapshots the waits-for graph. A queued waiter waits for every
// owner and every waiter queued ahead of it whose mode conflicts with its
// own: a shared waiter waits for exclusive holders, and for an exclusive
// waiter ahead of it, but not for shared holders.
func (m *Manager) Edges() []Edge {
	m.mu.Lock()
	defer m.mu.Unlock()
	var edges []Edge
	for _, ls := range m.locks {
		for i, w := range ls.queue {
			for _, o := range ls.owners {
				if o != w.txn && conflicts(w.mode, ls.mode) {
					edges = append(edges, Edge{Waiter: w.txn, Holder: o})
				}
			}
			for _, q := range ls.queue[:i] {
				if conflicts(w.mode, q.mode) {
					edges = append(edges, Edge{Waiter: w.txn, Holder: q.txn})
				}
			}
		}
	}
	return edges
}

// FindCycle looks for a cycle in a waits-for graph and returns the
// transactions on one cycle (empty if the graph is acyclic). Exported so
// both the node-local detector and the distributed detector share it.
func FindCycle(edges []Edge) []uint64 {
	adj := make(map[uint64][]uint64)
	for _, e := range edges {
		adj[e.Waiter] = append(adj[e.Waiter], e.Holder)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[uint64]int)
	var stack []uint64
	var cycle []uint64

	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		color[u] = gray
		stack = append(stack, u)
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				if dfs(v) {
					return true
				}
			case gray:
				// found a cycle: slice from v's position on the stack
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
	for u := range adj {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}
