package lock

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAcquireReentrant(t *testing.T) {
	m := NewManager()
	key := Key{Table: 1, Tuple: 5}
	if err := m.Acquire(context.Background(), 10, key, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	// same transaction re-acquires without blocking
	done := make(chan struct{})
	go func() {
		_ = m.Acquire(context.Background(), 10, key, Exclusive, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("re-entrant acquire blocked")
	}
}

func TestBlockingAndFIFOHandoff(t *testing.T) {
	m := NewManager()
	key := Key{Table: 1, Tuple: 1}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Acquire(context.Background(), 1, key, Exclusive, nil))

	order := make(chan uint64, 2)
	var wg sync.WaitGroup
	for _, txn := range []uint64{2, 3} {
		wg.Add(1)
		txn := txn
		go func() {
			defer wg.Done()
			must(m.Acquire(context.Background(), txn, key, Exclusive, nil))
			order <- txn
			time.Sleep(10 * time.Millisecond)
			m.ReleaseAll(txn)
		}()
		time.Sleep(20 * time.Millisecond) // deterministic queue order
	}
	m.ReleaseAll(1)
	wg.Wait()
	if first := <-order; first != 2 {
		t.Fatalf("expected FIFO handoff, first was %d", first)
	}
}

func TestAbortCancelsWait(t *testing.T) {
	m := NewManager()
	key := Key{Table: 1, Tuple: 1}
	if err := m.Acquire(context.Background(), 1, key, Exclusive, nil); err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- m.Acquire(context.Background(), 2, key, Exclusive, abort)
	}()
	time.Sleep(10 * time.Millisecond)
	close(abort)
	select {
	case err := <-errCh:
		if err != ErrAborted {
			t.Fatalf("want ErrAborted, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("abort did not cancel the wait")
	}
	// the queue entry is gone: release hands to nobody, next acquire works
	m.ReleaseAll(1)
	if !m.TryAcquire(3, key, Exclusive) {
		t.Fatal("lock not free after cancelled waiter")
	}
}

func TestContextCancelsWait(t *testing.T) {
	m := NewManager()
	key := Key{Table: 2, Tuple: 2}
	_ = m.Acquire(context.Background(), 1, key, Exclusive, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Acquire(ctx, 2, key, Exclusive, nil); err == nil {
		t.Fatal("expected context deadline error")
	}
}

func TestEdgesReflectWaiters(t *testing.T) {
	m := NewManager()
	key := Key{Table: 1, Tuple: 1}
	_ = m.Acquire(context.Background(), 1, key, Exclusive, nil)
	go m.Acquire(context.Background(), 2, key, Exclusive, nil)
	go func() {
		time.Sleep(10 * time.Millisecond)
		m.Acquire(context.Background(), 3, key, Exclusive, nil)
	}()
	time.Sleep(50 * time.Millisecond)
	edges := m.Edges()
	// 2 waits for 1; 3 waits for 1 and for 2 (queued ahead)
	if len(edges) != 3 {
		t.Fatalf("edges: %v", edges)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	m.ReleaseAll(3)
}

func TestFindCycle(t *testing.T) {
	if c := FindCycle([]Edge{{2, 3}, {3, 4}, {4, 2}}); len(c) != 3 {
		t.Fatalf("3-cycle: %v", c)
	}
	if c := FindCycle([]Edge{{2, 3}, {3, 4}}); c != nil {
		t.Fatalf("acyclic graph produced cycle %v", c)
	}
	if c := FindCycle(nil); c != nil {
		t.Fatal("empty graph")
	}
	// self-loop (never happens with re-entrant locks, but must not crash)
	if c := FindCycle([]Edge{{7, 7}}); len(c) != 1 {
		t.Fatalf("self loop: %v", c)
	}
}

func TestTryAcquire(t *testing.T) {
	m := NewManager()
	key := Key{Table: 9, Tuple: 9}
	if !m.TryAcquire(1, key, Exclusive) {
		t.Fatal("free lock must be acquirable")
	}
	if m.TryAcquire(2, key, Exclusive) {
		t.Fatal("held lock must not be acquirable")
	}
	if !m.TryAcquire(1, key, Exclusive) {
		t.Fatal("re-entrant try must succeed")
	}
	m.ReleaseAll(1)
	if !m.TryAcquire(2, key, Exclusive) {
		t.Fatal("released lock must be acquirable")
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const workers = 16
	const iters = 200
	var counter int64
	var wg sync.WaitGroup
	key := TableKey(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(txn uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := txn*1000 + uint64(i)
				if err := m.Acquire(context.Background(), id, key, Exclusive, nil); err != nil {
					t.Error(err)
					return
				}
				counter++ // protected by the lock
				m.ReleaseAll(id)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("mutual exclusion violated: %d != %d", counter, workers*iters)
	}
}

// acquireAsync starts an Acquire and returns the channel its result arrives
// on.
func acquireAsync(m *Manager, txn uint64, key Key, mode Mode, abort <-chan struct{}) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- m.Acquire(context.Background(), txn, key, mode, abort) }()
	return ch
}

// blocked reports whether no result arrives on ch within a short wait.
func blocked(ch <-chan error) bool {
	select {
	case <-ch:
		return false
	case <-time.After(30 * time.Millisecond):
		return true
	}
}

// waitQueued spins until n transactions queue on key.
func waitQueued(t *testing.T, m *Manager, key Key, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(m.Waiters(key)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters on %v, want %d", len(m.Waiters(key)), key, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedRelationLock: writers share a relation lock; DDL's exclusive
// request waits for all of them, and a writer arriving behind the queued
// exclusive request waits for it too (no barging), then the shared run
// behind it is granted together.
func TestSharedRelationLock(t *testing.T) {
	m := NewManager()
	key := TableKey(7)
	for _, txn := range []uint64{1, 2} {
		if !m.TryAcquire(txn, key, Shared) {
			t.Fatalf("txn %d: a shared lock beside shared holders must be granted", txn)
		}
	}
	if !m.TryAcquire(1, key, Shared) {
		t.Fatal("re-entrant shared acquire must succeed")
	}
	ddl := acquireAsync(m, 3, key, Exclusive, nil)
	if !blocked(ddl) {
		t.Fatal("an exclusive request must wait for shared holders")
	}
	waitQueued(t, m, key, 1)
	if m.TryAcquire(4, key, Shared) {
		t.Fatal("a shared request must not barge past a queued exclusive one")
	}
	w4, w5 := acquireAsync(m, 4, key, Shared, nil), acquireAsync(m, 5, key, Shared, nil)
	waitQueued(t, m, key, 3)
	m.ReleaseAll(1)
	if !blocked(ddl) {
		t.Fatal("the exclusive request was granted beside a shared holder")
	}
	m.ReleaseAll(2)
	if err := <-ddl; err != nil {
		t.Fatal(err)
	}
	if !blocked(w4) || !blocked(w5) {
		t.Fatal("shared waiters were granted beside the exclusive holder")
	}
	m.ReleaseAll(3)
	if err, err2 := <-w4, <-w5; err != nil || err2 != nil {
		t.Fatalf("shared waiters after the exclusive holder: %v, %v", err, err2)
	}
}

// TestUpgradeSoleSharedHolder: a transaction holding a relation lock alone
// in shared mode takes it exclusively at once (a writer running DDL on its
// own table); with another sharer it waits for that one.
func TestUpgradeSoleSharedHolder(t *testing.T) {
	m := NewManager()
	key := TableKey(8)
	m.TryAcquire(1, key, Shared)
	if !m.TryAcquire(1, key, Exclusive) {
		t.Fatal("a sole shared holder must upgrade at once")
	}
	if m.TryAcquire(2, key, Shared) {
		t.Fatal("the upgraded lock must exclude other sharers")
	}
	m.ReleaseAll(1)
	m.TryAcquire(2, key, Shared)
	m.TryAcquire(3, key, Shared)
	up := acquireAsync(m, 2, key, Exclusive, nil)
	if !blocked(up) {
		t.Fatal("an upgrade beside another sharer must wait")
	}
	m.ReleaseAll(3)
	if err := <-up; err != nil {
		t.Fatal(err)
	}
}

// TestSharedWaitEdges: a waiter on a shared holder is a waits-for edge, a
// shared waiter is not an edge to the shared holders it waits beside, and a
// DDL-versus-writer cycle is found.
func TestSharedWaitEdges(t *testing.T) {
	m := NewManager()
	a, b := TableKey(1), TableKey(2)
	m.TryAcquire(10, a, Shared)    // writer 10 wrote a
	m.TryAcquire(20, b, Exclusive) // DDL 20 holds b
	m.TryAcquire(30, a, Shared)    // writer 30 wrote a as well
	abort := make(chan struct{})
	ddl := acquireAsync(m, 20, a, Exclusive, abort) // DDL 20 now wants a
	waitQueued(t, m, a, 1)
	writer := acquireAsync(m, 10, b, Shared, nil) // writer 10 wants b
	waitQueued(t, m, b, 1)
	has := func(edges []Edge, w, h uint64) bool {
		for _, e := range edges {
			if e.Waiter == w && e.Holder == h {
				return true
			}
		}
		return false
	}
	edges := m.Edges()
	if !has(edges, 20, 10) || !has(edges, 20, 30) || !has(edges, 10, 20) {
		t.Fatalf("edges %v: want 20->10, 20->30, 10->20", edges)
	}
	if c := FindCycle(edges); len(c) != 2 {
		t.Fatalf("cycle %v, want the DDL and writer 10", c)
	}
	close(abort) // the detector's victim
	if err := <-ddl; err != ErrAborted {
		t.Fatalf("victim's wait: %v", err)
	}
	m.ReleaseAll(20)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	// shared waiters queued behind an exclusive one wait for it, not for
	// the shared holders
	m.ReleaseAll(10)
	m.TryAcquire(40, b, Exclusive)
	m.TryAcquire(41, a, Shared)
	go m.Acquire(context.Background(), 42, a, Exclusive, nil)
	waitQueued(t, m, a, 1)
	go m.Acquire(context.Background(), 43, a, Shared, nil)
	waitQueued(t, m, a, 2)
	for _, e := range m.Edges() {
		if e.Waiter == 43 && e.Holder != 42 {
			t.Fatalf("shared waiter 43 has edge to %d; only the exclusive waiter 42 blocks it", e.Holder)
		}
	}
}

// TestLockTableShrinks: one transaction's 10 000 row locks, taken and
// released, leave an empty manager's live heap within 64 KiB of what it was
// before: the lock table is rebuilt as it empties instead of keeping the
// buckets it grew to.
func TestLockTableShrinks(t *testing.T) {
	const n = 10_000
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	m := NewManager()
	before := live()
	for i := 0; i < n; i++ {
		if !m.TryAcquire(7, Key{Table: 1, Tuple: int64(i)}, Exclusive) {
			t.Fatalf("row lock %d not granted", i)
		}
	}
	held := live()
	m.ReleaseAll(7)
	after := live()
	runtime.KeepAlive(m)
	t.Logf("live heap: %d bytes empty, %d holding %d row locks, %d after their release", before, held, n, after)
	if len(m.locks) != 0 || len(m.owned) != 0 {
		t.Fatalf("%d lock entries and %d owners left after the release", len(m.locks), len(m.owned))
	}
	if grew := after - before; grew > 64<<10 {
		t.Fatalf("the released locks left %d bytes live, want at most 64 KiB", grew)
	}
}
