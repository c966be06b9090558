package txn

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBeginCommitVisibility(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	snapBefore := m.TakeSnapshot(nil)
	if m.Sees(snapBefore, t1.XID()) {
		t.Fatal("in-progress transaction must be invisible")
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	// a snapshot taken while t1 ran still does not see it
	if m.Sees(snapBefore, t1.XID()) {
		t.Fatal("read-committed snapshot must not see a later commit")
	}
	snapAfter := m.TakeSnapshot(nil)
	if !m.Sees(snapAfter, t1.XID()) {
		t.Fatal("committed transaction must be visible to new snapshots")
	}
}

func TestAbortNeverVisible(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	m.Abort(t1)
	snap := m.TakeSnapshot(nil)
	if m.Sees(snap, t1.XID()) {
		t.Fatal("aborted transaction visible")
	}
	if m.Status(t1.XID()) != Aborted {
		t.Fatal("status not aborted")
	}
}

func TestSelfVisibility(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	snap := m.TakeSnapshot(t1)
	if !m.Sees(snap, t1.XID()) {
		t.Fatal("transaction must see its own writes")
	}
}

func TestFutureXIDInvisible(t *testing.T) {
	m := NewManager()
	snap := m.TakeSnapshot(nil)
	t1 := m.Begin()
	_ = m.Commit(t1)
	if m.Sees(snap, t1.XID()) {
		t.Fatal("xid >= snapshot xmax must be invisible even when committed")
	}
}

func TestPreCommitCallbackAbortsOnError(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t1.OnPreCommit(func() error { return errors.New("prepare failed") })
	ended := false
	committed := true
	t1.OnEnd(func(c bool) { ended = true; committed = c })
	if err := m.Commit(t1); err == nil {
		t.Fatal("commit must fail when pre-commit errors")
	}
	if m.Status(t1.XID()) != Aborted {
		t.Fatal("transaction must abort")
	}
	if !ended || committed {
		t.Fatal("end callback must fire with committed=false")
	}
}

func TestCallbackOrdering(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	var order []string
	t1.OnPreCommit(func() error { order = append(order, "pre1"); return nil })
	t1.OnPreCommit(func() error { order = append(order, "pre2"); return nil })
	t1.OnEnd(func(bool) { order = append(order, "end") })
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "pre1" || order[1] != "pre2" || order[2] != "end" {
		t.Fatalf("callback order: %v", order)
	}
}

func TestPreparedTransactionLifecycle(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	if err := m.Prepare(t1, "gid-1"); err != nil {
		t.Fatal(err)
	}
	// still invisible and still counted as in-progress by snapshots
	snap := m.TakeSnapshot(nil)
	if m.Sees(snap, t1.XID()) {
		t.Fatal("prepared transaction visible before commit prepared")
	}
	list := m.ListPrepared()
	if len(list) != 1 || list[0].GID != "gid-1" {
		t.Fatalf("prepared list: %v", list)
	}
	// duplicate gid rejected
	t2 := m.Begin()
	if err := m.Prepare(t2, "gid-1"); err == nil {
		t.Fatal("duplicate gid accepted")
	}
	// resolve
	if _, err := m.FinishPrepared("gid-1", true); err != nil {
		t.Fatal(err)
	}
	snap = m.TakeSnapshot(nil)
	if !m.Sees(snap, t1.XID()) {
		t.Fatal("committed prepared transaction invisible")
	}
	if _, err := m.FinishPrepared("gid-1", true); err == nil {
		t.Fatal("double finish accepted")
	}
	if _, err := m.FinishPrepared("unknown", false); err == nil {
		t.Fatal("unknown gid accepted")
	}
}

func TestCancelledCommitAborts(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t1.Cancel()
	if !t1.Cancelled() {
		t.Fatal("not cancelled")
	}
	if err := m.Commit(t1); err == nil {
		t.Fatal("commit of cancelled transaction must fail")
	}
	if m.Status(t1.XID()) != Aborted {
		t.Fatal("cancelled transaction must abort")
	}
	t1.Cancel() // idempotent
}

func TestGlobalXmin(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if got := m.GlobalXmin(); got != t1.XID() {
		t.Fatalf("xmin = %d, want %d", got, t1.XID())
	}
	_ = m.Commit(t1)
	if got := m.GlobalXmin(); got != t2.XID() {
		t.Fatalf("xmin = %d, want %d", got, t2.XID())
	}
	// prepared transactions hold the horizon too
	if err := m.Prepare(t2, "g"); err != nil {
		t.Fatal(err)
	}
	if got := m.GlobalXmin(); got != t2.XID() {
		t.Fatalf("xmin with prepared = %d, want %d", got, t2.XID())
	}
}

func TestForceStatusAndAdoptPrepared(t *testing.T) {
	m := NewManager()
	m.ForceStatus(100, Committed)
	if m.Status(100) != Committed {
		t.Fatal("force status failed")
	}
	// allocator moved past the forced xid
	t1 := m.Begin()
	if t1.XID() <= 100 {
		t.Fatalf("xid allocator did not advance: %d", t1.XID())
	}
	adopted := m.AdoptPrepared(200, "recovered")
	if adopted.XID() != 200 {
		t.Fatal("adopt failed")
	}
	if _, err := m.FinishPrepared("recovered", false); err != nil {
		t.Fatal(err)
	}
	if m.Status(200) != Aborted {
		t.Fatal("adopted prepared transaction not aborted")
	}
}

// TestWaitEnd: a writer waiting out a deleter that holds no lock wakes when
// the deleter ends, and when it is cancelled itself.
func TestWaitEnd(t *testing.T) {
	m := NewManager()
	deleter, waiter := m.Begin(), m.Begin()
	ended := make(chan bool, 1)
	go func() { ended <- m.WaitEnd(deleter.XID(), waiter) }()
	select {
	case <-ended:
		t.Fatal("WaitEnd returned while the deleter was in progress")
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Commit(deleter); err != nil {
		t.Fatal(err)
	}
	if !<-ended {
		t.Fatal("WaitEnd did not report the deleter's end")
	}
	other := m.Begin()
	go func() { ended <- m.WaitEnd(other.XID(), waiter) }()
	waiter.Cancel()
	if <-ended {
		t.Fatal("WaitEnd reported an end after its waiter was cancelled")
	}
}

// TestDistIDReadWhileSet: a running transaction's DistID is set by its own
// session while the deadlock detector, the cancel node function and
// citus_stat_activity read it from other goroutines (run under -race).
func TestDistIDReadWhileSet(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if tx.DistID() != "" {
		t.Fatalf("a new transaction's DistID is %q", tx.DistID())
	}
	done := make(chan string)
	go func() {
		var last string
		for i := 0; i < 100; i++ {
			for _, a := range m.ActiveTxns() {
				last = a.DistID()
			}
		}
		done <- last
	}()
	tx.SetDistID("1:2:3")
	if got := <-done; got != "" && got != "1:2:3" {
		t.Fatalf("a reader saw DistID %q", got)
	}
	if tx.DistID() != "1:2:3" {
		t.Fatalf("DistID %q after SetDistID", tx.DistID())
	}
}

// TestClogReadersBesideWriters: sessions begin in their slots, take XIDs
// across page boundaries, commit and abort, while other goroutines read the
// commit log, take snapshots, compute the vacuum horizon and list the
// running transactions without the manager's lock (run under -race). An
// XID's status only ever moves from in progress to its outcome, and the
// horizon never passes an XID a reader's snapshot still saw running.
func TestClogReadersBesideWriters(t *testing.T) {
	m := NewManager()
	m.AdvanceXIDBase(clogPageXIDs - 50) // the writers cross into a new page
	const writers, txns = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	outcome := make([]sync.Map, writers) // xid -> Status, as its writer decided
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := m.NewProc()
			defer p.Close()
			for i := 0; i < txns; i++ {
				tx := p.Begin()
				m.TakeSnapshot(tx)
				if i%3 == 0 { // a reader: no XID
					m.Abort(tx)
					continue
				}
				xid := tx.EnsureXID()
				if i%2 == 0 {
					outcome[w].Store(xid, Aborted)
					m.Abort(tx)
				} else {
					outcome[w].Store(xid, Committed)
					if err := m.Commit(tx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			p := m.NewProc()
			defer p.Close()
			seen := map[uint64]bool{} // XIDs this reader has read committed
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := p.Begin()
				snap := m.TakeSnapshot(tx)
				for _, xid := range snap.InProgress {
					if m.Sees(snap, xid) {
						t.Errorf("a snapshot sees XID %d it lists running", xid)
					}
				}
				if len(snap.InProgress) > 0 && m.GlobalXmin() > snap.InProgress[0] {
					t.Errorf("horizon %d passed XID %d an open snapshot saw running", m.GlobalXmin(), snap.InProgress[0])
				}
				for xid := snap.Xmax - 60; xid < snap.Xmax; xid++ {
					committed := m.Status(xid) == Committed
					if seen[xid] && !committed {
						t.Errorf("XID %d read committed, then %v", xid, m.Status(xid))
					}
					seen[xid] = seen[xid] || committed
				}
				_ = m.ActiveTxns()
				m.Abort(tx)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for w := range outcome {
		outcome[w].Range(func(k, v any) bool {
			if got := m.Status(k.(uint64)); got != v.(Status) {
				t.Errorf("XID %d reads %v, its writer decided %v", k, got, v)
			}
			return true
		})
	}
	if got := m.ClogBytes(); got != 2*clogPageBytes {
		t.Errorf("commit log of %d bytes after crossing one page boundary, want %d", got, 2*clogPageBytes)
	}
	if xmin := m.GlobalXmin(); xmin != m.TakeSnapshot(nil).Xmax {
		t.Errorf("horizon %d with nothing running, want the next XID", xmin)
	}
}
