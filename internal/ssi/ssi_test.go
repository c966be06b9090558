package ssi

import (
	"testing"

	"citusgo/internal/txn"
)

func newTestMgr() (*txn.Manager, *Manager) {
	clog := txn.NewManager()
	return clog, NewManager(clog)
}

// begin starts a txn and registers it for SSI.
func begin(t *testing.T, clog *txn.Manager, m *Manager) (*txn.Txn, *TxnState) {
	t.Helper()
	tx := clog.Begin()
	st, isNew := m.Register(tx)
	if !isNew {
		t.Fatalf("expected new SSI state for xid %d", tx.XID())
	}
	return tx, st
}

// commit runs the pre-commit check and, on success, finishes the txn.
func commit(clog *txn.Manager, m *Manager, tx *txn.Txn, st *TxnState) error {
	if err := m.PreCommit(st); err != nil {
		clog.Abort(tx)
		m.Finish(st, false)
		return err
	}
	clog.Commit(tx)
	m.Finish(st, true)
	return nil
}

// TestWriteSkewPairAborts models the classic bank write-skew: T1 and T2
// each read both accounts, then each writes a different one. The rw-edges
// form the 2-cycle T1→T2→T1; the first committer wins, the second must get
// a serialization failure.
func TestWriteSkewPairAborts(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	t2, s2 := begin(t, clog, m)

	a1, a2 := TupleKey(1, 10, 0), TupleKey(1, 20, 0)
	m.OnRead(s1, a1)
	m.OnRead(s1, a2)
	m.OnRead(s2, a1)
	m.OnRead(s2, a2)

	// T1 writes a1 (T2 read it): edge T2→T1. T2 writes a2: edge T1→T2.
	if err := m.OnWrite(s1, a1); err != nil {
		t.Fatalf("OnWrite(t1): %v", err)
	}
	if err := m.OnWrite(s2, a2); err != nil {
		t.Fatalf("OnWrite(t2): %v", err)
	}

	if err := commit(clog, m, t1, s1); err != nil {
		t.Fatalf("first committer should pass: %v", err)
	}
	if err := commit(clog, m, t2, s2); !IsSerializationFailure(err) {
		t.Fatalf("second committer: want serialization failure, got %v", err)
	}
}

// TestThreeTxnPivot is the textbook dangerous structure: T1 → pivot → T3
// where T3 (the pivot's out-neighbor) commits first.
func TestThreeTxnPivot(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	tp, sp := begin(t, clog, m)
	t3, s3 := begin(t, clog, m)

	kA, kB := TupleKey(1, 1, 0), TupleKey(1, 2, 0)
	m.OnRead(s1, kA) // T1 reads A
	m.OnRead(sp, kB) // pivot reads B

	if err := m.OnWrite(s3, kB); err != nil { // pivot → T3
		t.Fatalf("OnWrite(t3): %v", err)
	}
	if err := commit(clog, m, t3, s3); err != nil {
		t.Fatalf("t3 commit: %v", err)
	}
	if err := m.OnWrite(sp, kA); err != nil { // T1 → pivot; pivot is caller and now dangerous
		if !IsSerializationFailure(err) {
			t.Fatalf("want serialization failure, got %v", err)
		}
		clog.Abort(tp)
		m.Finish(sp, false)
	} else if err := commit(clog, m, tp, sp); !IsSerializationFailure(err) {
		t.Fatalf("pivot commit: want serialization failure, got %v", err)
	}
	if err := commit(clog, m, t1, s1); err != nil {
		t.Fatalf("t1 should still commit: %v", err)
	}
}

// TestInNeighborCommittedFirstIsSafe: if the in-neighbor committed strictly
// before the out-neighbor, the structure cannot be part of a cycle and the
// pivot must be allowed to commit.
func TestInNeighborCommittedFirstIsSafe(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	tp, sp := begin(t, clog, m)
	t3, s3 := begin(t, clog, m)

	kA, kB := TupleKey(1, 1, 0), TupleKey(1, 2, 0)
	m.OnRead(s1, kA)
	m.OnRead(sp, kB)
	if err := m.OnWrite(sp, kA); err != nil { // T1 → pivot
		t.Fatalf("OnWrite(pivot): %v", err)
	}
	if err := commit(clog, m, t1, s1); err != nil { // in-neighbor commits first
		t.Fatalf("t1 commit: %v", err)
	}
	if err := m.OnWrite(s3, kB); err != nil { // pivot → T3
		t.Fatalf("OnWrite(t3): %v", err)
	}
	if err := commit(clog, m, t3, s3); err != nil { // out-neighbor commits after
		t.Fatalf("t3 commit: %v", err)
	}
	if err := commit(clog, m, tp, sp); err != nil {
		t.Fatalf("pivot should commit (in-neighbor first): %v", err)
	}
}

// TestConflictOutCommittedWriter: reading a version written by a concurrent
// already-committed writer creates the edge and, combined with an
// in-conflict, aborts the reader at the right moment.
func TestConflictOutCommittedWriter(t *testing.T) {
	clog, m := newTestMgr()
	tw, sw := begin(t, clog, m)
	tr, sr := begin(t, clog, m)
	if err := commit(clog, m, tw, sw); err != nil {
		t.Fatalf("writer commit: %v", err)
	}
	// Reader observes the concurrent committed writer's version.
	if err := m.ConflictOut(sr, tw.XID()); err != nil {
		t.Fatalf("ConflictOut: %v", err)
	}
	// Now another txn reads something the reader writes: reader becomes a
	// pivot with its out-neighbor already committed → dangerous.
	t3, s3 := begin(t, clog, m)
	k := TupleKey(2, 5, 0)
	m.OnRead(s3, k)
	err := m.OnWrite(sr, k)
	if !IsSerializationFailure(err) {
		t.Fatalf("want serialization failure on pivot caller, got %v", err)
	}
	clog.Abort(tr)
	m.Finish(sr, false)
	if err := commit(clog, m, t3, s3); err != nil {
		t.Fatalf("t3 commit: %v", err)
	}
}

// TestDoomedTxnFailsAtCommit covers the cluster-wide abort path.
func TestDoomedTxnFailsAtCommit(t *testing.T) {
	clog, m := newTestMgr()
	tx := clog.Begin()
	tx.SetDistID("1:100:1")
	st, _ := m.Register(tx)
	if !m.Doom("1:100:1") {
		t.Fatal("Doom should find the active dist txn")
	}
	if m.Doom("1:100:2") {
		t.Fatal("Doom of unknown dist id should report false")
	}
	if err := commit(clog, m, tx, st); !IsSerializationFailure(err) {
		t.Fatalf("doomed txn: want serialization failure, got %v", err)
	}
}

func TestGranularityPromotion(t *testing.T) {
	oldPage, oldTable := PromoteTuplesPerPage, PromoteLocksPerTable
	PromoteTuplesPerPage, PromoteLocksPerTable = 4, 6
	defer func() { PromoteTuplesPerPage, PromoteLocksPerTable = oldPage, oldTable }()

	clog, m := newTestMgr()
	_, st := begin(t, clog, m)
	// 4 tuple locks on page 0 → one page lock.
	for i := 0; i < 4; i++ {
		m.OnRead(st, TupleKey(1, int64(i), 0))
	}
	m.mu.Lock()
	if _, ok := st.locks[PageKey(1, 0)]; !ok {
		t.Fatalf("expected page lock after %d tuple locks, have %v", 4, st.locks)
	}
	if len(st.locks) != 1 {
		t.Fatalf("tuple locks should be absorbed, have %v", st.locks)
	}
	m.mu.Unlock()
	// Tuple reads on the promoted page are covered (no new locks).
	m.OnRead(st, TupleKey(1, 99, 0))
	m.mu.Lock()
	if len(st.locks) != 1 {
		t.Fatalf("covered read should not add locks, have %v", st.locks)
	}
	m.mu.Unlock()
	// Enough locks across pages → table lock absorbs everything.
	for p := int32(1); p <= 6; p++ {
		m.OnRead(st, PageKey(1, p))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := st.locks[TableKey(1)]; !ok {
		t.Fatalf("expected table lock, have %v", st.locks)
	}
	if len(st.locks) != 1 {
		t.Fatalf("finer locks should be absorbed by table lock, have %v", st.locks)
	}
}

// TestRetentionAndGC: a committed txn's locks are retained while a
// concurrent txn lives, and dropped once no overlapping snapshot remains.
func TestRetentionAndGC(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	t2, s2 := begin(t, clog, m) // concurrent with t1
	m.OnRead(s1, TupleKey(1, 1, 0))
	if err := commit(clog, m, t1, s1); err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	if txns, locks := m.Stats(); txns != 2 || locks != 1 {
		t.Fatalf("t1 must be retained while t2 lives: txns=%d locks=%d", txns, locks)
	}
	// t2's write must still see the retained lock.
	if err := m.OnWrite(s2, TupleKey(1, 1, 0)); err != nil {
		t.Fatalf("OnWrite: %v", err)
	}
	m.mu.Lock()
	if _, ok := s2.in[s1]; !ok {
		t.Fatal("retained committed reader should still produce an rw-edge")
	}
	m.mu.Unlock()
	if err := commit(clog, m, t2, s2); err != nil {
		t.Fatalf("t2 commit: %v", err)
	}
	// A txn that begins after both committed triggers GC of both.
	t3, s3 := begin(t, clog, m)
	if txns, locks := m.Stats(); txns != 1 || locks != 0 {
		t.Fatalf("retained states should drain: txns=%d locks=%d", txns, locks)
	}
	if err := commit(clog, m, t3, s3); err != nil {
		t.Fatalf("t3 commit: %v", err)
	}
	if txns, _ := m.Stats(); txns != 0 {
		t.Fatalf("all states should drain, have %d", txns)
	}
}

// TestNonConcurrentWriteSkipsRetainedReader: a reader that committed before
// the writer began must not generate an edge from its retained lock.
func TestNonConcurrentWriteSkipsRetainedReader(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	keep, skeep := begin(t, clog, m) // keeps t1 retained
	m.OnRead(s1, TupleKey(1, 1, 0))
	if err := commit(clog, m, t1, s1); err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	t2, s2 := begin(t, clog, m) // begins after t1 committed
	if err := m.OnWrite(s2, TupleKey(1, 1, 0)); err != nil {
		t.Fatalf("OnWrite: %v", err)
	}
	m.mu.Lock()
	if len(s2.in) != 0 {
		t.Fatal("non-concurrent retained reader must not produce an edge")
	}
	m.mu.Unlock()
	_ = commit(clog, m, t2, s2)
	_ = commit(clog, m, keep, skeep)
}

func TestAbortUnlinksEverything(t *testing.T) {
	clog, m := newTestMgr()
	t1, s1 := begin(t, clog, m)
	_, s2 := begin(t, clog, m)
	m.OnRead(s1, TupleKey(1, 1, 0))
	if err := m.OnWrite(s2, TupleKey(1, 1, 0)); err != nil {
		t.Fatalf("OnWrite: %v", err)
	}
	clog.Abort(t1)
	m.Finish(s1, false)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(s2.in) != 0 {
		t.Fatal("aborted reader must be unlinked from writer's in-set")
	}
	if _, ok := m.states[t1.VID]; ok {
		t.Fatal("aborted state must be dropped")
	}
}

func TestDistGraphPivot(t *testing.T) {
	// Worker 1 reports T2 → T1 (T1 committed); worker 2 reports T1 → T2.
	// Committing T2 now would complete the write-skew cycle.
	edges := []WireEdge{
		{From: "d2", To: "d1", ToCommitNs: 100},
		{From: "d1", To: "d2", FromCommitNs: 100},
	}
	g := BuildGraph(edges)
	if !g.DangerousPivot("d2") {
		t.Fatal("d2 must be a dangerous pivot (out-neighbor d1 committed)")
	}
	// Three-node version: in-neighbor committed strictly first → safe.
	g = BuildGraph([]WireEdge{
		{From: "r", To: "p", FromCommitNs: 50},
		{From: "p", To: "w", ToCommitNs: 100},
	})
	if g.DangerousPivot("p") {
		t.Fatal("in-neighbor committed strictly before out-neighbor: safe")
	}
	// In-neighbor uncommitted → dangerous.
	g = BuildGraph([]WireEdge{
		{From: "r", To: "p"},
		{From: "p", To: "w", ToCommitNs: 100},
	})
	if !g.DangerousPivot("p") {
		t.Fatal("uncommitted in-neighbor must make the pivot dangerous")
	}
	pivots := g.ActivePivots()
	if len(pivots) != 1 || pivots[0] != "p" {
		t.Fatalf("ActivePivots = %v, want [p]", pivots)
	}
}

func TestExportSkipsLocalAndAborted(t *testing.T) {
	clog, m := newTestMgr()
	td1 := clog.Begin()
	td1.SetDistID("d1")
	sd1, _ := m.Register(td1)
	td2 := clog.Begin()
	td2.SetDistID("d2")
	sd2, _ := m.Register(td2)
	tl, sl := begin(t, clog, m) // local-only txn

	k := TupleKey(1, 1, 0)
	m.OnRead(sd1, k)
	m.OnRead(sl, k)
	if err := m.OnWrite(sd2, k); err != nil {
		t.Fatalf("OnWrite: %v", err)
	}
	edges := m.Export()
	if len(edges) != 1 || edges[0].From != "d1" || edges[0].To != "d2" {
		t.Fatalf("Export = %+v, want single d1→d2 edge", edges)
	}
	if edges[0].FromCommitNs != 0 || edges[0].ToCommitNs != 0 {
		t.Fatalf("uncommitted endpoints must export 0 ns, got %+v", edges[0])
	}
	if err := commit(clog, m, td1, sd1); err != nil {
		t.Fatalf("d1 commit: %v", err)
	}
	edges = m.Export()
	if len(edges) != 1 || edges[0].FromCommitNs == 0 {
		t.Fatalf("committed reader must export its commit ns, got %+v", edges)
	}
	_ = tl
}
