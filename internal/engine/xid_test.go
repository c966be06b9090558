package engine

import (
	"testing"

	"citusgo/internal/obs"
)

// xidsAssigned reads txn_xids_assigned_total for the engine's node.
func xidsAssigned(e *Engine) int64 {
	return obs.Default().Snapshot().Get(`txn_xids_assigned_total{node="` + e.Name + `"}`)
}

// TestReadOnlyTakesNoXID: reads, in autocommit and in a block, take no XID,
// write no WAL and leave the commit log as it was; the first write of a
// block takes one XID and a second write the same one.
func TestReadOnlyTakesNoXID(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE ro (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO ro VALUES (1, 10), (2, 20)")

	xids, lsn, clog := xidsAssigned(e), e.WAL.LastLSN(), e.Txns.ClogBytes()
	for i := 0; i < 100; i++ {
		mustExec(t, s, "SELECT v FROM ro WHERE k = 1")
		mustExec(t, s, "SELECT count(*) FROM ro")
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT v FROM ro WHERE k = 2")
	if x := s.Txn().XID(); x != 0 {
		t.Fatalf("a block that has only read holds XID %d", x)
	}
	mustExec(t, s, "COMMIT")
	if got := xidsAssigned(e) - xids; got != 0 {
		t.Fatalf("reads took %d XIDs", got)
	}
	if got := e.WAL.LastLSN(); got != lsn {
		t.Fatalf("reads moved the log from LSN %d to %d", lsn, got)
	}
	if got := e.Txns.ClogBytes(); got != clog {
		t.Fatalf("reads grew the commit log from %d to %d bytes", clog, got)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT v FROM ro WHERE k = 1")
	mustExec(t, s, "UPDATE ro SET v = 11 WHERE k = 1")
	first := s.Txn().XID()
	mustExec(t, s, "UPDATE ro SET v = 21 WHERE k = 2")
	if first == 0 || s.Txn().XID() != first {
		t.Fatalf("the block's writes took XIDs %d and %d, want one", first, s.Txn().XID())
	}
	// the block's statements see its own writes, the first of them taken
	// after the block's first snapshot
	expectRows(t, mustExec(t, s, "SELECT v FROM ro ORDER BY k"), "11\n21")
	mustExec(t, s, "COMMIT")
	if got := xidsAssigned(e) - xids; got != 1 {
		t.Fatalf("a block of two updates took %d XIDs, want 1", got)
	}

	// under REPEATABLE READ every statement runs under the block's first
	// snapshot, taken before the block had an XID: it still shows the block
	// its own writes
	mustExec(t, s, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	mustExec(t, s, "BEGIN")
	expectRows(t, mustExec(t, s, "SELECT v FROM ro WHERE k = 1"), "11")
	mustExec(t, s, "UPDATE ro SET v = 12 WHERE k = 1")
	expectRows(t, mustExec(t, s, "SELECT v FROM ro ORDER BY k"), "12\n21")
	mustExec(t, s, "COMMIT")
}

// TestReaderWithoutXIDHoldsVacuum: a REPEATABLE READ block that has only
// read has no XID, yet its snapshot keeps the version it read from vacuum
// (through its session's slot) until it ends.
func TestReaderWithoutXIDHoldsVacuum(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE hv (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "INSERT INTO hv VALUES (1, 'old')")

	reader := e.NewSession()
	mustExec(t, reader, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	mustExec(t, reader, "BEGIN")
	expectRows(t, mustExec(t, reader, "SELECT v FROM hv WHERE k = 1"), "old")

	mustExec(t, s, "UPDATE hv SET v = 'new' WHERE k = 1")
	if n := e.Vacuum("hv"); n != 0 {
		t.Fatalf("vacuum reclaimed %d versions an open snapshot still sees", n)
	}
	expectRows(t, mustExec(t, reader, "SELECT v FROM hv WHERE k = 1"), "old")
	expectRows(t, mustExec(t, reader, "SELECT v FROM hv"), "old")
	if x := reader.Txn().XID(); x != 0 {
		t.Fatalf("the reading block holds XID %d", x)
	}
	mustExec(t, reader, "COMMIT")

	if n := e.Vacuum("hv"); n != 1 {
		t.Fatalf("vacuum after the reader ended reclaimed %d versions, want 1", n)
	}
	expectRows(t, mustExec(t, reader, "SELECT v FROM hv WHERE k = 1"), "new")
}
