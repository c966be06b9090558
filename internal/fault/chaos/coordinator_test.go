package chaos

import (
	"fmt"
	"testing"
	"time"

	"citusgo/internal/fault"
	"citusgo/internal/wal"
)

// crashCoordinatorMid2PC drives a two-participant transaction into an
// injected coordinator panic at the given 2PC seam, then crashes and
// restarts the coordinator process. The restarted coordinator replays its
// WAL (rebuilding the commit-record table) and its recovery must resolve
// every prepared transaction left dangling on the workers by the
// commit-record rule: records present ⇒ the batch becomes visible
// everywhere, absent ⇒ nowhere. Returns whether the batch survived.
func crashCoordinatorMid2PC(t *testing.T, point string, batch int64) bool {
	t.Helper()
	h := New(t, Options{RecoveryGrace: 20 * time.Millisecond})
	dumpArtifactOnFailure(t, h)
	table := fmt.Sprintf("cc%d", batch)
	h.CreateTable(table)
	keys, _ := h.KeysOnDistinctWorkers(table, 2)
	h.SeedRows(table, keys)

	s := h.C.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := s.Exec(fmt.Sprintf("UPDATE %s SET v = $1 WHERE k = $2", table), batch, k); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	// The coordinator process dies at the seam: the panic unwinds the
	// committing goroutine mid-2PC, exactly like a kill -9 between two
	// protocol steps. Both participants hold prepared transactions.
	fault.Arm(fault.Rule{Point: point, Action: fault.ActPanic, Count: 1})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("commit finished without hitting the %s panic (seed %d)", point, h.Seed)
			}
			if _, ok := r.(fault.InjectedPanic); !ok {
				panic(r) // a real bug, not the injected crash
			}
		}()
		_, _ = s.Exec("COMMIT")
	}()
	fault.Reset()
	// A checkpoint between the commit records and the crash: unresolved,
	// they hold the coordinator's log, and its restart still finds them.
	h.C.Checkpoint()
	if err := h.C.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}
	if got := h.DanglingPrepared(); got != 2 {
		t.Fatalf("dangling prepared after coordinator crash = %d, want 2 (seed %d)", got, h.Seed)
	}

	if err := h.C.RestartCoordinator(); err != nil {
		t.Fatalf("coordinator restart: %v (seed %d)", err, h.Seed)
	}
	// Sessions opened before the crash died with the process.
	h.S = h.C.Session()
	if resolved := h.Quiesce(5 * time.Second); resolved != 2 {
		t.Fatalf("recovery resolved %d transactions, want 2 (seed %d)", resolved, h.Seed)
	}
	return h.CheckAtomic(table, keys, batch)
}

// TestScheduleCoordinatorCrashBeforeCommitRecord kills the coordinator at
// the commit-record write: nothing became durable, so after restart the
// recovery daemon must roll back both prepared participants and the batch
// is visible nowhere.
func TestScheduleCoordinatorCrashBeforeCommitRecord(t *testing.T) {
	if crashCoordinatorMid2PC(t, fault.Point2PCCommitRecord, 11) {
		t.Fatal("transaction without a commit record became visible after coordinator restart")
	}
}

// TestScheduleCoordinatorCrashAfterCommitRecord kills the coordinator after
// the commit records are in its WAL but before any COMMIT PREPARED went
// out. The transaction IS committed by the commit-record rule: the
// restarted coordinator rebuilds the records from its replayed WAL and
// recovery commits both prepared participants.
func TestScheduleCoordinatorCrashAfterCommitRecord(t *testing.T) {
	if !crashCoordinatorMid2PC(t, fault.Point2PCCommit, 12) {
		t.Fatal("committed transaction not visible after coordinator restart and recovery")
	}
}

// TestRestartedCoordinatorForgetsResolvedCommitRecords: a coordinator's log
// is cut below its oldest unresolved commit record, so a restart reads back
// that record and the ones above it — not every record ever written — and
// the first recovery passes drop those with nothing left prepared anywhere.
func TestRestartedCoordinatorForgetsResolvedCommitRecords(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("cr")
	keys, _ := h.KeysOnDistinctWorkers("cr", 2)
	h.SeedRows("cr", keys)
	// the transaction left unresolved keeps its row locks: rows of its own
	h.CreateTable("cr_stuck")
	stuck, _ := h.KeysOnDistinctWorkers("cr_stuck", 2)
	h.SeedRows("cr_stuck", stuck)
	s := h.C.Session()
	const txns, unresolved = 20, 10
	for i := 1; i <= txns; i++ {
		table, rows := "cr", keys
		if i == unresolved {
			// COMMIT PREPARED reaches nobody: the client sees success, both
			// participants stay prepared, both commit records stay
			fault.Arm(fault.Rule{Point: fault.Point2PCCommit, Action: fault.ActError})
			table, rows = "cr_stuck", stuck
		}
		if err := h.UpdateAll(s, table, rows, int64(i)); err != nil {
			t.Fatalf("batch %d: %v (seed %d)", i, err, h.Seed)
		}
		fault.Reset()
	}
	if got := h.C.Coordinator().CommitRecords(); len(got) != 2 {
		t.Fatalf("the coordinator holds commit records %v, want the unresolved transaction's two (seed %d)", got, h.Seed)
	}
	coord := h.C.Engines[0]
	if !coord.Checkpoint() {
		t.Fatal("coordinator refused to checkpoint")
	}
	var held int
	for _, rec := range coord.WAL.Records() {
		if rec.Type == wal.RecCommitRecord {
			held++
		}
	}
	// the unresolved transaction's two, and those of the transactions after it
	if want := 2 * (txns - unresolved + 1); held != want || coord.WAL.FirstLSN() == 1 {
		t.Fatalf("the log holds %d commit records from LSN %d on, want %d of the %d written (seed %d)",
			held, coord.WAL.FirstLSN(), want, 2*txns, h.Seed)
	}

	if err := h.C.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := h.C.RestartCoordinator(); err != nil {
		t.Fatalf("coordinator restart: %v (seed %d)", err, h.Seed)
	}
	h.S = h.C.Session()
	if got := h.C.Coordinator().CommitRecords(); len(got) != held {
		t.Fatalf("the restarted coordinator read back %d commit records, want the %d its log held (seed %d)", len(got), held, h.Seed)
	}
	if resolved := h.Quiesce(5 * time.Second); resolved != 2 {
		t.Fatalf("recovery resolved %d transactions, want 2 (seed %d)", resolved, h.Seed)
	}
	h.C.Coordinator().RecoverTwoPhaseCommits() // a pass that finds nothing prepared drops the rest
	if got := h.C.Coordinator().CommitRecords(); len(got) != 0 {
		t.Fatalf("commit records %v still held with nothing prepared anywhere (seed %d)", got, h.Seed)
	}
	if !h.CheckAtomic("cr", keys, txns) || !h.CheckAtomic("cr_stuck", stuck, unresolved) {
		t.Fatalf("rows are not at their last batches after recovery (seed %d)", h.Seed)
	}
	if h.C.Engines[0].Checkpoint(); h.C.Engines[0].WAL.Len() != 0 {
		t.Fatalf("the coordinator's log still holds %d records at rest (seed %d)", h.C.Engines[0].WAL.Len(), h.Seed)
	}
}
