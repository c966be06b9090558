package chaos

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"citusgo/internal/fault"
)

// TestScheduleDropDuringPrepare loses a PREPARE TRANSACTION response on the
// wire: the worker has prepared, but the coordinator never learns it. No
// commit record is written, so the transaction must abort everywhere — the
// dangling prepared transaction is rolled back by recovery (§3.7.2).
func TestScheduleDropDuringPrepare(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("t1")
	keys, _ := h.KeysOnDistinctWorkers("t1", 2)
	h.SeedRows("t1", keys)

	s := h.C.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := s.Exec("UPDATE t1 SET v = $1 WHERE k = $2", int64(7), k); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	// From here until COMMIT returns, the only "query"-kind round trips are
	// the 2PC statements; the first one is PREPARE TRANSACTION on one of
	// the two participants.
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
	_, err := s.Exec("COMMIT")
	if err == nil {
		t.Fatalf("commit succeeded despite losing a prepare response (seed %d)", h.Seed)
	}
	if got := fault.Fired(fault.PointWireRecv); got != 1 {
		t.Fatalf("wire.recv fired %d times, want 1", got)
	}
	// The participant whose response was dropped holds a prepared
	// transaction the coordinator could not roll back inline (the
	// connection is gone).
	if got := h.DanglingPrepared(); got != 1 {
		t.Fatalf("dangling prepared = %d, want 1 (seed %d)", got, h.Seed)
	}
	fault.Disarm(fault.PointWireRecv)

	before := CounterSum("dtxn_recovery_resolved_total")
	if resolved := h.Quiesce(2 * time.Second); resolved != 1 {
		t.Fatalf("recovery resolved %d transactions, want 1 (seed %d)", resolved, h.Seed)
	}
	if delta := CounterSum("dtxn_recovery_resolved_total") - before; delta != 1 {
		t.Fatalf("dtxn_recovery_resolved_total advanced by %d, want 1", delta)
	}
	// No commit record ⇒ aborted everywhere: batch 7 is visible nowhere.
	if h.CheckAtomic("t1", keys, 7) {
		t.Fatalf("aborted transaction became visible (seed %d)", h.Seed)
	}
}

// TestScheduleCrashBeforeCommitRecord kills a participant while the
// coordinator is stopped at the commit-record write, then fails the write.
// No commit record ⇒ the transaction aborts everywhere, including on the
// crashed worker once it restarts from its WAL and recovery rolls back the
// re-adopted prepared transaction.
func TestScheduleCrashBeforeCommitRecord(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("t2")
	keys, nodeIDs := h.KeysOnDistinctWorkers("t2", 2)
	h.SeedRows("t2", keys)

	s := h.C.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := s.Exec("UPDATE t2 SET v = $1 WHERE k = $2", int64(8), k); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	arrived, release := fault.ArmGate(fault.Point2PCCommitRecord, "")
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec("COMMIT")
		done <- err
	}()
	<-arrived
	// Both participants are prepared; no commit record exists yet. A
	// checkpoint here cuts nothing the prepared transactions wrote: the
	// victim restarts from base + tail with its own still pending.
	h.C.Checkpoint()
	victim := nodeIDs[0] - 1 // engine index of the first participant
	if err := h.C.CrashWorker(victim); err != nil {
		t.Fatal(err)
	}
	release(fault.ErrInjected)
	if err := <-done; err == nil {
		t.Fatalf("commit succeeded despite failing before the commit record (seed %d)", h.Seed)
	}

	if err := h.C.RestartWorker(victim); err != nil {
		t.Fatal(err)
	}
	// The restarted worker re-adopted its prepared transaction from the WAL.
	if got := h.DanglingPrepared(); got != 1 {
		t.Fatalf("dangling prepared after restart = %d, want 1 (seed %d)", got, h.Seed)
	}
	if resolved := h.Quiesce(2 * time.Second); resolved != 1 {
		t.Fatalf("recovery resolved %d transactions, want 1 (seed %d)", resolved, h.Seed)
	}
	if h.CheckAtomic("t2", keys, 8) {
		t.Fatalf("transaction without a commit record became visible (seed %d)", h.Seed)
	}
	for i, v := range h.ValuesAt("t2", keys) {
		if v != 0 {
			t.Fatalf("key %d holds %d after abort, want 0 (seed %d)", keys[i], v, h.Seed)
		}
	}
}

// TestScheduleCrashAfterCommitRecord kills a participant after the commit
// record is durable, at the instant the coordinator is about to send it
// COMMIT PREPARED. The commit-record rule (§3.7.2) says this transaction IS
// committed: the client sees success, and after the worker restarts from
// its WAL, recovery must commit the re-adopted prepared transaction so the
// write becomes visible everywhere.
func TestScheduleCrashAfterCommitRecord(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("t3")
	keys, nodeIDs := h.KeysOnDistinctWorkers("t3", 2)
	h.SeedRows("t3", keys)

	s := h.C.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := s.Exec("UPDATE t3 SET v = $1 WHERE k = $2", int64(9), k); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	victimNode := nodeIDs[0]
	arrived, release := fault.ArmGate(fault.Point2PCCommit, strconv.Itoa(victimNode))
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec("COMMIT")
		done <- err
	}()
	<-arrived
	// The commit record is written and the local commit has happened: the
	// transaction's fate is sealed. Kill the participant before its
	// COMMIT PREPARED arrives.
	if err := h.C.CrashWorker(victimNode - 1); err != nil {
		t.Fatal(err)
	}
	release(nil)
	if err := <-done; err != nil {
		t.Fatalf("commit failed after records were written: %v (seed %d)", err, h.Seed)
	}

	if err := h.C.RestartWorker(victimNode - 1); err != nil {
		t.Fatal(err)
	}
	if got := h.DanglingPrepared(); got != 1 {
		t.Fatalf("dangling prepared after restart = %d, want 1 (seed %d)", got, h.Seed)
	}
	before := CounterSum("dtxn_recovery_resolved_total")
	if resolved := h.Quiesce(2 * time.Second); resolved != 1 {
		t.Fatalf("recovery resolved %d transactions, want 1 (seed %d)", resolved, h.Seed)
	}
	if delta := CounterSum("dtxn_recovery_resolved_total") - before; delta != 1 {
		t.Fatalf("dtxn_recovery_resolved_total advanced by %d, want 1", delta)
	}
	// Commit record ⇒ committed everywhere, crash notwithstanding.
	if !h.CheckAtomic("t3", keys, 9) {
		t.Fatalf("committed transaction not visible on every shard (seed %d)", h.Seed)
	}
}

// TestScheduleDeterministicUnderSeed runs the same probabilistic fault
// schedule twice with the same seed and expects bit-identical outcomes:
// the same statements fail, the same number of faults fire.
func TestScheduleDeterministicUnderSeed(t *testing.T) {
	run := func() (string, int64) {
		h := New(t, Options{Seed: 42})
		h.CreateTable("td")
		keys, _ := h.KeysOnDistinctWorkers("td", 2)
		h.SeedRows("td", keys)
		// Every remote round trip rolls the seeded RNG; the workload is a
		// single session issuing single-shard statements, so the roll
		// sequence is deterministic.
		fault.Arm(fault.Rule{Point: fault.PointWireSend, Action: fault.ActError, Prob: 0.3})
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			if _, err := h.S.Exec("UPDATE td SET v = $1 WHERE k = $2", int64(i), keys[i%2]); err != nil {
				sb.WriteByte('x')
			} else {
				sb.WriteByte('.')
			}
		}
		fired := fault.Fired(fault.PointWireSend)
		fault.Reset()
		return sb.String(), fired
	}
	v1, f1 := run()
	v2, f2 := run()
	if v1 != v2 || f1 != f2 {
		t.Fatalf("same seed, different runs:\n run1 %s (%d fired)\n run2 %s (%d fired)", v1, f1, v2, f2)
	}
	if !strings.Contains(v1, "x") || !strings.Contains(v1, ".") {
		t.Fatalf("expected a mix of failures and successes, got %s", v1)
	}
}
