package chaos

import (
	"strings"
	"testing"
	"time"

	"citusgo/internal/fault"
)

// crossKeys readies table with two keys on distinct workers and returns a
// crossover (k1 held by s1 wanted by s2, and vice versa) setup helper.
func crossKeys(t *testing.T, h *Harness, table string) (k1, k2 int64) {
	t.Helper()
	h.CreateTable(table)
	keys, _ := h.KeysOnDistinctWorkers(table, 2)
	h.SeedRows(table, keys)
	return keys[0], keys[1]
}

// TestDeadlockDetectedUnderLockGraphFaults injects delays on every
// lock-graph poll and drops the first few poll responses outright, then
// creates a genuine two-node distributed deadlock. The detector must
// survive the degraded polls and still cancel exactly one transaction
// (§3.7.3).
func TestDeadlockDetectedUnderLockGraphFaults(t *testing.T) {
	h := New(t, Options{DeadlockInterval: 40 * time.Millisecond})
	k1, k2 := crossKeys(t, h, "dlf")

	// Every poll is slowed; the first three are lost entirely (and take
	// their pooled connections with them).
	fault.Arm(fault.Rule{Point: fault.PointNodeCall, Key: "citus_node_wait_edges", Action: fault.ActDelay, Delay: 2 * time.Millisecond})
	fault.Arm(fault.Rule{Point: fault.PointNodeCall, Key: "citus_node_wait_edges", Action: fault.ActDropConn, Count: 3})

	s1 := h.C.Session()
	s2 := h.C.Session()
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("UPDATE dlf SET v = 1 WHERE k = $1", k1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE dlf SET v = 2 WHERE k = $1", k2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		_, err := s1.Exec("UPDATE dlf SET v = 1 WHERE k = $1", k2)
		done <- err
	}()
	go func() {
		_, err := s2.Exec("UPDATE dlf SET v = 2 WHERE k = $1", k1)
		done <- err
	}()
	failures := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				failures++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("deadlock not detected under lock-graph faults (seed %d)", h.Seed)
		}
	}
	if failures == 0 {
		t.Fatalf("expected the detector to cancel one transaction (seed %d)", h.Seed)
	}
	// the delay fires at every poll, so what fired beyond the polls is
	// the drops
	if drops := fault.Fired(fault.PointNodeCall) - fault.Hits(fault.PointNodeCall); drops != 3 {
		t.Fatalf("lock-graph drops fired %d times, want 3", drops)
	}
	s1.Exec("ROLLBACK")
	s2.Exec("ROLLBACK")
}

// TestNoFalseVictimWhenPollsDrop starves the detector of every remote
// lock-graph poll while two sessions hold real (non-cyclic) waits. A
// detector that treated "cannot read the graph" as grounds for
// cancellation would kill one of them; the correct behavior is to cancel
// nothing and let the blocked update finish once the lock holder commits.
func TestNoFalseVictimWhenPollsDrop(t *testing.T) {
	h := New(t, Options{}) // detector daemon off; polled manually
	k1, k2 := crossKeys(t, h, "dln")

	fault.Arm(fault.Rule{Point: fault.PointNodeCall, Key: "citus_node_wait_edges", Action: fault.ActDropConn})

	s1 := h.C.Session()
	s2 := h.C.Session()
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("UPDATE dln SET v = 1 WHERE k = $1", k1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE dln SET v = 2 WHERE k = $1", k2); err != nil {
		t.Fatal(err)
	}
	// s2 waits on s1's lock: an edge, but no cycle.
	blocked := make(chan error, 1)
	go func() {
		_, err := s2.Exec("UPDATE dln SET v = 2 WHERE k = $1", k1)
		blocked <- err
	}()
	for i := 0; i < 5; i++ {
		if victim := h.C.Coordinator().CheckDistributedDeadlock(); victim != "" {
			t.Fatalf("poll %d: cancelled %q with no cycle present (seed %d)", i, victim, h.Seed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fault.Fired(fault.PointNodeCall) == 0 {
		t.Fatal("lock-graph polls were expected to fail")
	}
	// Neither session was cancelled: s1 commits, unblocking s2.
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatalf("s1 commit: %v (seed %d)", err, h.Seed)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked update failed: %v (seed %d)", err, h.Seed)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("blocked update never resumed (seed %d)", h.Seed)
	}
	if _, err := s2.Exec("COMMIT"); err != nil {
		t.Fatalf("s2 commit: %v (seed %d)", err, h.Seed)
	}
}

// TestMoveOpenBlockDeadlock: a shard move blocking writes to a co-located
// group waits for an open block that wrote to one of its shards, while the
// block waits behind the move's exclusive lock on the other. The source's
// deadlock detector breaks the cycle within its interval by cancelling the
// younger side, the move: it fails retryably, placements as they were, and
// the block commits.
func TestMoveOpenBlockDeadlock(t *testing.T) {
	m := newMoveSetup(t, Options{})
	m.h.CreateTable("mw")
	k := m.onShard[0]
	m.h.MustExec("INSERT INTO mw (k, v) VALUES ($1, 0)", k)
	w := m.h.C.Session()
	for _, q := range []string{"BEGIN", "UPDATE mw SET v = 1 WHERE k = $1"} {
		if _, err := w.Exec(q, k); err != nil {
			t.Fatal(err)
		}
	}
	moved := m.start()
	// the move takes its lock on mv's shard, then waits for the block on mw's
	src := m.h.C.Engines[m.from-1]
	for deadline := time.Now().Add(5 * time.Second); len(src.LockGraph()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the move never waited for the open block")
		}
	}
	start := time.Now()
	if _, err := w.Exec("UPDATE mv SET v = 1 WHERE k = $1", k); err != nil {
		t.Fatalf("the block lost the deadlock: %v", err)
	}
	err := <-moved
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("move: %v, want it cancelled as the deadlock victim", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the cycle lasted %v under a 20ms detector", took)
	}
	if cur, _ := m.h.C.Meta.PrimaryPlacement(m.sh.ID); cur != m.from {
		t.Fatalf("the cancelled move left the group on %d", cur)
	}
	if _, err := w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	m.moved(m.h.C.Coordinator().MoveShardPlacement(m.h.S, m.sh.ID, m.from, m.to))
	if v := m.value("mv", k); v != 1 {
		t.Fatalf("v = %d after the retried move, want the block's 1", v)
	}
}
