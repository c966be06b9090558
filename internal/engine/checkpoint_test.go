package engine

import (
	"testing"
	"time"

	"citusgo/internal/obs"
	"citusgo/internal/wal"
)

// TestRestartReplaysOnlyTheTail: 50 000 single-row updates of a 1 000-row
// table write 150 000 records; with the maintenance pass checkpointing every
// wal.CheckpointEvery of them, the log ends holding fewer than that and a
// restart reads back fewer than that — not the 150 000 — to the same rows.
func TestRestartReplaysOnlyTheTail(t *testing.T) {
	e := New(Config{Name: "restart", AutoVacuumInterval: 10 * time.Millisecond})
	defer e.Close()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE acct (k bigint PRIMARY KEY, v bigint)")
	for k := 0; k < 1000; k++ {
		mustExec(t, s, "INSERT INTO acct (k, v) VALUES ($1, 0)", int64(k))
	}
	const updates = 50_000
	for i := 0; i < updates; i++ {
		mustExec(t, s, "UPDATE acct SET v = v + 1 WHERE k = $1", int64(i*7919%1000))
	}
	if last := e.WAL.LastLSN(); last < 3*updates {
		t.Fatalf("the schedule wrote %d records, want at least %d", last, 3*updates)
	}
	for deadline := time.Now().Add(5 * time.Second); e.WAL.Due(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the maintenance pass never took the checkpoint the log is due")
		}
	}
	if held := e.WAL.Len(); held >= wal.CheckpointEvery {
		t.Fatalf("the log holds %d records at rest, want fewer than %d", held, wal.CheckpointEvery)
	}
	want := mustExec(t, s, "SELECT count(*), sum(v), min(v), max(v) FROM acct").Rows[0]

	e.Crash()
	e.WAL.Seal()
	replayed := obs.Default().Snapshot().Get("wal_records_replayed_total")
	e2 := newTestEngine(t)
	if err := e2.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	replayed = obs.Default().Snapshot().Get("wal_records_replayed_total") - replayed
	if replayed >= wal.CheckpointEvery {
		t.Fatalf("the restart replayed %d records, want fewer than %d", replayed, wal.CheckpointEvery)
	}
	s2 := e2.NewSession()
	got := mustExec(t, s2, "SELECT count(*), sum(v), min(v), max(v) FROM acct").Rows[0]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after the restart: %v, want %v", got, want)
		}
	}
	// the new incarnation's log carries the history on
	if e2.WAL.LastLSN() != e.WAL.LastLSN() || e2.WAL.Base() != e.WAL.Base() {
		t.Fatalf("recovered log ends at %d on base %p, want %d on %p",
			e2.WAL.LastLSN(), e2.WAL.Base(), e.WAL.LastLSN(), e.WAL.Base())
	}
	mustExec(t, s2, "UPDATE acct SET v = v + 1 WHERE k = 1")
}

// TestCheckpointWalkSparesTheBufferPool: building an image visits every
// tuple of every table and charges the buffer pool nothing.
func TestCheckpointWalkSparesTheBufferPool(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE big (k bigint PRIMARY KEY, v bigint)")
	for k := 0; k < 500; k++ {
		mustExec(t, s, "INSERT INTO big (k, v) VALUES ($1, 0)", int64(k))
	}
	hits, misses := e.Pool.Stats()
	if !e.Checkpoint() {
		t.Fatal("checkpoint refused")
	}
	if h, m := e.Pool.Stats(); h != hits || m != misses {
		t.Fatalf("the image walk touched the buffer pool: hits %d -> %d, misses %d -> %d", hits, h, misses, m)
	}
	if e.WAL.Len() != 0 {
		t.Fatalf("%d records held after a checkpoint at rest", e.WAL.Len())
	}
}

// TestRestartGivesOutNoDeadXID: a transaction the crash caught open — the
// newest XID in the log, its records without an outcome — is aborted by the
// restart, and its XID is never handed out again. Otherwise the restarted
// node's next transaction took the same XID, and once it committed, a second
// restart read the dead transaction's update as committed by it.
func TestRestartGivesOutNoDeadXID(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO r VALUES (1, 9), (2, 0)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE r SET v = 10 WHERE k = 1")
	e.Crash()
	e.WAL.Seal()

	e2 := newTestEngine(t)
	if err := e2.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e2.NewSession(), "UPDATE r SET v = 1 WHERE k = 2")
	e2.Crash()
	e2.WAL.Seal()

	e3 := newTestEngine(t)
	if err := e3.RecoverFrom(e2.WAL, 0); err != nil {
		t.Fatal(err)
	}
	expectRows(t, mustExec(t, e3.NewSession(), "SELECT k, v FROM r ORDER BY k"), "1|9\n2|1")
}
