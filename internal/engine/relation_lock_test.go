package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"citusgo/internal/heap"
	"citusgo/internal/types"
)

// async runs q on s and returns the channel its error arrives on.
func async(s *Session, q string) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := s.Exec(q)
		ch <- err
	}()
	return ch
}

// stillWaiting reports whether ch stays empty for a while: the statement
// behind it is blocked.
func stillWaiting(ch <-chan error) bool {
	select {
	case <-ch:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// wait returns the statement's error, failing the test when it does not end.
func wait(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("statement still blocked")
		return nil
	}
}

func openWriter(t *testing.T, e *Engine) *Session {
	t.Helper()
	mustExec(t, e.NewSession(), "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, e.NewSession(), "INSERT INTO r VALUES (1, 1)")
	a := e.NewSession()
	mustExec(t, a, "BEGIN")
	mustExec(t, a, "INSERT INTO r VALUES (2, 2)")
	return a
}

// TestTruncateWaitsForWriter: TRUNCATE waits for an open writer of the
// table, so the writer's committed row cannot vanish behind a TRUNCATE that
// had already returned — the serial order is the writer, then TRUNCATE.
func TestTruncateWaitsForWriter(t *testing.T) {
	e := newTestEngine(t)
	a := openWriter(t, e)
	ddl := async(e.NewSession(), "TRUNCATE r")
	if !stillWaiting(ddl) {
		t.Fatal("TRUNCATE returned while a writer of the table was open")
	}
	mustExec(t, a, "COMMIT")
	if err := wait(t, ddl); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e.NewSession(), "INSERT INTO r VALUES (3, 3)")
	if n := mustExec(t, e.NewSession(), "SELECT count(*) FROM r").Rows[0][0]; n != int64(1) {
		t.Fatalf("count(*) = %v after writer, TRUNCATE, insert: want 1", n)
	}
}

// TestDropTableWaitsForWriter: DROP TABLE waits for an open writer, whose
// COMMIT therefore lands in a table that still exists.
func TestDropTableWaitsForWriter(t *testing.T) {
	e := newTestEngine(t)
	a := openWriter(t, e)
	ddl := async(e.NewSession(), "DROP TABLE r")
	if !stillWaiting(ddl) {
		t.Fatal("DROP TABLE returned while a writer of the table was open")
	}
	mustExec(t, a, "COMMIT")
	if err := wait(t, ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession().Exec("SELECT count(*) FROM r"); err == nil {
		t.Fatal("the table outlived DROP TABLE")
	}
}

// TestAlterWaitsForWriter: ALTER TABLE … ADD COLUMN is ordered after an open
// writer: it waits, and the writer's row gets the new column as NULL.
func TestAlterWaitsForWriter(t *testing.T) {
	e := newTestEngine(t)
	a := openWriter(t, e)
	ddl := async(e.NewSession(), "ALTER TABLE r ADD COLUMN w bigint")
	if !stillWaiting(ddl) {
		t.Fatal("ALTER TABLE returned while a writer of the table was open")
	}
	mustExec(t, a, "INSERT INTO r VALUES (3, 3)") // the writer is not held up
	mustExec(t, a, "COMMIT")
	if err := wait(t, ddl); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e.NewSession(), "SELECT k, v, w FROM r ORDER BY k")
	if len(res.Rows) != 3 || res.Rows[2][2] != nil {
		t.Fatalf("rows after the ALTER: %v", res.Rows)
	}
}

// TestReaderNotBlockedByWaitingDDL: a DDL queued for the exclusive lock
// blocks later writers, never MVCC readers.
func TestReaderNotBlockedByWaitingDDL(t *testing.T) {
	e := newTestEngine(t)
	a := openWriter(t, e)
	ddl := async(e.NewSession(), "TRUNCATE r")
	if !stillWaiting(ddl) {
		t.Fatal("TRUNCATE did not wait")
	}
	read := async(e.NewSession(), "SELECT count(*) FROM r")
	if err := wait(t, read); err != nil {
		t.Fatal(err)
	}
	late := async(e.NewSession(), "INSERT INTO r VALUES (9, 9)")
	if !stillWaiting(late) {
		t.Fatal("a writer arriving behind the queued TRUNCATE went ahead of it")
	}
	mustExec(t, a, "COMMIT")
	if err := wait(t, ddl); err != nil {
		t.Fatal(err)
	}
	if err := wait(t, late); err != nil {
		t.Fatal(err)
	}
	if n := mustExec(t, e.NewSession(), "SELECT count(*) FROM r").Rows[0][0]; n != int64(1) {
		t.Fatalf("count(*) = %v, want the late insert alone", n)
	}
}

// TestWriterWokenByDropKeepsItsBlock: a write that waits for a DROP TABLE
// fails with ErrRelationGone, having done nothing, and its transaction block
// stays usable — what lets a coordinator plan the write again elsewhere.
func TestWriterWokenByDropKeepsItsBlock(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "CREATE TABLE other (k bigint PRIMARY KEY)")
	d := e.NewSession()
	mustExec(t, d, "BEGIN")
	mustExec(t, d, "TRUNCATE r") // holds the exclusive lock to the block's end
	w := e.NewSession()
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "INSERT INTO other VALUES (1)")
	write := async(w, "INSERT INTO r VALUES (1, 1)")
	if !stillWaiting(write) {
		t.Fatal("the write did not wait for the open TRUNCATE")
	}
	mustExec(t, d, "DROP TABLE r")
	mustExec(t, d, "COMMIT")
	if err := wait(t, write); !errors.Is(err, ErrRelationGone) {
		t.Fatalf("write woken by the drop: %v, want ErrRelationGone", err)
	}
	mustExec(t, w, "INSERT INTO other VALUES (2)")
	mustExec(t, w, "COMMIT")
	if n := mustExec(t, s, "SELECT count(*) FROM other").Rows[0][0]; n != int64(2) {
		t.Fatalf("the block lost its writes: %v rows", n)
	}
}

// TestDDLWriterDeadlock: a DDL holding one table's exclusive lock waits for a
// writer of a second table that waits for the first — a cycle the local
// detector breaks within its interval by cancelling the younger side.
func TestDDLWriterDeadlock(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r1 (k bigint PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE r2 (k bigint PRIMARY KEY)")
	ddl, writer := e.NewSession(), e.NewSession()
	mustExec(t, ddl, "BEGIN") // older
	mustExec(t, ddl, "TRUNCATE r1")
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "INSERT INTO r2 VALUES (1)")
	truncate := async(ddl, "TRUNCATE r2")
	if !stillWaiting(truncate) {
		t.Fatal("TRUNCATE r2 did not wait for its writer")
	}
	start := time.Now()
	write := async(writer, "INSERT INTO r1 VALUES (1)")
	err := wait(t, write)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("writer: %v, want the deadlock victim's error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the cycle lasted %v with a 20ms detector", took)
	}
	mustExec(t, writer, "ROLLBACK")
	if err := wait(t, truncate); err != nil {
		t.Fatal(err)
	}
	mustExec(t, ddl, "COMMIT")
}

// TestAdoptedPreparedHoldsItsLocks: a prepared transaction that a restart
// adopts from the log holds the locks it held before the crash. An UPDATE of
// a row it updated queues on the row lock — a waits-for edge the deadlock
// detectors see — instead of taking the free lock and then finding the
// version's deleter in progress, and a TRUNCATE of a table it inserted into
// waits for it. Both go on once the transaction is committed.
func TestAdoptedPreparedHoldsItsLocks(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "CREATE TABLE r2 (k bigint PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO r VALUES (1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE r SET v = v + 10 WHERE k = 1")
	mustExec(t, s, "INSERT INTO r2 VALUES (1)")
	mustExec(t, s, "PREPARE TRANSACTION 'p'")
	e.Crash()

	restarted := newTestEngine(t)
	if err := restarted.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	prepared := restarted.Txns.ListPrepared()
	if len(prepared) != 1 {
		t.Fatalf("prepared after the restart: %+v", prepared)
	}
	update := async(restarted.NewSession(), "UPDATE r SET v = v + 100 WHERE k = 1")
	queued := func() bool {
		for _, edge := range restarted.Locks.Edges() {
			if edge.Holder == prepared[0].VID {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !queued(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the UPDATE does not queue on the adopted transaction's row lock")
		}
	}
	truncate := async(restarted.NewSession(), "TRUNCATE r2")
	if !stillWaiting(truncate) {
		t.Fatal("TRUNCATE did not wait for the adopted prepared transaction")
	}
	mustExec(t, restarted.NewSession(), "COMMIT PREPARED 'p'")
	if err := wait(t, update); err != nil {
		t.Fatal(err)
	}
	if err := wait(t, truncate); err != nil {
		t.Fatal(err)
	}
	expectRows(t, mustExec(t, restarted.NewSession(), "SELECT v FROM r"), "111")
	expectRows(t, mustExec(t, restarted.NewSession(), "SELECT count(*) FROM r2"), "0")
}

// TestReplayLinksOnlyTheUpdatesOwnDelete: an update's insert record follows
// the version its own delete record removed, and nothing else. A transaction
// that deletes row 1 and then updates row 2, whose delete record matches no
// version (a dead-timeline stamp on a rejoined standby), must not chain row 1
// to row 2's new version: a writer waiting on row 1 would follow the chain
// and update row 2.
func TestReplayLinksOnlyTheUpdatesOwnDelete(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e.NewSession(), "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, e.NewSession(), "INSERT INTO r VALUES (1, 1)")
	const xid = 1 << 20
	target := e.ReplayTarget()
	for _, err := range []error{
		target.ApplyDelete(xid, "r", mustEncode(t, int64(1), int64(1))),
		target.ApplyDelete(xid, "r", mustEncode(t, int64(2), int64(2))),
		target.ApplyInsert(xid, "r", mustEncode(t, int64(2), int64(3)), true),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	store, _ := e.store("r")
	store.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
		if tup.Row()[0] == int64(1) && tup.Next != heap.NilTID {
			t.Errorf("row 1 (xmax %d) chains to %v, the version of row 2", tup.Xmax, tup.Next)
		}
		return true
	})
}

// TestReplayDeleteByKey: a replayed delete finds its tuple through the
// table's unique index and compares the image with that key's versions
// alone — 1 000 deletes and 3 000 updates replayed into a 10 000-row table
// examine a few tuples each, not the table — and lands on the live version of
// a row updated three times. A table without a unique index is walked, and
// comes out the same.
func TestReplayDeleteByKey(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE rk (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "CREATE TABLE nk (k bigint, v text)")
	rows := make([]types.Row, 10000)
	for i := range rows {
		rows[i] = types.Row{int64(i), fmt.Sprintf("v%d", i)}
	}
	for _, table := range []string{"rk", "nk"} {
		if _, err := s.CopyFrom(table, nil, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "DELETE FROM rk WHERE k % 10 = 0")
	for i := 0; i < 3; i++ {
		mustExec(t, s, "UPDATE rk SET v = v || 'x' WHERE k % 10 = 1")
	}
	mustExec(t, s, "DELETE FROM rk WHERE k % 10 = 1 AND k % 20 = 1")
	mustExec(t, s, "DELETE FROM nk WHERE k % 1000 = 0")
	const deletes = 1000 + 3*1000 + 500 + 10

	before := metReplayDeleteTuples.Value()
	r := newTestEngine(t)
	if err := r.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	examined := metReplayDeleteTuples.Value() - before
	// rk's deletes examine a key's versions, nk's 10 walk the table
	if walks := int64(10 * 10000); examined < deletes || examined > 4*deletes+walks {
		t.Fatalf("replaying %d deletes examined %d tuples", deletes, examined)
	}
	for _, q := range []string{
		"SELECT count(*), sum(k), sum(length(v)) FROM rk",
		"SELECT count(*), sum(k) FROM rk WHERE v LIKE '%xxx'",
		"SELECT count(*), sum(k) FROM nk",
	} {
		want := rowsToString(mustExec(t, s, q).Rows)
		if got := rowsToString(mustExec(t, r.NewSession(), q).Rows); got != want {
			t.Fatalf("%s: the replayed node answers\n%s\nthe primary\n%s", q, got, want)
		}
	}
}
