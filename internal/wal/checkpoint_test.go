package wal

import (
	"sync"
	"testing"
	"time"
)

// appendCommitted appends one committed single-insert transaction and
// returns the LSN of its commit record.
func appendCommitted(l *Log, xid uint64, k int64) int64 {
	l.Append(Record{Type: RecInsert, XID: xid, Table: "t", Tuple: tuple(k)})
	return l.Append(Record{Type: RecCommit, XID: xid})
}

// baseAt is the base a checkpoint with nothing in progress would build at
// the log's tip.
func baseAt(l *Log, xmax uint64) *Base {
	at, _ := l.BeginCheckpoint()
	return &Base{Redo: at, At: at, Xmax: xmax}
}

func TestCheckpointCutsBelowRedo(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		appendCommitted(l, uint64(10+i), int64(i))
	}
	if !l.Checkpoint(baseAt(l, 20)) {
		t.Fatal("checkpoint refused")
	}
	if l.Len() != 0 || l.FirstLSN() != 21 || l.LastLSN() != 20 {
		t.Fatalf("after cut: len %d first %d last %d", l.Len(), l.FirstLSN(), l.LastLSN())
	}
	lsn := appendCommitted(l, 30, 99)
	if lsn != 22 {
		t.Fatalf("LSNs restarted: %d", lsn)
	}
	if _, err := l.Since(5); err == nil {
		t.Fatal("Since below the base must fail")
	}
	recs, err := l.Since(20)
	if err != nil || len(recs) != 2 || recs[0].LSN != 21 {
		t.Fatalf("Since(20) = %v, %v", recs, err)
	}
	if _, err := l.HoldAt("test", 3); err == nil {
		t.Fatal("HoldAt below the base must fail")
	}
}

func TestCheckpointRedoFollowsOpenTransactions(t *testing.T) {
	l := New()
	appendCommitted(l, 10, 1)
	first := l.Append(Record{Type: RecInsert, XID: 11, Table: "t", Tuple: tuple(int64(2))}) // stays open
	appendCommitted(l, 12, 3)
	at, open := l.BeginCheckpoint()
	if open[11] != first || len(open) != 1 {
		t.Fatalf("open = %v, want only 11 at %d", open, first)
	}
	l.Checkpoint(&Base{Redo: open[11], At: at, Xmax: 13, InProgress: []uint64{11}})
	if l.FirstLSN() != first {
		t.Fatalf("cut to %d, want the open transaction's first record %d", l.FirstLSN(), first)
	}
	// replay: 11's record is there, 12's is skipped (the image has it)
	l.Append(Record{Type: RecCommit, XID: 11})
	l.Seal()
	a := newMemApplier()
	if err := l.RecoverInto(New(), a, 0); err != nil {
		t.Fatal(err)
	}
	if rows := a.tables["t"]; len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Fatalf("replayed %v, want only transaction 11's row", rows)
	}
}

func TestHoldersKeepRecords(t *testing.T) {
	l := New()
	appendCommitted(l, 10, 1)
	s := l.StreamFrom(0)
	next := func() {
		rec, ok := s.Next(time.Second)
		if !ok {
			t.Fatal("stream delivered nothing")
		}
		s.Ack(rec.LSN)
	}
	next()
	next()
	hold := l.Hold("shard_move") // from LSN 3 on
	appendCommitted(l, 11, 2)
	appendCommitted(l, 12, 3)
	l.Checkpoint(baseAt(l, 13))
	if l.FirstLSN() != 3 {
		t.Fatalf("cut to %d: the stream has acked 2, the move holds 3", l.FirstLSN())
	}
	next()
	appendCommitted(l, 13, 4)
	l.Checkpoint(baseAt(l, 14))
	if l.FirstLSN() != 3 {
		t.Fatalf("cut to %d under the move's hold at 3", l.FirstLSN())
	}
	hold.Release()
	appendCommitted(l, 14, 5)
	l.Checkpoint(baseAt(l, 15))
	if l.FirstLSN() != 4 {
		t.Fatalf("cut to %d, the stream has acked 3", l.FirstLSN())
	}
	// the stream reads on across both cuts, in order
	for want := int64(4); want <= 10; want++ {
		rec, ok := s.Next(time.Second)
		if !ok || rec.LSN != want {
			t.Fatalf("stream delivered %d (%v), want %d", rec.LSN, ok, want)
		}
		s.Ack(rec.LSN)
	}
	s.Close()
	appendCommitted(l, 15, 6)
	l.Checkpoint(baseAt(l, 16))
	if l.Len() != 0 {
		t.Fatalf("%d records held with no holder left", l.Len())
	}
	if behind := l.StreamFrom(2); !behind.Behind() || !behind.Done() {
		t.Fatal("a stream opened below the base must report Behind")
	}
}

// TestRestorePointKeepsItsBase: a restore point keeps the base that was under
// the log when it was made and the records from that base's redo point on;
// newer bases go under the log all the same, a restore to the point loads the
// kept one, and once the point has left the ring the log is cut again.
func TestRestorePointKeepsItsBase(t *testing.T) {
	l := New()
	appendCommitted(l, 10, 1)
	older := baseAt(l, 11)
	l.Checkpoint(older) // cuts LSN 1-2
	appendCommitted(l, 11, 2)
	rp := l.RestorePoint("keep")
	appendCommitted(l, 12, 3)
	newer := baseAt(l, 13)
	if !l.Checkpoint(newer) || l.Base() != newer {
		t.Fatal("a base taken after a kept restore point was not installed")
	}
	if l.FirstLSN() != older.Redo {
		t.Fatalf("log starts at %d, the kept point restores from %d", l.FirstLSN(), older.Redo)
	}
	a, dst := newMemApplier(), New()
	if err := l.RecoverInto(dst, a, rp); err != nil {
		t.Fatal(err)
	}
	if a.base != older || dst.Base() != older {
		t.Fatal("the restore loaded a base taken after the point")
	}
	if rows := a.tables["t"]; len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Fatalf("restore to the point replayed %v, want only the row between base and point", rows)
	}
	// the restored log keeps the point restorable in its turn
	if lsn, err := dst.FindRestorePoint("keep"); err != nil || lsn != rp {
		t.Fatalf("restored log: point at %d, %v", lsn, err)
	}
	dst.Checkpoint(baseAt(dst, 13))
	if err := dst.RecoverInto(New(), newMemApplier(), rp); err != nil {
		t.Fatalf("second restore, from the restored log: %v", err)
	}

	// a restart carries the point and its base over too
	a, dst = newMemApplier(), New()
	if err := l.RecoverInto(dst, a, 0); err != nil || a.base != newer {
		t.Fatalf("recovery to the tip: %v, base %p want %p", err, a.base, newer)
	}
	a = newMemApplier()
	if err := dst.RecoverInto(New(), a, rp); err != nil || a.base != older {
		t.Fatalf("restore from the restarted log: %v, base %p want %p", err, a.base, older)
	}

	// RestorePointsKept newer points push "keep" out, each keeping `newer`
	for i := 0; i < RestorePointsKept; i++ {
		l.RestorePoint("newer")
	}
	if _, err := l.FindRestorePoint("keep"); err == nil {
		t.Fatalf("restore point still kept after %d newer ones", RestorePointsKept)
	}
	l.Checkpoint(baseAt(l, 13))
	if l.FirstLSN() != newer.Redo {
		t.Fatalf("log starts at %d with %d restore points made; the kept ones restore from %d",
			l.FirstLSN(), RestorePointsKept+1, newer.Redo)
	}
}

// TestRestorePointDuringCheckpoint: a restore point, and a commit after it,
// that land while a checkpoint is building its image. The image holds the
// commit; the point must not restore from it.
func TestRestorePointDuringCheckpoint(t *testing.T) {
	l := New()
	appendCommitted(l, 10, 1)
	at, _ := l.BeginCheckpoint()
	rp := l.RestorePoint("mid")
	appendCommitted(l, 11, 2) // the snapshot, taken after this, sees it committed
	l.Checkpoint(&Base{Redo: at, At: at, Xmax: 12})
	if l.FirstLSN() != 1 {
		t.Fatalf("log cut to %d: the point was made with no base under the log", l.FirstLSN())
	}
	a := newMemApplier()
	if err := l.RecoverInto(New(), a, rp); err != nil {
		t.Fatal(err)
	}
	if a.base != nil {
		t.Fatal("the restore loaded the image that was being built when the point was made")
	}
	if rows := a.tables["t"]; len(rows) != 1 || rows[0][0].(int64) != 1 {
		t.Fatalf("restore to the point replayed %v, want only the row before it", rows)
	}
}

func TestRecoverIntoContinuesTheLog(t *testing.T) {
	l := New()
	appendCommitted(l, 10, 1)
	l.Checkpoint(baseAt(l, 11))
	appendCommitted(l, 11, 2)
	l.Append(Record{Type: RecInsert, XID: 12, Table: "t", Tuple: tuple(int64(3))}) // in flight
	l.Seal()

	dst := New()
	a := newMemApplier()
	if err := l.RecoverInto(dst, a, 0); err != nil {
		t.Fatal(err)
	}
	if dst.Base() != l.Base() || dst.FirstLSN() != l.FirstLSN() || dst.LastLSN() != l.LastLSN() {
		t.Fatalf("dst = base %p [%d,%d], want %p [%d,%d]", dst.Base(), dst.FirstLSN(), dst.LastLSN(),
			l.Base(), l.FirstLSN(), l.LastLSN())
	}
	if lsn := dst.Append(Record{Type: RecAbort, XID: 12}); lsn != l.LastLSN()+1 {
		t.Fatalf("dst continues at %d, want %d", lsn, l.LastLSN()+1)
	}
	if _, open := dst.BeginCheckpoint(); len(open) != 0 {
		t.Fatalf("open after the abort record: %v", open)
	}
}

func TestRecoverIntoSkipsWhatTheImageReflects(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecDDL, Name: "CREATE TABLE t"})
	// 10 is in progress across the checkpoint; it wrote to t before t was
	// truncated, and after
	redo := l.Append(Record{Type: RecInsert, XID: 10, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecDDL, Name: "TRUNCATE t", Table: "t"})
	l.Append(Record{Type: RecInsert, XID: 10, Table: "t", Tuple: tuple(int64(2))})
	appendCommitted(l, 11, 3) // ended before the snapshot
	at, _ := l.BeginCheckpoint()
	l.Checkpoint(&Base{Redo: redo, At: at, Xmax: 12, InProgress: []uint64{10}})
	l.Append(Record{Type: RecDDL, Name: "CREATE INDEX i ON t"})
	l.Append(Record{Type: RecCommit, XID: 10})
	l.Seal()

	a := &ddlApplier{memApplier: newMemApplier()}
	if err := l.RecoverInto(New(), a, 0); err != nil {
		t.Fatal(err)
	}
	if rows := a.tables["t"]; len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Fatalf("replayed rows %v, want only the one written after the TRUNCATE", rows)
	}
	if len(a.ddl) != 1 || a.ddl[0] != "CREATE INDEX i ON t" {
		t.Fatalf("replayed DDL %v, want only the statement above the base", a.ddl)
	}
}

type ddlApplier struct {
	*memApplier
	ddl []string
}

func (d *ddlApplier) ApplyDDL(ddl string) error { d.ddl = append(d.ddl, ddl); return nil }

// TestAppendWakesNoOne: with no stream parked in Next, an append costs no
// allocation for the wake-up (it used to close and re-make a channel per
// record).
func TestAppendWakesNoOne(t *testing.T) {
	l := New()
	s := l.StreamFrom(0)
	defer s.Close()
	appendCommitted(l, 10, 1)
	if _, ok := s.Next(time.Second); !ok {
		t.Fatal("no record")
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Append(Record{Type: RecCommit, XID: 9})
	})
	if allocs > 1 { // the record slice growing, amortized
		t.Fatalf("%.1f allocations per append", allocs)
	}
}

func TestCheckpointDue(t *testing.T) {
	l := New()
	for i := 0; i < CheckpointEvery-1; i++ {
		l.Append(Record{Type: RecCommit, XID: 9})
	}
	select {
	case <-l.CheckpointDue():
		t.Fatal("due one record early")
	default:
	}
	l.Append(Record{Type: RecCommit, XID: 9})
	select {
	case <-l.CheckpointDue():
	default:
		t.Fatal("not woken at CheckpointEvery records")
	}
	if !l.Due() {
		t.Fatal("Due() false")
	}
	l.Checkpoint(baseAt(l, 10))
	if l.Due() || l.Len() != 0 {
		t.Fatalf("after the checkpoint: due %v, %d records", l.Due(), l.Len())
	}
}

// TestStreamAcrossConcurrentCheckpoints: writers append, a checkpointer cuts
// the log as fast as it can, and a stream that acks what it reads still sees
// every record exactly once, in order — its ack is what the cuts stop at.
func TestStreamAcrossConcurrentCheckpoints(t *testing.T) {
	l := New()
	const writers, perWriter = 4, 500
	s := l.StreamFrom(0)
	done := make(chan struct{})
	checkpointed := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				checkpointed <- n
				return
			default:
				at, _ := l.BeginCheckpoint()
				if l.Checkpoint(&Base{Redo: at, At: at}) {
					n++
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				appendCommitted(l, uint64(1000*w+i+10), int64(i))
			}
		}(w)
	}
	for want := int64(1); want <= 2*writers*perWriter; want++ {
		var rec Record
		for ok := false; !ok; {
			// a Next that returns early with no record was woken by a new
			// base; one that waits its full timeout missed a wake-up
			start := time.Now()
			rec, ok = s.Next(5 * time.Second)
			if !ok && (s.Done() || time.Since(start) >= 5*time.Second) {
				t.Fatalf("no record at LSN %d within 5 s", want)
			}
		}
		if rec.LSN != want {
			t.Fatalf("stream delivered LSN %d, want %d", rec.LSN, want)
		}
		s.Ack(rec.LSN)
	}
	wg.Wait()
	close(done)
	if n := <-checkpointed; n == 0 {
		t.Fatal("no checkpoint ran")
	}
	s.Close()
	l.Checkpoint(baseAt(l, 1))
	if l.Len() != 0 {
		t.Fatalf("%d records held after the stream closed", l.Len())
	}
}
