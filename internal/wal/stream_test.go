package wal

import (
	"sync"
	"testing"
	"time"
)

func TestStreamDeliversInOrder(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: RecInsert, XID: uint64(i), Table: "t", Tuple: tuple(int64(i))})
	}
	s := l.StreamFrom(0)
	defer s.Close()
	for i := 0; i < 5; i++ {
		rec, ok := s.Next(time.Second)
		if !ok {
			t.Fatalf("record %d: stream ended early", i)
		}
		if rec.LSN != int64(i+1) || rec.XID != uint64(i) {
			t.Fatalf("record %d: got LSN %d XID %d", i, rec.LSN, rec.XID)
		}
	}
	if _, ok := s.Next(10 * time.Millisecond); ok {
		t.Fatal("drained stream delivered a record")
	}
	if s.Done() {
		t.Fatal("unsealed log reported Done")
	}
}

func TestStreamFromMidLog(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: RecInsert, XID: uint64(i), Table: "t"})
	}
	s := l.StreamFrom(7)
	defer s.Close()
	rec, ok := s.Next(time.Second)
	if !ok || rec.LSN != 8 {
		t.Fatalf("first record after LSN 7: got %d ok=%v", rec.LSN, ok)
	}
}

func TestStreamWakesOnAppend(t *testing.T) {
	l := New()
	s := l.StreamFrom(0)
	defer s.Close()
	got := make(chan Record, 1)
	go func() {
		rec, ok := s.Next(5 * time.Second)
		if ok {
			got <- rec
		}
		close(got)
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block
	l.Append(Record{Type: RecCommit, XID: 42})
	select {
	case rec, ok := <-got:
		if !ok || rec.XID != 42 {
			t.Fatalf("woken reader got %+v ok=%v", rec, ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Next never woke on Append")
	}
}

func TestStreamDrainsSealedLogToTip(t *testing.T) {
	l := New()
	for i := 0; i < 3; i++ {
		l.Append(Record{Type: RecInsert, XID: uint64(i), Table: "t"})
	}
	l.Seal()
	s := l.StreamFrom(0)
	defer s.Close()
	n := 0
	for {
		rec, ok := s.Next(100 * time.Millisecond)
		if !ok {
			break
		}
		n++
		s.Ack(rec.LSN)
	}
	if n != 3 {
		t.Fatalf("drained %d records from sealed log, want 3", n)
	}
	if !s.Done() {
		t.Fatal("drained sealed stream not Done")
	}
	if s.AckedLSN() != l.LastLSN() {
		t.Fatalf("acked %d, tip %d", s.AckedLSN(), l.LastLSN())
	}
}

func TestSealWakesBlockedStream(t *testing.T) {
	l := New()
	s := l.StreamFrom(0)
	defer s.Close()
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next(5 * time.Second)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	l.Seal()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("sealed empty log delivered a record")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Seal did not wake blocked Next")
	}
	if !s.Done() {
		t.Fatal("stream on sealed empty log not Done")
	}
}

func TestStreamCloseUnblocksNext(t *testing.T) {
	l := New()
	s := l.StreamFrom(0)
	done := make(chan struct{})
	go func() {
		s.Next(5 * time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Next")
	}
}

func TestStreamAckMonotonicAndLag(t *testing.T) {
	l := New()
	for i := 0; i < 4; i++ {
		l.Append(Record{Type: RecCommit, XID: uint64(i)})
	}
	s := l.StreamFrom(0)
	defer s.Close()
	s.Ack(3)
	s.Ack(1) // lower ack must not regress
	if got := s.AckedLSN(); got != 3 {
		t.Fatalf("acked = %d, want 3", got)
	}
	if got := s.Lag(); got != 1 {
		t.Fatalf("lag = %d, want 1", got)
	}
	s.Ack(4)
	if got := s.Lag(); got != 0 {
		t.Fatalf("lag = %d, want 0", got)
	}
}

// TestStreamConcurrentAppendDelivery hammers a log with concurrent
// appenders while a stream tails it, asserting the stream sees every LSN
// exactly once and in order.
func TestStreamConcurrentAppendDelivery(t *testing.T) {
	l := New()
	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(Record{Type: RecInsert, XID: 1, Table: "t"})
			}
		}()
	}
	go func() {
		wg.Wait()
		l.Seal()
	}()
	s := l.StreamFrom(0)
	defer s.Close()
	var last int64
	for {
		rec, ok := s.Next(5 * time.Second)
		if !ok {
			if s.Done() {
				break
			}
			t.Fatal("stream timed out before seal")
		}
		if rec.LSN != last+1 {
			t.Fatalf("gap: got LSN %d after %d", rec.LSN, last)
		}
		last = rec.LSN
	}
	if last != writers*perWriter {
		t.Fatalf("delivered %d records, want %d", last, writers*perWriter)
	}
}

// TestCheckpointWakesParkedStream: a new base ends a parked Next with no
// record, as an append would with one, so a subscriber that follows the
// primary's bases sees each one without waiting for the next record.
func TestCheckpointWakesParkedStream(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecCommit, XID: 1})
	s := l.StreamFrom(1)
	defer s.Close()
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next(0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park
	at, _ := l.BeginCheckpoint()
	l.Checkpoint(&Base{Redo: at, At: at})
	select {
	case ok := <-done:
		if ok || s.Done() {
			t.Fatalf("woken by a base: ok=%v done=%v, want neither", ok, s.Done())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a checkpoint did not wake the parked Next")
	}
	// the base is reported once: the next Next waits for a record
	l.Append(Record{Type: RecCommit, XID: 2})
	if rec, ok := s.Next(time.Second); !ok || rec.XID != 2 {
		t.Fatalf("after the base: %+v ok=%v", rec, ok)
	}
}
