package wal

import (
	"sync/atomic"
	"time"
)

// Stream is an incremental subscriber over a Log — the transport half of
// WAL shipping (the paper assumes PostgreSQL streaming replication under
// each worker, §2). A stream delivers records in LSN order starting after
// the position passed to StreamFrom, blocking in Next until the primary
// appends more. Because LSNs are dense (assigned 1,2,3,... under the log
// mutex) a stream finds its next record at its LSN minus the log's first and
// never misses or duplicates a record, regardless of how long it lags.
//
// Ack records the highest LSN the subscriber has durably applied; the
// replication layer uses it for sync-commit waits and lag accounting, and
// the log keeps every record above it until the stream is closed: an open
// stream is a retention holder.
type Stream struct {
	l      *Log
	pos    int64   // LSN of the last record delivered
	hold   *Holder // at acked+1
	behind bool
	closed atomic.Bool
	stop   chan struct{}
}

// StreamFrom opens a stream delivering records with LSN > lsn (0 streams
// from the beginning). Opening a stream on a sealed log is valid: the
// subscriber drains the sealed prefix and then sees end-of-log.
//
// A position the log has already been cut past cannot be streamed from:
// the stream is Behind, delivers nothing and holds nothing, and its
// subscriber needs a base backup (RecoverInto) first.
func (l *Log) StreamFrom(lsn int64) *Stream {
	if lsn < 0 {
		lsn = 0
	}
	s := &Stream{l: l, pos: lsn, stop: make(chan struct{})}
	l.mu.Lock()
	s.behind = lsn+1 < l.first
	s.hold = l.holdLocked("standby", lsn+1)
	if s.behind {
		delete(l.holders, s.hold)
	}
	l.mu.Unlock()
	return s
}

// Behind reports whether the log had been cut past the stream's position
// when it was opened.
func (s *Stream) Behind() bool { return s.behind }

// Next returns the next record, blocking up to timeout for one to be
// appended. ok=false means no record was delivered: either the wait timed
// out, or the stream is done (closed, or the log is sealed and fully
// drained) — distinguish with Done.
func (s *Stream) Next(timeout time.Duration) (rec Record, ok bool) {
	var timer *time.Timer
	var expired <-chan time.Time
	for {
		if s.closed.Load() || s.behind {
			return Record{}, false
		}
		s.l.mu.Lock()
		if i := s.pos + 1 - s.l.first; i < int64(len(s.l.records)) {
			rec = s.l.records[i]
			s.pos++
			s.l.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return rec, true
		}
		if s.l.sealed.Load() {
			s.l.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return Record{}, false
		}
		watch := s.l.watch
		s.l.waiters++
		s.l.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
			expired = timer.C
		}
		select {
		case <-watch:
			continue
		case <-s.stop:
			timer.Stop()
		case <-expired:
		}
		// not woken: leave the count as found, unless a wake-up has just
		// reset it
		s.l.mu.Lock()
		if s.l.watch == watch {
			s.l.waiters--
		}
		s.l.mu.Unlock()
		return Record{}, false
	}
}

// Done reports whether the stream will never deliver another record: it
// was closed, or the log is sealed and the cursor has reached its tip.
func (s *Stream) Done() bool {
	if s.closed.Load() || s.behind {
		return true
	}
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	return s.l.sealed.Load() && s.pos >= s.l.nextLSN-1
}

// Pos returns the LSN of the last record delivered by Next.
func (s *Stream) Pos() int64 {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	return s.pos
}

// Ack records that every record up to lsn has been durably applied by the
// subscriber. Acks are monotonic; a lower LSN is ignored.
func (s *Stream) Ack(lsn int64) {
	for {
		cur := s.hold.lsn.Load()
		if lsn < cur {
			return
		}
		if s.hold.lsn.CompareAndSwap(cur, lsn+1) {
			return
		}
	}
}

// AckedLSN returns the highest acknowledged LSN.
func (s *Stream) AckedLSN() int64 { return s.hold.lsn.Load() - 1 }

// Lag returns how many records the subscriber's ack trails the log tip.
func (s *Stream) Lag() int64 {
	lag := s.l.LastLSN() - s.AckedLSN()
	if lag < 0 {
		return 0
	}
	return lag
}

// Close detaches the stream; a blocked Next wakes and returns ok=false, and
// the log stops holding records for it.
func (s *Stream) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
		s.hold.Release()
	}
}
