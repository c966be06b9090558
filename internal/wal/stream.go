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
	seen   *Base // the newest base Next has reported, or the log's at opening
	closed atomic.Bool
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
	s := &Stream{l: l, pos: lsn}
	l.mu.Lock()
	s.behind = lsn+1 < l.first
	s.seen = l.base.Load()
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

// Next returns the next record. With none to deliver it parks until one is
// appended, the log is sealed, a checkpoint puts a new base under the log,
// the stream is closed, or timeout passes (0: no limit). ok=false means no
// record was delivered: the stream is done (closed, or the log is sealed and
// fully drained) — distinguish with Done — or a new base or the timeout came
// first.
func (s *Stream) Next(timeout time.Duration) (rec Record, ok bool) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	s.l.wake.Wait(deadline, func() bool {
		if s.closed.Load() || s.behind {
			return true
		}
		s.l.mu.Lock()
		defer s.l.mu.Unlock()
		if i := s.pos + 1 - s.l.first; i < int64(len(s.l.records)) {
			rec, ok = s.l.records[i], true
			s.pos++
			return true
		}
		if b := s.l.base.Load(); b != s.seen {
			s.seen = b
			return true
		}
		return s.l.sealed.Load()
	})
	return rec, ok
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
		s.hold.Release()
		s.l.wake.Broadcast()
	}
}
