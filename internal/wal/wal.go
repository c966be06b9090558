// Package wal implements a per-node write-ahead log. Records describe
// logical changes (insert/delete with table name and the tuple's bytes) plus
// transaction control, including PREPARE records for two-phase commit and
// named restore points.
//
// The distributed layer relies on two WAL properties from the paper:
// prepared transactions survive restart and recovery (§3.7.2), and a
// cluster-wide consistent restore point can be created in every node's WAL
// while 2PC commits are blocked (§3.9). Both are reproduced: RecoverInto
// rebuilds engine state from the log, leaving prepared-but-unresolved
// transactions pending, and RestorePoint marks a cut LSN so a replay up to
// the restore point yields a consistent node image.
//
// A log does not hold every record for ever. A node's checkpoint puts a base
// under it — an image of the node under one snapshot (Base) — and the log
// drops the records below the base that no holder (a standby's stream, a
// kept restore point, a shard move, an unresolved commit record) still
// needs. Whatever reads "the log" reads base + tail.
package wal

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/wake"
)

// RecordType enumerates WAL record kinds.
type RecordType int8

const (
	RecBegin RecordType = iota
	RecInsert
	RecDelete
	RecCommit
	RecAbort
	RecPrepare
	RecCommitPrepared
	RecAbortPrepared
	RecRestorePoint
	RecDDL
	// RecCommitRecord stores a distributed-transaction commit record (the
	// paper's "Citus metadata" commit record, §3.7.2): its durability with
	// the local commit is what makes 2PC recovery decisions safe.
	RecCommitRecord
	// RecCommitRecordDeleted takes a commit record back: the coordinator's
	// own commit failed behind it, the transaction's fate is abort, and a
	// restart that reads the record must read this after it.
	RecCommitRecordDeleted
)

func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecPrepare:
		return "prepare"
	case RecCommitPrepared:
		return "commit_prepared"
	case RecAbortPrepared:
		return "abort_prepared"
	case RecRestorePoint:
		return "restore_point"
	case RecDDL:
		return "ddl"
	case RecCommitRecord:
		return "commit_record"
	case RecCommitRecordDeleted:
		return "commit_record_deleted"
	}
	return "unknown"
}

// metRecords counts appended WAL records by type; the per-type counters
// are resolved once at init so Append pays a single atomic add.
var metRecords [RecCommitRecordDeleted + 2]*obs.Counter

func init() {
	vec := obs.Default().Counter("wal_records_total", "WAL records appended, by record type", "type")
	for t := RecBegin; t <= RecCommitRecordDeleted+1; t++ {
		metRecords[t] = vec.With(t.String())
	}
}

// Record is one WAL entry.
type Record struct {
	LSN  int64
	Type RecordType
	// Update marks an insert as an update's new version: the successor of
	// the version the same transaction's last delete record took away.
	Update bool
	XID    uint64
	// Table is the table an insert or delete wrote to; on a DDL record, the
	// table whose rows the statement threw away (TRUNCATE, DROP TABLE), empty
	// for every other DDL.
	Table string
	// Tuple is an insert's new tuple and a delete's old one: the heap's own
	// byte image of the row (heap.Tuple.Data), shared, never copied.
	Tuple []byte
	GID   string // prepared transaction identifier
	Name  string // restore point name / DDL text
}

// CheckpointEvery is how many records a log takes in between two checkpoints
// of its node: Append wakes the node's maintenance pass when that many have
// arrived since the last one began. It bounds what a node holds in memory
// and what a restart replays.
const CheckpointEvery = 8192

// RestorePointsKept is how many named restore points a log keeps restorable,
// the newest ones. A kept restore point keeps the base that was under the log
// when the point was made, and the records from that base's Redo on: a
// restore needs an image from before the point and every record from there
// to the point. Newer bases go under the log all the same; when a point
// leaves the ring, the next checkpoint cuts what only it held.
const RestorePointsKept = 4

// Base is what a checkpoint leaves in place of the records it cuts: an image
// of the node under one MVCC snapshot, and what replay of the records that
// follow must know about that snapshot.
type Base struct {
	// Redo is where replay starts: the first record of the oldest
	// transaction the snapshot saw in progress, At when there was none.
	Redo int64
	// At is the next LSN when the snapshot was taken. The image holds the
	// effect of every DDL record below it and of none from it on.
	At int64
	// Xmax and InProgress are the snapshot's: a transaction below Xmax and
	// not in InProgress had ended, so the image holds its rows if it
	// committed and replay skips its records either way. InProgress is
	// sorted.
	Xmax       uint64
	InProgress []uint64
	// Tip is the next LSN when the base went under the log it was built on;
	// Checkpoint sets it. The snapshot was taken before that, so whatever the
	// image holds was visible on the node before any record from Tip on
	// existed: a restore point at or above Tip may restore from this base,
	// and a standby's log takes the base over once it has the records below.
	Tip int64
	// Image is the node's own: the Applier of the engine that built it
	// loads it (ApplyBase). It shares tuple bytes and column vectors with the
	// engine it was taken from, which never writes to either again.
	Image any
}

// Settled reports whether the image's snapshot saw xid ended.
func (b *Base) Settled(xid uint64) bool {
	if xid >= b.Xmax {
		return false
	}
	_, busy := slices.BinarySearch(b.InProgress, xid)
	return !busy
}

// Holder keeps a log from cutting records at or above an LSN: a standby's
// stream, a restore point, a running shard move, a commit record not yet
// resolved. Release it when the records are no longer needed.
type Holder struct {
	l    *Log
	kind string
	lsn  atomic.Int64
}

// LSN is the lowest LSN the holder keeps.
func (h *Holder) LSN() int64 { return h.lsn.Load() }

// Release lets the log cut past the holder. Safe to call twice.
func (h *Holder) Release() {
	h.l.mu.Lock()
	delete(h.l.holders, h)
	h.l.mu.Unlock()
}

type restorePoint struct {
	name string
	lsn  int64
	// base was under the log when the point was appended (base.Tip <= lsn),
	// nil when none was: its image was taken before the point existed.
	base *Base
}

// redo is where a restore to the point starts reading records.
func (p restorePoint) redo() int64 {
	if p.base == nil {
		return 1
	}
	return p.base.Redo
}

var (
	metCheckpoints = obs.Default().Counter("wal_checkpoints_total",
		"checkpoints that put a new base under a log").With()
	metCut = obs.Default().Counter("wal_records_cut_total",
		"WAL records dropped from memory below a checkpoint's base").With()
	metReplayed = obs.Default().Counter("wal_records_replayed_total",
		"WAL records read back above a base while rebuilding a node").With()
	metBaseLSN = obs.Default().Gauge("wal_base_lsn",
		"LSN below which a node's log has been cut", "node")
	metHolder = obs.Default().Gauge("wal_retention_holder",
		"lowest LSN held back at a node's last checkpoint, by kind of holder (0: none)", "node", "kind")
)

// holderKinds are the kinds wal_retention_holder reports.
var holderKinds = []string{"standby", "restore_point", "shard_move", "commit_record"}

// Log is an append-only in-memory WAL: a base image, once the node has
// checkpointed, and the records that follow it. (Archiving to remote storage
// is a platform concern in the paper; here the "archive" is the base and the
// retained record slice, which RecoverInto replays.)
type Log struct {
	// Node labels the log's gauges.
	Node string

	mu sync.Mutex
	// base is the last checkpoint's, nil before the first. Read without mu
	// by a shipper watching for a new one.
	base atomic.Pointer[Base]
	// records[i] has LSN first+i. What lies below first has been cut; what
	// lies below base.Redo is kept only because a holder asked for it.
	first   int64
	records []Record
	nextLSN int64

	// open maps a transaction with no outcome record yet to the LSN of its
	// first record: what a checkpoint needs to place Redo.
	open    map[uint64]int64
	holders map[*Holder]struct{}
	// restorePoints are the RestorePointsKept newest, oldest first.
	restorePoints []restorePoint

	// ckptAt is the next LSN when the last checkpoint began; due is sent on
	// when CheckpointEvery records have arrived since.
	ckptAt int64
	due    chan struct{}

	// wake wakes streams parked in Next after an append, a new base or a
	// Seal; a log nobody is streaming from pays one atomic load per record.
	wake wake.Notifier

	// sealed freezes the log at a crash instant: appends racing with the
	// crash are dropped, modeling writes that never reached stable storage
	// before the process died. A restarted node replays only the sealed
	// prefix.
	sealed atomic.Bool
}

// New creates an empty log.
func New() *Log {
	return &Log{
		first: 1, nextLSN: 1, ckptAt: 1,
		open:    make(map[uint64]int64),
		holders: make(map[*Holder]struct{}),
		due:     make(chan struct{}, 1),
	}
}

// Seal freezes the log: every subsequent Append is silently dropped
// (returning LSN 0), as if the process died before the write hit disk.
// Chaos tests call Seal at the crash instant, then hand the sealed log to
// the restarted node for replay. Streams blocked in Next wake up: a
// standby can drain the sealed prefix to its tip and then observes
// end-of-log, which is exactly the promotion "replay to tip" step.
func (l *Log) Seal() {
	l.mu.Lock()
	l.sealed.Store(true)
	l.mu.Unlock()
	l.wake.Broadcast()
}

// durable reports whether a record type represents a durability point —
// where a real WAL would fsync before acknowledging.
func durable(t RecordType) bool {
	switch t {
	case RecCommit, RecPrepare, RecCommitPrepared, RecAbortPrepared, RecCommitRecord, RecCommitRecordDeleted:
		return true
	}
	return false
}

// Append writes a record and returns its LSN (0 if the log is sealed).
func (l *Log) Append(rec Record) int64 {
	// wal.append models a slow or wedged log device; wal.fsync models the
	// flush a real WAL performs at durability points. Neither can refuse a
	// write (the in-memory log has no I/O errors) — injected errors at
	// these points mean delay/panic schedules; error rules are ignored.
	// The fsync key names the node too, so a gate can park one participant
	// of a commit flight rather than whichever reaches its log first.
	_ = fault.CheckKey(fault.PointWALAppend, rec.Type.String())
	if durable(rec.Type) && fault.Armed() {
		_ = fault.CheckKey(fault.PointWALFsync, rec.Type.String()+"@"+l.Node)
	}
	if l.sealed.Load() {
		return 0
	}
	if t := int(rec.Type); t >= 0 && t < len(metRecords) {
		metRecords[t].Inc()
	}
	l.mu.Lock()
	if l.sealed.Load() {
		l.mu.Unlock()
		return 0
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	l.records = append(l.records, rec)
	l.noteLocked(rec)
	due := l.nextLSN-l.ckptAt == CheckpointEvery
	l.mu.Unlock()
	l.wake.Broadcast()
	if due {
		select {
		case l.due <- struct{}{}:
		default:
		}
	}
	return rec.LSN
}

// noteLocked keeps open and restorePoints current with one more record.
func (l *Log) noteLocked(rec Record) {
	switch rec.Type {
	case RecBegin, RecInsert, RecDelete, RecPrepare:
		if _, ok := l.open[rec.XID]; !ok {
			l.open[rec.XID] = rec.LSN
		}
	case RecCommit, RecAbort, RecCommitPrepared, RecAbortPrepared:
		delete(l.open, rec.XID)
	case RecRestorePoint:
		l.restorePoints = append(l.restorePoints, restorePoint{rec.Name, rec.LSN, l.base.Load()})
		if n := len(l.restorePoints) - RestorePointsKept; n > 0 {
			l.restorePoints = append(l.restorePoints[:0], l.restorePoints[n:]...)
		}
	}
}

// CheckpointDue is sent on when CheckpointEvery records have been appended
// since the last checkpoint began: the node's maintenance pass waits on it.
func (l *Log) CheckpointDue() <-chan struct{} { return l.due }

// Due reports whether CheckpointEvery records have arrived since the last
// checkpoint began.
func (l *Log) Due() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN-l.ckptAt >= CheckpointEvery
}

// LastLSN returns the LSN of the most recently appended record (0 for an
// empty log). For a sealed log this is the replay tip a promoted standby
// must reach.
func (l *Log) LastLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// FirstLSN returns the lowest LSN still held in memory (LastLSN+1 when none
// is).
func (l *Log) FirstLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Base returns the last checkpoint's base, nil before the first.
func (l *Log) Base() *Base { return l.base.Load() }

// RestorePoint appends a named restore point and returns its LSN.
func (l *Log) RestorePoint(name string) int64 {
	return l.Append(Record{Type: RecRestorePoint, Name: name})
}

// Len returns the number of records held in memory.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of the records held in memory.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// Since returns a copy of the records above lsn. It fails when the log has
// been cut past lsn+1: whoever reads a log from a position must hold it
// (Hold, StreamFrom) from the moment it takes the position.
func (l *Log) Since(lsn int64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn+1 < l.first {
		return nil, fmt.Errorf("wal: records after LSN %d are gone, the log starts at %d", lsn, l.first)
	}
	return append([]Record(nil), l.records[lsn+1-l.first:]...), nil
}

// FindRestorePoint returns the LSN of the named restore point, if it is one
// of the RestorePointsKept newest.
func (l *Log) FindRestorePoint(name string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.restorePoints) - 1; i >= 0; i-- {
		if l.restorePoints[i].name == name {
			return l.restorePoints[i].lsn, nil
		}
	}
	return 0, fmt.Errorf("restore point %q not found", name)
}

// Hold keeps every record appended from now on, until the holder is
// released: h.LSN()-1 is the position the caller reads from.
func (l *Log) Hold(kind string) *Holder {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holdLocked(kind, l.nextLSN)
}

// HoldAt keeps the records from lsn on. It fails when the log has already
// been cut past lsn.
func (l *Log) HoldAt(kind string, lsn int64) (*Holder, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.first {
		return nil, fmt.Errorf("wal: cannot hold LSN %d, the log starts at %d", lsn, l.first)
	}
	return l.holdLocked(kind, lsn), nil
}

func (l *Log) holdLocked(kind string, lsn int64) *Holder {
	h := &Holder{l: l, kind: kind}
	h.lsn.Store(lsn)
	l.holders[h] = struct{}{}
	return h
}

// BeginCheckpoint starts a checkpoint: it returns the next LSN and the
// transactions that have records below it but no outcome record, each with
// the LSN of its first. The caller takes its snapshot after this call, so
// whatever the snapshot sees ended has every data record below at, and
// builds the Base that Checkpoint installs.
func (l *Log) BeginCheckpoint() (at int64, open map[uint64]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.beginLocked()
}

func (l *Log) beginLocked() (at int64, open map[uint64]int64) {
	open = make(map[uint64]int64, len(l.open))
	for xid, lsn := range l.open {
		open[xid] = lsn
	}
	return l.nextLSN, open
}

// BeginHold is BeginCheckpoint for a reader of the records that follow the
// position, a shard move's catch-up: under the same lock it holds the log
// from the first record of the oldest transaction then open (from at when
// none is).
func (l *Log) BeginHold(kind string) (h *Holder, at int64, open map[uint64]int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at, open = l.beginLocked()
	from := at
	for _, lsn := range open {
		from = min(from, lsn)
	}
	return l.holdLocked(kind, from), at, open
}

// Checkpoint puts b under the log and cuts the records nobody can need any
// more: those below b.Redo, below every holder, and below the Redo of the
// base each kept restore point restores from. It reports whether b was
// installed; it is not when the log already has a newer base.
//
// b may come from another log that holds the same records under the same
// LSNs: a standby's log takes its primary's bases this way, once it has the
// records below b.Tip — not merely those below b.At, or a restore point that
// the primary appended while the image was being built could reach the
// standby's log after the base and keep an image taken after itself.
func (l *Log) Checkpoint(b *Base) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b.At > l.ckptAt {
		l.ckptAt = b.At
	}
	if old := l.base.Load(); old != nil && old.At > b.At {
		return false
	}
	if b.Tip == 0 {
		b.Tip = l.nextLSN
	}
	held := map[string]int64{}
	hold := func(kind string, lsn int64) {
		if cur, ok := held[kind]; !ok || lsn < cur {
			held[kind] = lsn
		}
	}
	for _, rp := range l.restorePoints {
		hold("restore_point", rp.redo())
	}
	for h := range l.holders {
		hold(h.kind, h.lsn.Load())
	}
	for _, kind := range holderKinds {
		metHolder.With(l.Node, kind).Set(held[kind])
	}
	cut := b.Redo
	for _, lsn := range held {
		cut = min(cut, lsn)
	}
	if n := cut - l.first; n > 0 {
		// a fresh array: re-slicing would keep the cut records reachable
		l.records = append([]Record(nil), l.records[n:]...)
		l.first = cut
		metCut.Add(n)
	}
	for xid, lsn := range l.open {
		// below Redo and not in progress to the snapshot: ended, its outcome
		// record not yet written or never to be (aborted at end of recovery)
		if lsn < b.Redo {
			delete(l.open, xid)
		}
	}
	l.base.Store(b)
	l.wake.Broadcast()
	metCheckpoints.Inc()
	metBaseLSN.With(l.Node).Set(l.first - 1)
	return true
}

// Applier is the replay target: the engine implements it to rebuild state.
type Applier interface {
	// ApplyBase loads a checkpoint's image into an empty target.
	ApplyBase(b *Base) error
	ApplyDDL(ddl string) error
	// ApplyInsert adds the tuple; update makes it the successor of the
	// version xid's last ApplyDelete removed (Record.Update).
	ApplyInsert(xid uint64, table string, tuple []byte, update bool) error
	// ApplyDelete deletes the live version whose bytes are tuple's.
	ApplyDelete(xid uint64, table string, tuple []byte) error
	ApplyCommit(xid uint64)
	ApplyAbort(xid uint64)
	ApplyPrepare(xid uint64, gid string)
	ApplyCommitPrepared(gid string)
	ApplyAbortPrepared(gid string)
}

// RecoverInto rebuilds a node from this log — its base image, then the
// records from the base's Redo up to upTo (0 = the tip) — into a, and makes
// dst, an empty log, the continuation of that history: the same base, the
// same records under the same LSNs, the next append at upTo+1. It is the one
// way a node comes back from a log: a restart, a standby taking a base
// backup, a restore to a named point. When upTo is a kept restore point the
// base is the one that point kept, not the log's newest.
//
// Of the records replayed, a transaction's are skipped when the base's
// snapshot saw it ended (the image has its rows, or it aborted), and when
// it has neither a commit nor an abort before the cut and the cut is where
// the history ends: a sealed log's tip, or upTo. A prepared transaction is
// the exception, it stays pending for 2PC recovery: this is what makes the
// paper's consistent-restore-point scheme work. The tip of a live log is not
// the end: a standby taking a base backup applies the records of the
// transactions in flight and the stream brings their outcomes.
func (l *Log) RecoverInto(dst *Log, a Applier, upTo int64) error {
	l.mu.Lock()
	base := l.base.Load()
	var points []restorePoint
	for _, rp := range l.restorePoints {
		if upTo == 0 || rp.lsn <= upTo {
			points = append(points, rp)
		}
		if rp.lsn == upTo {
			base = rp.base
		}
	}
	live := upTo == 0 && !l.sealed.Load()
	recs := l.records
	if upTo > 0 && upTo < l.nextLSN-1 {
		recs = recs[:max(upTo+1-l.first, 0)]
	}
	recs = append([]Record(nil), recs...)
	first, next := l.first, l.first+int64(len(recs))
	l.mu.Unlock()

	redo, at := int64(1), int64(1)
	if base != nil {
		if upTo > 0 && base.At > upTo+1 {
			return fmt.Errorf("wal: cannot rebuild the node as of LSN %d, its base was taken at %d", upTo, base.At)
		}
		if err := a.ApplyBase(base); err != nil {
			return err
		}
		redo, at = base.Redo, base.At
	}
	if redo < first {
		return fmt.Errorf("wal: the log starts at LSN %d, above its base's redo point %d", first, redo)
	}
	tail := recs[redo-first:]
	metReplayed.Add(int64(len(tail)))

	// First pass: transaction outcomes before the cut, and where the
	// statements the image already reflects threw a table's rows away.
	outcome := map[uint64]RecordType{}
	preparedGID := map[uint64]string{}
	gidOutcome := map[string]RecordType{}
	wiped := map[string]int64{}
	for _, r := range tail {
		switch r.Type {
		case RecCommit, RecAbort:
			outcome[r.XID] = r.Type
		case RecPrepare:
			outcome[r.XID] = RecPrepare
			preparedGID[r.XID] = r.GID
		case RecCommitPrepared, RecAbortPrepared:
			gidOutcome[r.GID] = r.Type
		case RecDDL:
			if r.LSN < at && r.Table != "" {
				wiped[r.Table] = r.LSN
			}
		}
	}
	skip := func(r Record) bool {
		if base != nil && base.Settled(r.XID) {
			return true
		}
		if r.LSN < wiped[r.Table] {
			return true
		}
		switch outcome[r.XID] {
		case RecCommit:
			return false
		case RecAbort:
			return true
		case RecPrepare:
			return gidOutcome[preparedGID[r.XID]] == RecAbortPrepared
		}
		return !live
	}
	// A transaction the log leaves without an outcome died with the node.
	// Replay drops its records and then aborts it, which also keeps its XID
	// from being given out again: a new transaction under the same XID would
	// lend its commit record to the dead one's records at the next replay.
	dead := map[uint64]bool{}
	for _, r := range tail {
		if _, ended := outcome[r.XID]; !ended && !live && (r.Type == RecInsert || r.Type == RecDelete) &&
			(base == nil || !base.Settled(r.XID)) {
			dead[r.XID] = true
		}
		switch r.Type {
		case RecDDL:
			if r.LSN < at {
				continue // in the image
			}
			if err := a.ApplyDDL(r.Name); err != nil {
				return err
			}
		case RecInsert:
			if skip(r) {
				continue
			}
			if err := a.ApplyInsert(r.XID, r.Table, r.Tuple, r.Update); err != nil {
				return err
			}
		case RecDelete:
			if skip(r) {
				continue
			}
			if err := a.ApplyDelete(r.XID, r.Table, r.Tuple); err != nil {
				return err
			}
		case RecCommit:
			a.ApplyCommit(r.XID)
		case RecAbort:
			a.ApplyAbort(r.XID)
		case RecPrepare:
			if base != nil && base.Settled(r.XID) {
				continue // resolved before the image was taken
			}
			switch gidOutcome[r.GID] {
			case RecCommitPrepared:
				a.ApplyCommit(r.XID)
			case RecAbortPrepared:
				a.ApplyAbort(r.XID)
			default:
				a.ApplyPrepare(r.XID, r.GID)
			}
		}
	}
	for xid := range dead {
		a.ApplyAbort(xid)
	}

	dst.mu.Lock()
	defer dst.mu.Unlock()
	dst.base.Store(base)
	dst.first, dst.records, dst.nextLSN, dst.ckptAt = first, recs, next, at
	for _, r := range recs {
		dst.noteLocked(r)
	}
	dst.restorePoints = points // each with the base it kept, not dst's
	return nil
}

// ApplyRecord applies one streamed record to a — the incremental
// counterpart of RecoverInto used by WAL shipping. Data records are applied
// the moment they arrive; their visibility on the subscriber follows the
// transaction-status records (commit/abort/prepare) exactly as it does on
// the primary, so a lagging standby exposes a consistent, slightly stale
// snapshot rather than a torn one.
func ApplyRecord(a Applier, rec Record) error {
	switch rec.Type {
	case RecDDL:
		return a.ApplyDDL(rec.Name)
	case RecInsert:
		return a.ApplyInsert(rec.XID, rec.Table, rec.Tuple, rec.Update)
	case RecDelete:
		return a.ApplyDelete(rec.XID, rec.Table, rec.Tuple)
	case RecCommit:
		a.ApplyCommit(rec.XID)
	case RecAbort:
		a.ApplyAbort(rec.XID)
	case RecPrepare:
		a.ApplyPrepare(rec.XID, rec.GID)
	case RecCommitPrepared:
		a.ApplyCommitPrepared(rec.GID)
	case RecAbortPrepared:
		a.ApplyAbortPrepared(rec.GID)
	}
	// RecBegin, RecRestorePoint, RecCommitRecord and RecCommitRecordDeleted
	// need no engine-state change; the shipper still copies them into the standby's own WAL.
	return nil
}
