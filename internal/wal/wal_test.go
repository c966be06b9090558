package wal

import (
	"testing"

	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
)

// tuple encodes one row the way the heap stores it.
func tuple(row ...types.Datum) []byte {
	b, err := rowbatch.EncodeRow(row)
	if err != nil {
		panic(err)
	}
	return b
}

// memApplier is a reference replay target.
type memApplier struct {
	tables   map[string][]types.Row
	status   map[uint64]string
	prepared map[string]uint64
	base     *Base // what ApplyBase was handed
}

func newMemApplier() *memApplier {
	return &memApplier{
		tables:   map[string][]types.Row{},
		status:   map[uint64]string{},
		prepared: map[string]uint64{},
	}
}

func (m *memApplier) ApplyBase(b *Base) error   { m.base = b; return nil }
func (m *memApplier) ApplyDDL(ddl string) error { return nil }
func (m *memApplier) ApplyInsert(xid uint64, table string, tup []byte, _ bool) error {
	m.tables[table] = append(m.tables[table], rowbatch.DecodeRow(tup))
	return nil
}
func (m *memApplier) ApplyDelete(xid uint64, table string, tup []byte) error {
	key := types.Format(rowbatch.DecodeRow(tup)[0])
	rows := m.tables[table]
	for i, r := range rows {
		if types.Format(r[0]) == key {
			m.tables[table] = append(rows[:i], rows[i+1:]...)
			return nil
		}
	}
	return nil
}
func (m *memApplier) ApplyCommit(xid uint64)              { m.status[xid] = "commit" }
func (m *memApplier) ApplyAbort(xid uint64)               { m.status[xid] = "abort" }
func (m *memApplier) ApplyPrepare(xid uint64, gid string) { m.prepared[gid] = xid }
func (m *memApplier) ApplyCommitPrepared(gid string)      { delete(m.prepared, gid) }
func (m *memApplier) ApplyAbortPrepared(gid string)       { delete(m.prepared, gid) }

func TestReplaySkipsUncommittedAndAborted(t *testing.T) {
	l := New()
	// committed txn 5
	l.Append(Record{Type: RecInsert, XID: 5, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecCommit, XID: 5})
	// aborted txn 6
	l.Append(Record{Type: RecInsert, XID: 6, Table: "t", Tuple: tuple(int64(2))})
	l.Append(Record{Type: RecAbort, XID: 6})
	// crashed txn 7 (no outcome)
	l.Append(Record{Type: RecInsert, XID: 7, Table: "t", Tuple: tuple(int64(3))})
	l.Seal()

	a := newMemApplier()
	if err := l.RecoverInto(New(), a, 0); err != nil {
		t.Fatal(err)
	}
	if len(a.tables["t"]) != 1 || a.tables["t"][0][0].(int64) != 1 {
		t.Fatalf("replayed rows: %v", a.tables["t"])
	}
}

func TestReplayPreparedStaysPending(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecInsert, XID: 5, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecPrepare, XID: 5, GID: "g1"})

	a := newMemApplier()
	if err := l.RecoverInto(New(), a, 0); err != nil {
		t.Fatal(err)
	}
	// the insert is applied (it becomes visible iff the prepared txn
	// later commits) and the prepared transaction is pending
	if len(a.tables["t"]) != 1 {
		t.Fatal("prepared txn's data record missing")
	}
	if a.prepared["g1"] != 5 {
		t.Fatalf("prepared not pending: %v", a.prepared)
	}
}

func TestReplayResolvedPrepared(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecInsert, XID: 5, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecPrepare, XID: 5, GID: "g1"})
	l.Append(Record{Type: RecCommitPrepared, XID: 5, GID: "g1"})
	l.Append(Record{Type: RecInsert, XID: 6, Table: "t", Tuple: tuple(int64(2))})
	l.Append(Record{Type: RecPrepare, XID: 6, GID: "g2"})
	l.Append(Record{Type: RecAbortPrepared, XID: 6, GID: "g2"})

	a := newMemApplier()
	if err := l.RecoverInto(New(), a, 0); err != nil {
		t.Fatal(err)
	}
	if len(a.tables["t"]) != 1 || a.status[5] != "commit" {
		t.Fatalf("commit-prepared replay wrong: %v %v", a.tables["t"], a.status)
	}
	if len(a.prepared) != 0 {
		t.Fatalf("resolved prepared still pending: %v", a.prepared)
	}
}

func TestReplayUpToRestorePoint(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecInsert, XID: 5, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecCommit, XID: 5})
	lsn := l.RestorePoint("checkpoint")
	l.Append(Record{Type: RecInsert, XID: 6, Table: "t", Tuple: tuple(int64(2))})
	l.Append(Record{Type: RecCommit, XID: 6})

	found, err := l.FindRestorePoint("checkpoint")
	if err != nil || found != lsn {
		t.Fatalf("restore point: %d %v", found, err)
	}
	a := newMemApplier()
	if err := l.RecoverInto(New(), a, lsn); err != nil {
		t.Fatal(err)
	}
	if len(a.tables["t"]) != 1 {
		t.Fatalf("restore-point cut ignored: %v", a.tables["t"])
	}
	if _, err := l.FindRestorePoint("missing"); err == nil {
		t.Fatal("unknown restore point found")
	}
}

// TestRestorePointAtomicityOf2PC models the §3.9 guarantee: a transaction
// whose commit record (here: commit-prepared) lands after the restore point
// replays as pending-prepared, never as half-applied.
func TestRestorePointAtomicityOf2PC(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecInsert, XID: 5, Table: "t", Tuple: tuple(int64(1))})
	l.Append(Record{Type: RecPrepare, XID: 5, GID: "g1"})
	lsn := l.RestorePoint("rp")
	l.Append(Record{Type: RecCommitPrepared, XID: 5, GID: "g1"})

	a := newMemApplier()
	if err := l.RecoverInto(New(), a, lsn); err != nil {
		t.Fatal(err)
	}
	if a.prepared["g1"] != 5 {
		t.Fatal("prepared transaction must be recoverable at the restore point")
	}
}

func TestLSNsAreMonotonic(t *testing.T) {
	l := New()
	var last int64
	for i := 0; i < 100; i++ {
		lsn := l.Append(Record{Type: RecInsert, XID: 1, Table: "t"})
		if lsn <= last {
			t.Fatal("LSN not monotonic")
		}
		last = lsn
	}
	if l.Len() != 100 {
		t.Fatalf("len = %d", l.Len())
	}
}
