package engine

import (
	"fmt"

	"citusgo/internal/columnar"
	"citusgo/internal/heap"
	"citusgo/internal/rowbatch"
	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// image is what a checkpoint captures of a node (wal.Base.Image): the schema
// as the DDL that built it, and of every table what one snapshot saw
// committed. It copies no row and no column: a heap table's rows are its
// pages' arrays (heap.Image), a columnar table's stripes are the table's
// own, frozen. Both are immutable, so the image and the engine it was taken
// from share them; an engine rebuilt from it copies the rows into pages of
// its own.
type image struct {
	ddl    []string
	tables []tableImage
}

type tableImage struct {
	name    string
	heap    heap.Image
	stripes []columnar.StripeView // columnar
}

// bootstrapXID stamps the rows loaded from an image: the transaction
// txn.NewManager starts every clog with, committed.
const bootstrapXID = 1

// Checkpoint takes a base image of the node under one MVCC snapshot and
// hands it to the log, which drops the records below it that no retention
// holder needs (wal.Log.Checkpoint). It reports whether the log took the
// image. A standby takes none of its own: its log is a copy of its
// primary's and takes the primary's bases (internal/repl). Nor does a crashed
// node: its log is sealed at the crash instant, base included.
//
// The order of the first three steps is what makes base + tail equal the
// whole log. The log's position is read first, then the snapshot is taken:
// a transaction the snapshot sees ended wrote all its data records below
// that position, one it sees in progress either shows in the log's open set
// — and Redo goes back to its first record — or has yet to write its first.
// Replay then needs only the snapshot to tell the two kinds apart.
func (e *Engine) Checkpoint() bool {
	if e.applyMode.Load() || e.crashed.Load() {
		return false
	}
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	at, open := e.WAL.BeginCheckpoint()
	snap := e.Txns.TakeSnapshot(nil)
	b := newBase(at, open, snap)

	img := &image{}
	e.mu.RLock()
	for _, d := range e.ddl {
		img.ddl = append(img.ddl, d.text)
	}
	stores := make([]*storage, 0, len(e.stores))
	for _, st := range e.stores {
		stores = append(stores, st)
	}
	e.mu.RUnlock()
	for _, st := range stores {
		ti := tableImage{name: st.table.Name}
		if st.col != nil {
			ti.stripes = st.col.FrozenStripes(e.Txns, snap)
		} else {
			ti.heap = st.heap.Image(e.Txns, snap)
		}
		img.tables = append(img.tables, ti)
	}
	b.Image = img
	return e.WAL.Checkpoint(b)
}

// newBase places a snapshot taken right after the log stood at at, with the
// transactions open then (wal.Log.BeginCheckpoint), in the log: replay of
// the records from Redo, skipping those of the transactions the snapshot
// saw ended, carries what it saw forward.
func newBase(at int64, open map[uint64]int64, snap txn.Snapshot) *wal.Base {
	redo := at
	for _, xid := range snap.InProgress {
		if lsn, ok := open[xid]; ok && lsn < redo {
			redo = lsn
		}
	}
	return &wal.Base{Redo: redo, At: at, Xmax: snap.Xmax, InProgress: snap.InProgress}
}

// CopyStart is the start point of a logical copy of some of the node's
// tables, a shard move's (§3.4): the tuples of each that one snapshot sees —
// a heap table's own bytes, a columnar table's rows encoded as a heap stores
// them (rowbatch.EncodeRow) — and where in the log the stream of what follows
// begins. The copy loads them as they are (Session.CopyTuples), so the
// delete records the stream brings find their tuples byte for byte. It is taken the
// way a checkpoint takes its base: the log's position first, under its
// append lock, which here also holds the log from the first record of every
// transaction then open; the snapshot after. Replaying the records from
// start.Redo, less those of the transactions start.Settled, brings a copy of
// the rows up to date. Release the holder once the copy has caught up.
// The cluster runs in process, so a move reaches the source's log through
// its engine; a networked deployment would use a replication slot created
// with an exported snapshot.
func (e *Engine) CopyStart(tables []string) (start *wal.Base, tuples [][][]byte, h *wal.Holder, err error) {
	h, at, open := e.WAL.BeginHold("shard_move")
	// a transaction in a slot of its own keeps vacuum below the snapshot
	// while it is read; it takes no XID
	proc := e.Txns.NewProc()
	defer proc.Close()
	t := proc.Begin()
	defer e.Txns.Abort(t)
	snap := e.Txns.TakeSnapshot(t)
	for _, name := range tables {
		st, ok := e.store(name)
		if !ok {
			h.Release()
			return nil, nil, nil, fmt.Errorf("relation %q does not exist", name)
		}
		var ts [][]byte
		if st.heap != nil {
			img := st.heap.Image(e.Txns, snap)
			ts = make([][]byte, 0, img.Len())
			img.Each(func(tuple []byte) bool {
				ts = append(ts, tuple)
				return true
			})
		} else {
			st.col.Scan(e.Txns, snap, nil, func(r types.Row) bool {
				var data []byte
				if data, err = rowbatch.EncodeRow(r); err != nil {
					return false
				}
				ts = append(ts, data)
				return true
			})
			if err != nil {
				h.Release()
				return nil, nil, nil, err
			}
		}
		tuples = append(tuples, ts)
	}
	return newBase(at, open, snap), tuples, h, nil
}

// RecoverFrom makes this engine, fresh from New, the continuation of the
// node whose log src is: base image, then the tail up to upTo (0 = the tip),
// its own log carrying on where that history stops (wal.Log.RecoverInto);
// then the end of recovery (FinishRecovery). A restart, a failed-over
// primary coming back as a standby and a restore to a named point all
// recover this way.
func (e *Engine) RecoverFrom(src *wal.Log, upTo int64) error {
	// apply mode: the DDL replayed must not log itself a second time
	was := e.applyMode.Swap(true)
	defer e.applyMode.Store(was)
	if err := src.RecoverInto(e.WAL, e.ReplayTarget(), upTo); err != nil {
		return fmt.Errorf("recovering %s: %w", e.Name, err)
	}
	e.FinishRecovery()
	return nil
}

func (r replayTarget) ApplyBase(b *wal.Base) error {
	img, ok := b.Image.(*image)
	if !ok {
		return fmt.Errorf("replay: a base image of type %T is not an engine's", b.Image)
	}
	for _, ddl := range img.ddl {
		if err := r.ApplyDDL(ddl); err != nil {
			return err
		}
	}
	sess := r.e.NewSession()
	for _, ti := range img.tables {
		store, ok := r.e.store(ti.name)
		if !ok {
			return fmt.Errorf("replay: base image holds relation %q, its DDL does not", ti.name)
		}
		if store.col != nil {
			store.col.Adopt(ti.stripes, bootstrapXID)
			continue
		}
		var err error
		store.mu.Lock()
		ti.heap.Each(func(tuple []byte) bool {
			tid, stored := store.heap.InsertTuple(bootstrapXID, tuple)
			err = sess.insertIndexEntries(store, stored, tid, nil)
			return err == nil
		})
		store.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// The next transaction here must not take an XID the old incarnation
	// gave out: its standbys' clogs know them.
	r.e.Txns.AdvanceXIDBase(b.Xmax)
	return nil
}
