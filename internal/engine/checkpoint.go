package engine

import (
	"fmt"

	"citusgo/internal/columnar"
	"citusgo/internal/heap"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// image is what a checkpoint captures of a node (wal.Base.Image): the schema
// as the DDL that built it, and of every table what one snapshot saw
// committed. It copies no row and no column: a heap table's rows are the
// slices its tuples hold, a columnar table's stripes are the table's own,
// frozen. Both are immutable, so the image, the engine it was taken from and
// any engine later rebuilt from it share them.
type image struct {
	ddl    []string
	tables []tableImage
}

type tableImage struct {
	name    string
	rows    []types.Row           // heap
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
	redo := at
	for xid := range snap.InProgress {
		if lsn, ok := open[xid]; ok && lsn < redo {
			redo = lsn
		}
	}

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
			// AllTuples, not Scan: the walk is not a query and must not
			// evict what queries keep in the buffer pool
			ti.rows = make([]types.Row, 0, max(st.heap.EstimatedRows(), 0))
			st.heap.AllTuples(func(_ heap.TID, tup heap.Tuple) bool {
				if heap.Visible(e.Txns, snap, tup) {
					ti.rows = append(ti.rows, tup.Row)
				}
				return true
			})
		}
		img.tables = append(img.tables, ti)
	}
	return e.WAL.Checkpoint(&wal.Base{
		Redo: redo, At: at,
		Xmax: snap.Xmax, InProgress: snap.InProgress,
		Image: img,
	})
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
		store.mu.Lock()
		for _, row := range ti.rows {
			tid := store.heap.Insert(bootstrapXID, row)
			if err := sess.insertIndexEntries(store, row, tid, nil); err != nil {
				store.mu.Unlock()
				return err
			}
		}
		store.mu.Unlock()
	}
	// The next transaction here must not take an XID the old incarnation
	// gave out: its standbys' clogs know them.
	r.e.Txns.AdvanceXIDBase(b.Xmax)
	return nil
}
