package engine

import (
	"slices"

	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// Heap-only tuples (HOT, DESIGN.md §2.2). An update whose new version holds
// the same bytes as the old in every column some index reads is heap-only:
// no index is told of it, and the old version's HOT link is how a reader
// gets there from the entry of the chain's first version, its root. So every
// version of a HOT chain has one key in every index, and an index keeps one
// entry per chain however often its rows are updated. st.mu orders the
// three that move entries and links together — an update's writer, vacuum
// and CREATE INDEX hold it exclusively — against the readers of an index,
// who hold it shared from their search until they have walked the chains
// (storage.versions).

var metUpdates = obs.Default().Counter("engine_updates_total",
	"row updates by kind: hot (heap-only, no index entry) or indexed", "kind")

var (
	metHOTUpdates     = metUpdates.With("hot")
	metIndexedUpdates = metUpdates.With("indexed")
)

// indexColumns returns the ordinals of the columns of st's table that exprs,
// an index's key, read, ascending — every column when it cannot tell: an
// expression it does not see into, or a name that is not a column.
func (st *storage) indexColumns(exprs []sql.Expr) []int {
	var cols []int
	known := true
	for _, e := range exprs {
		expr.WalkExpr(e, func(x sql.Expr) bool {
			switch n := x.(type) {
			case *sql.ColumnRef:
				ord := st.table.ColumnIndex(n.Name)
				cols, known = append(cols, ord), known && ord >= 0
			case *sql.SubqueryExpr, *sql.ExistsExpr:
				known = false
			case *sql.InExpr:
				known = known && n.Subquery == nil
			}
			return known
		})
	}
	if !known {
		cols = cols[:0]
		for i := range st.table.Columns {
			cols = append(cols, i)
		}
	}
	slices.Sort(cols)
	return slices.Compact(cols)
}

// setIndexes recomputes st.hotCols, the columns some index of st reads.
// Caller holds st.mu and calls it whenever an index is added or dropped.
func (st *storage) setIndexes() {
	var cols []int
	for _, b := range st.btrees {
		cols = append(cols, st.indexColumns(b.def.Exprs)...)
	}
	for _, g := range st.gins {
		cols = append(cols, st.indexColumns(g.def.Exprs)...)
	}
	slices.Sort(cols)
	st.hotCols = slices.Compact(cols)
}

// versions appends to dst, for each TID an index holds in tids, that TID and
// the heap-only versions its HOT chain links it to (heap.Table.HOTChain,
// which rechecks each against the root). The caller holds st.mu, shared or
// exclusive, from reading the index until versions returns: vacuum moves an
// entry and reclaims the root it pointed at under st.mu, so a TID read
// before that and walked after it would find the chain gone.
func (st *storage) versions(dst, tids []heap.TID) []heap.TID {
	for _, tid := range tids {
		dst = st.heap.HOTChain(dst, tid, st.hotCols)
	}
	return dst
}

// searchVersions is lookup under st.mu.
func (st *storage) searchVersions(b *btreeIndex, key index.Key) []heap.TID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookup(b, key)
}

// lookup is versions of what a B-tree search finds, walked from the leaf:
// the entries under key, every key column given, or — when key is a prefix
// — under each key it begins. Caller holds st.mu.
func (st *storage) lookup(b *btreeIndex, key index.Key) (tids []heap.TID) {
	visit := func(roots []heap.TID) { tids = st.versions(tids, roots) }
	if len(key) == len(b.evals) {
		b.tree.SearchEqual(key, visit)
	} else {
		b.tree.SearchPrefix(key, func(roots []heap.TID) bool { visit(roots); return true })
	}
	return tids
}

// linkVersion makes the version at newTID, whose bytes are data, the
// successor of the one at oldTID, whose bytes are old, for transaction xid.
// When the two hold the same bytes in every column an index reads
// (st.hotCols) the update is heap-only and no index is told; otherwise every
// index gets an entry for the new version. Every update takes this one path,
// a writer's and a replayed one's alike, so a standby, a restarted node and a
// moved shard make the choice the primary made. Caller holds st.mu.
func (s *Session) linkVersion(st *storage, xid uint64, oldTID heap.TID, old []byte, newTID heap.TID, data []byte, params []types.Datum) error {
	hot := old != nil && rowbatch.SameColumns(old, data, st.hotCols)
	st.heap.MarkDeleted(oldTID, xid, newTID, hot)
	if hot {
		metHOTUpdates.Inc()
		return nil
	}
	metIndexedUpdates.Inc()
	return s.insertIndexEntries(st, data, newTID, params)
}

// repointer returns the callback vacuum calls for each root of a HOT chain
// it reclaims, before it clears the root's slot: the root's entries move to
// the chain's first version that stays — a B-tree entry in place, keeping
// its key and its leaf; a GIN entry taken out and put back under the same
// trigrams — or, when the chain ended, are removed. Caller holds st.mu.
func (st *storage) repointer() func(root heap.TID, data []byte, to heap.TID) {
	var key index.Key
	var text []byte
	var scratch rowbatch.Decoder
	ctx := &expr.Ctx{}
	return func(root heap.TID, data []byte, to heap.TID) {
		ctx.Row = scratch.Decode(data)
		for _, b := range st.btrees {
			var err error
			if key, err = b.evalKey(key, ctx); err != nil {
				continue
			}
			if to == heap.NilTID {
				b.tree.Remove(key, root)
			} else {
				b.tree.Repoint(key, root, to)
			}
		}
		for _, g := range st.gins {
			// the index keeps no text: recompute what was indexed
			var ok bool
			if text, ok, _ = g.appendKey(text[:0], ctx); ok {
				g.gin.RemoveBytes(text, root)
				if to != heap.NilTID {
					g.gin.InsertBytes(text, to)
				}
			}
		}
	}
}

// backfill gives a new index, registered in st and reading the columns cols,
// its entries: insert adds one version's. Each root gets one; a heap-only
// version whose bytes in cols are its predecessor's is reached through the
// HOT link, as every other index reaches it; one whose bytes differ becomes
// a root of its own — the link to it is cut (heap.Table.BreakHOT) and every
// index, the new one too, gets its entry — so that a chain keeps one key in
// every index. A heap-only version no link reaches (its creator aborted) gets
// none. Caller holds st.mu.
func (s *Session) backfill(st *storage, cols []int, insert func(ctx *expr.Ctx, tid heap.TID) error) error {
	type link struct {
		tid  heap.TID
		data []byte
	}
	preds := map[heap.TID]link{} // a HOT link's target, to the version it leaves
	var err error
	var scratch rowbatch.Decoder
	ctx := &expr.Ctx{}
	st.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
		if tup.HeapOnly {
			pred, linked := preds[tid]
			delete(preds, tid)
			if linked && !rowbatch.SameColumns(pred.data, tup.Data, cols) {
				st.heap.BreakHOT(pred.tid)
				err = s.insertIndexEntries(st, tup.Data, tid, nil)
			}
		} else {
			ctx.Row = scratch.Decode(tup.Data)
			err = insert(ctx, tid)
		}
		if tup.HOT {
			preds[tup.Next] = link{tid, tup.Data}
		}
		return err == nil
	})
	return err
}
