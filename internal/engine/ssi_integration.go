package engine

// SSI integration: sessions running under `SET transaction_isolation =
// 'serializable'` register with the node's ssi.Manager. The read path
// (storage.read: scans, DML targets) takes SIREAD locks and records
// read-side rw-antidependencies; write paths (insert, new-version
// write, delete) probe the SIREAD table for readers of what they overwrite.
// The dangerous-structure check runs in the transaction's pre-commit
// callback — and, for 2PC participants, at PREPARE TRANSACTION, which is
// the moment a worker's vote becomes irrevocable. See docs/ssi.md.

import (
	"hash/fnv"
	"strings"

	"citusgo/internal/expr"
	"citusgo/internal/fault"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/ssi"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// DoomByDistID marks the local member of a distributed transaction for
// abort at commit (the coordinator's cluster-wide pivot abort). Unlike
// CancelByDistID it does not interrupt the transaction — it fails its
// commit with a retryable serialization error instead.
func (e *Engine) DoomByDistID(distID string) bool {
	return e.SSI.Doom(distID)
}

// SSIWireEdges exports this node's cross-shard rw-antidependency edges for
// the coordinator's merged conflict graph.
func (e *Engine) SSIWireEdges() []ssi.WireEdge { return e.SSI.Export() }

// SSISessions exports per-transaction SSI state for citus_stat_ssi().
func (e *Engine) SSISessions() []ssi.SessionState { return e.SSI.Sessions() }

// Serializable reports whether transactions of the session run SERIALIZABLE
// now: the client set it on the session, or a coordinator opened the current
// block with it (OpenBlock). The distributed layer propagates it to worker
// sessions and runs the coordinator-side merged conflict-graph check.
func (s *Session) Serializable() bool {
	return s.block.serializable || strings.EqualFold(s.Settings["transaction_isolation"], "serializable")
}

// RepeatableRead reports whether transactions of the session run REPEATABLE
// READ: every statement under the snapshot its first one took.
func (s *Session) RepeatableRead() bool {
	return s.block.repeatableRead || strings.EqualFold(s.Settings["transaction_isolation"], "repeatable read")
}

// ssiTracked reports whether the session's transactions get SSI tracking:
// they run SERIALIZABLE and the engine has SSI on. With Features.NoSSI,
// SERIALIZABLE is accepted and runs under plain snapshot isolation.
func (s *Session) ssiTracked() bool {
	return s.Serializable() && !s.Eng.Features().NoSSI
}

// maybeRegisterSSI enrolls the transaction in SSI tracking if the session
// runs serializable. Idempotent — called both from ensureTxn and from the
// SET handler, because a client may set the level inside the block it
// opened.
func (s *Session) maybeRegisterSSI(t *txn.Txn) {
	if t == nil || !s.ssiTracked() {
		return
	}
	e := s.Eng
	st, isNew := e.SSI.Register(t)
	if !isNew {
		return
	}
	t.OnPreCommit(func() error {
		if err := fault.CheckKey(fault.PointSSICheck, t.DistID()); err != nil {
			return err
		}
		return e.SSI.PreCommit(st)
	})
	t.OnEnd(func(committed bool) { e.SSI.Finish(st, committed) })
}

// ssiState returns the transaction's SSI state, or nil when it is not
// tracked (session not serializable, or SSI disabled).
func (s *Session) ssiState(t *txn.Txn) *ssi.TxnState {
	if t == nil || !s.ssiTracked() {
		return nil
	}
	return s.Eng.SSI.StateFor(t.VID)
}

// finalizePreparedSSI closes out SSI tracking for a prepared transaction:
// FinishPrepared flips only the clog, it never runs transaction callbacks
// (the session detached at PREPARE), so the engine finalizes explicitly.
func (e *Engine) finalizePreparedSSI(xid uint64, committed bool) {
	if st := e.SSI.StateFor(xid); st != nil {
		e.SSI.Finish(st, committed)
	}
}

// ssiHooks is the per-statement bundle the scan and DML paths consult. A
// nil *ssiHooks is inert, so call sites stay unconditional.
type ssiHooks struct {
	eng  *Engine
	st   *ssi.TxnState
	snap txn.Snapshot
}

// ssiFor builds the statement hooks for the given snapshot, or nil when the
// transaction is not SSI-tracked.
func (s *Session) ssiFor(t *txn.Txn, snap txn.Snapshot) *ssiHooks {
	st := s.ssiState(t)
	if st == nil {
		return nil
	}
	return &ssiHooks{eng: s.Eng, st: st, snap: snap}
}

func tidPage(tid heap.TID) int32 { return int32(int64(tid) / heap.TuplesPerPage) }

// lockTable takes a table-granularity SIREAD lock (seq scans, range scans,
// GIN scans, columnar scans — anything with phantom exposure beyond a
// single key).
func (h *ssiHooks) lockTable(tableID int64) {
	if h == nil {
		return
	}
	h.eng.SSI.OnRead(h.st, ssi.TableKey(tableID))
}

// lockTuple takes a tuple-granularity SIREAD lock (index point reads).
func (h *ssiHooks) lockTuple(tableID int64, tid heap.TID) {
	if h == nil {
		return
	}
	h.eng.SSI.OnRead(h.st, ssi.TupleKey(tableID, int64(tid), tidPage(tid)))
}

// lockIndexKey locks the searched index key itself — phantom protection: an
// insert later producing this key probes the same hash.
func (h *ssiHooks) lockIndexKey(tableID int64, idxName, key string) {
	if h == nil {
		return
	}
	h.eng.SSI.OnRead(h.st, ssi.IndexKey(tableID, ssiKeyHash(idxName, key)))
}

// observe records read-side rw-antidependencies for a tuple version's
// stamps: a writer that is neither visible to our snapshot nor aborted is
// concurrent, and reading around its write is a conflict-out edge.
func (h *ssiHooks) observe(xmin, xmax uint64) error {
	if h == nil {
		return nil
	}
	if err := h.observeOne(xmin); err != nil {
		return err
	}
	if xmax != 0 {
		return h.observeOne(xmax)
	}
	return nil
}

func (h *ssiHooks) observeOne(xid uint64) error {
	if xid == 0 || xid == h.snap.Self {
		return nil
	}
	if h.eng.Txns.Sees(h.snap, xid) {
		return nil // committed before our snapshot: not concurrent
	}
	if h.eng.Txns.Status(xid) == txn.Aborted {
		return nil
	}
	return h.eng.SSI.ConflictOut(h.st, xid)
}

// observeTuple is observe over a heap tuple.
func (h *ssiHooks) observeTuple(tup heap.Tuple) error {
	if h == nil {
		return nil
	}
	return h.observe(tup.Xmin, tup.Xmax)
}

// writeProbe reports the write to the SIREAD table: every concurrent reader
// of any of the keys gets an rw-antidependency edge toward this txn.
func (h *ssiHooks) writeProbe(keys ...ssi.Key) error {
	if h == nil {
		return nil
	}
	return h.eng.SSI.OnWrite(h.st, keys...)
}

// tupleWriteKeys enumerates the SIREAD probe targets covering one tuple
// write: the tuple itself plus its page and table (a reader may hold any
// promotion granularity).
func tupleWriteKeys(tableID int64, tid heap.TID) []ssi.Key {
	return []ssi.Key{
		ssi.TupleKey(tableID, int64(tid), tidPage(tid)),
		ssi.PageKey(tableID, tidPage(tid)),
		ssi.TableKey(tableID),
	}
}

// ssiWriter builds write-probe hooks (no snapshot needed), or nil when the
// transaction is not SSI-tracked.
func (s *Session) ssiWriter(t *txn.Txn) *ssiHooks {
	st := s.ssiState(t)
	if st == nil {
		return nil
	}
	return &ssiHooks{eng: s.Eng, st: st}
}

// indexWriteKeys appends the index-key probes for a row's index entries: an
// insert or new version colliding with a key some reader searched. The hash
// input matches lockIndexKey's exactly.
func (s *Session) indexWriteKeys(store *storage, keys []ssi.Key, row types.Row, params []types.Datum) []ssi.Key {
	store.mu.RLock()
	defer store.mu.RUnlock()
	for _, bidx := range store.btrees {
		key, err := bidx.evalKey(nil, &expr.Ctx{Params: params, Row: row})
		if err != nil {
			continue
		}
		keys = append(keys, ssi.IndexKey(store.table.ID, ssiKeyHash(bidx.def.Name, indexKeyString(key))))
	}
	return keys
}

// indexKeyString formats an index search key deterministically for SIREAD
// key hashing (shared by the index-scan read side and the write probes).
func indexKeyString(key index.Key) string {
	var sb strings.Builder
	for _, v := range key {
		if v == nil {
			sb.WriteString("\x00N")
		} else {
			sb.WriteString(types.Format(v))
		}
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

// ssiKeyHash hashes an (index, search key) pair into the SIREAD key space.
func ssiKeyHash(idxName, key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(idxName))
	f.Write([]byte{0})
	f.Write([]byte(key))
	return f.Sum64()
}
