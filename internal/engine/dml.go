package engine

import (
	"cmp"
	"errors"
	"fmt"

	"citusgo/internal/catalog"
	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/lock"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/ssi"
	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// ---------------------------------------------------------------------------
// INSERT

func (s *Session) execInsert(st *sql.InsertStmt, params []types.Datum, t *txn.Txn) (*Result, error) {
	store, err := s.writeTarget(t, st.Table)
	if err != nil {
		return nil, err
	}
	target, err := newInsertTarget(store, st.Table, st.Columns, params)
	if err != nil {
		return nil, err
	}

	var inputRows []types.Row
	if st.Select != nil {
		rows, err := s.runSubquery(st.Select, params)
		if err != nil {
			return nil, err
		}
		inputRows = rows
	} else {
		ctx := s.evalCtx(params)
		for _, exprRow := range st.Rows {
			if len(exprRow) != target.width {
				return nil, fmt.Errorf("INSERT has %d expressions but %d target columns", len(exprRow), target.width)
			}
			row := make(types.Row, len(exprRow))
			for i, e := range exprRow {
				ev, err := expr.Compile(e, nil)
				if err != nil {
					return nil, err
				}
				v, err := ev(ctx)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			inputRows = append(inputRows, row)
		}
	}

	var returning []types.Row
	inserted := 0
	for _, in := range inputRows {
		if len(in) != target.width {
			return nil, fmt.Errorf("INSERT source row has %d columns, expected %d", len(in), target.width)
		}
		full, err := target.build(in)
		if err != nil {
			return nil, err
		}
		ret, didInsert, err := s.insertRow(store, t, full, nil, st, params)
		if err != nil {
			return nil, err
		}
		if didInsert {
			inserted++
		}
		if len(st.Returning) > 0 && ret != nil {
			row, err := s.evalReturning(store, cmp.Or(st.Alias, st.Table), st.Returning, ret, params)
			if err != nil {
				return nil, err
			}
			returning = append(returning, row)
		}
	}
	res := &Result{Tag: fmt.Sprintf("INSERT 0 %d", inserted), Affected: inserted, Rows: returning}
	if len(st.Returning) > 0 {
		res.Columns = returningNames(st.Returning, store)
	}
	return res, nil
}

// insertTarget says where each column of a row an INSERT or a COPY stores
// takes its value from, worked out once per statement: an ordinal of the
// statement's column list, or else the column's DEFAULT, compiled once.
type insertTarget struct {
	table    *catalog.Table
	width    int              // columns in an input row
	input    []int            // per table column: the input ordinal filling it, -1 for none
	defaults []expr.Evaluator // per table column filled by no input: its DEFAULT, nil for none
	ctx      *expr.Ctx
}

// newInsertTarget resolves cols, every column of the table when empty, against
// the table stored in store, which the statement names table.
func newInsertTarget(store *storage, table string, cols []string, params []types.Datum) (*insertTarget, error) {
	tbl := store.table
	if len(cols) == 0 {
		cols = tbl.ColumnNames()
	}
	it := &insertTarget{table: tbl, width: len(cols), input: make([]int, len(tbl.Columns)),
		defaults: make([]expr.Evaluator, len(tbl.Columns)), ctx: &expr.Ctx{Params: params}}
	for i := range it.input {
		it.input[i] = -1
	}
	for i, c := range cols {
		ord := tbl.ColumnIndex(c)
		if ord == -1 {
			return nil, fmt.Errorf("column %q of relation %q does not exist", c, table)
		}
		it.input[ord] = i
	}
	for i, col := range tbl.Columns {
		if it.input[i] != -1 || col.Default == nil {
			continue
		}
		ev, err := expr.Compile(col.Default, nil)
		if err != nil {
			// fails the first row that needs the default, as evaluating it would
			ev = func(*expr.Ctx) (types.Datum, error) { return nil, err }
		}
		it.defaults[i] = ev
	}
	return it, nil
}

// build maps one input row onto the table's full column order, applying
// defaults and type coercion and checking NOT NULL.
func (it *insertTarget) build(in types.Row) (types.Row, error) {
	full := make(types.Row, len(it.table.Columns))
	for i, col := range it.table.Columns {
		if o := it.input[i]; o != -1 {
			full[i] = in[o]
		} else if def := it.defaults[i]; def != nil {
			v, err := def(it.ctx)
			if err != nil {
				return nil, err
			}
			full[i] = v
		}
		if full[i] != nil {
			v, err := expr.CastDatum(full[i], col.Type)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", col.Name, err)
			}
			full[i] = v
		}
		if full[i] == nil && col.NotNull {
			return nil, fmt.Errorf("null value in column %q violates not-null constraint", col.Name)
		}
	}
	return full, nil
}

// insertRow performs the physical insert: foreign key check, unique check
// (with ON CONFLICT handling), heap/columnar write, index maintenance, WAL.
// data is full as another copy of the table encoded it (Session.CopyTuples),
// to be stored byte for byte, or nil to have the heap encode full into its
// page: the one encoding of the row, which the heap and the log both keep.
// st is the INSERT statement, for its ON CONFLICT clause, nil for a COPY.
// Returns the row to use for RETURNING and whether a row was inserted (or
// updated via ON CONFLICT DO UPDATE).
func (s *Session) insertRow(store *storage, t *txn.Txn, full types.Row, data []byte, st *sql.InsertStmt, params []types.Datum) (types.Row, bool, error) {
	if err := s.checkForeignKeys(store, t, full); err != nil {
		return nil, false, err
	}
	ssiW := s.ssiWriter(t)
	if store.col != nil {
		// Columnar readers hold table-granularity SIREAD locks only.
		if err := ssiW.writeProbe(ssi.TableKey(store.table.ID)); err != nil {
			return nil, false, err
		}
		if data == nil {
			var err error
			if data, err = rowbatch.EncodeRow(full); err != nil {
				return nil, false, err
			}
		}
		store.col.Insert(t.EnsureXID(), full)
		t.MarkWrite()
		s.Eng.WAL.Append(wal.Record{Type: wal.RecInsert, XID: t.XID(), Table: store.table.Name, Tuple: data})
		return full, true, nil
	}
	// SIREAD probes for the insert: the table (seq-scan readers) and every
	// index key the new row produces (phantom protection — a reader locked
	// the key it searched even though no tuple existed).
	if ssiW != nil {
		keys := s.indexWriteKeys(store, []ssi.Key{ssi.TableKey(store.table.ID)}, full, params)
		if err := ssiW.writeProbe(keys...); err != nil {
			return nil, false, err
		}
	}

	// Unique checks are serialized per table; a concurrent in-progress
	// insert of the same key counts as a conflict (pessimistic, see
	// DESIGN.md).
	store.mu.Lock()
	conflictTID := heap.NilTID
	var scratch [4]types.Datum
	key := scratch[:0]
	var ctx *expr.Ctx
	for _, bidx := range store.btrees {
		if !bidx.def.Unique {
			continue
		}
		if ctx == nil {
			ctx = &expr.Ctx{Params: params, Row: full}
		}
		var err error
		if key, err = bidx.evalKey(key, ctx); err != nil {
			store.mu.Unlock()
			return nil, false, err
		}
		for _, tid := range store.lookup(bidx, key) {
			tup, ok := store.heap.Get(tid)
			if !ok || tup.Dead() {
				continue
			}
			if s.Eng.Txns.Status(tup.Xmin) == txn.Aborted {
				continue
			}
			if tup.Xmax != 0 {
				// Deleted, or updated: its successor is on the chain, or has
				// an entry of its own if it changed the key. Another's update
				// still in progress counts, as an insert in progress does: it
				// may abort.
				if st := s.Eng.Txns.Status(tup.Xmax); tup.Xmax == t.XID() || st == txn.Committed || st == txn.InProgress && tup.Next == heap.NilTID {
					continue
				}
			}
			conflictTID = tid
			break
		}
		if conflictTID != heap.NilTID {
			break
		}
	}
	if conflictTID != heap.NilTID {
		store.mu.Unlock()
		if st == nil || st.OnConflict == nil {
			return nil, false, fmt.Errorf("duplicate key value violates unique constraint on %q", store.table.Name)
		}
		if len(st.OnConflict.DoUpdate) == 0 {
			return nil, false, nil // DO NOTHING
		}
		row, err := s.conflictUpdate(store, t, conflictTID, full, cmp.Or(st.Alias, st.Table), st.OnConflict.DoUpdate, params)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	var tid heap.TID
	if data != nil {
		tid, data = store.heap.InsertTuple(t.EnsureXID(), data)
	} else {
		var err error
		if tid, data, err = store.heap.Insert(t.EnsureXID(), full); err != nil {
			store.mu.Unlock()
			return nil, false, err
		}
	}
	if err := s.insertIndexEntries(store, data, tid, params); err != nil {
		store.mu.Unlock()
		return nil, false, err
	}
	store.mu.Unlock()
	// A reader's promoted page lock can cover the page the new tuple landed
	// on; probe it now that the TID is known (on failure the transaction
	// aborts, so the already-inserted tuple stays invisible).
	if err := ssiW.writeProbe(ssi.PageKey(store.table.ID, tidPage(tid))); err != nil {
		return nil, false, err
	}
	t.MarkWrite()
	s.Eng.WAL.Append(wal.Record{Type: wal.RecInsert, XID: t.XID(), Table: store.table.Name, Tuple: data})
	return full, true, nil
}

// conflictUpdate implements ON CONFLICT DO UPDATE: the conflicting row is
// locked and updated; name (the target's range name) refers to it and
// "excluded" to the row proposed for insertion.
func (s *Session) conflictUpdate(store *storage, t *txn.Txn, tid heap.TID, excluded types.Row, name string, set []sql.Assignment, params []types.Datum) (types.Row, error) {
	latestTID, tup, exists, err := s.lockAndChase(store, t, tid)
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, nil // row vanished: treat as DO NOTHING
	}
	// scope: table columns then excluded.*
	sc := &scope{}
	for _, c := range store.table.Columns {
		sc.cols = append(sc.cols, scopeCol{table: name, name: c.Name, typ: c.Type})
	}
	for _, c := range store.table.Columns {
		sc.cols = append(sc.cols, scopeCol{table: "excluded", name: c.Name, typ: c.Type})
	}
	newRow := store.fullRow(tup.Row())
	combined := append(append(types.Row{}, newRow...), excluded...)
	ctx := &expr.Ctx{Params: params, Row: combined}
	for _, a := range set {
		ord := store.table.ColumnIndex(a.Column)
		if ord == -1 {
			return nil, fmt.Errorf("column %q does not exist", a.Column)
		}
		ev, err := expr.Compile(a.Value, sc)
		if err != nil {
			return nil, err
		}
		v, err := ev(ctx)
		if err != nil {
			return nil, err
		}
		if v != nil {
			if v, err = expr.CastDatum(v, store.table.Columns[ord].Type); err != nil {
				return nil, err
			}
		}
		newRow[ord] = v
	}
	return newRow, s.writeNewVersion(store, t, latestTID, newRow, params)
}

// checkForeignKeys validates column-level REFERENCES constraints on insert
// (the same local enforcement Citus gets between co-located shards and
// reference table replicas).
func (s *Session) checkForeignKeys(store *storage, t *txn.Txn, row types.Row) error {
	for _, fk := range store.table.ForeignKeys {
		ord := store.table.ColumnIndex(fk.Column)
		if ord == -1 || row[ord] == nil {
			continue
		}
		ref, ok := s.Eng.store(fk.RefTable)
		if !ok {
			return fmt.Errorf("referenced relation %q does not exist", fk.RefTable)
		}
		refCol := fk.RefColumn
		if refCol == "" {
			if len(ref.table.PrimaryKey) != 1 {
				continue
			}
			refCol = ref.table.Columns[ref.table.PrimaryKey[0]].Name
		}
		if !s.refExists(ref, t, refCol, row[ord]) {
			return fmt.Errorf("insert on %q violates foreign key: %s=%s not present in %q",
				store.table.Name, fk.Column, types.Format(row[ord]), fk.RefTable)
		}
	}
	return nil
}

// refExists reports whether a version of ref that t's snapshot sees holds
// val in col, found through a B-tree whose first column is col when ref has
// one. It takes no SIREAD lock.
func (s *Session) refExists(ref *storage, t *txn.Txn, col string, val types.Datum) bool {
	ord := ref.table.ColumnIndex(col)
	if ord == -1 {
		return false
	}
	// an index is searched for val; without one, every row is compared with it
	var path *accessPath
	filter := func(c *expr.Ctx) (types.Datum, error) {
		return ord < len(c.Row) && c.Row[ord] != nil && types.Compare(c.Row[ord], val) == 0, nil
	}
	ref.mu.RLock()
	for _, bidx := range ref.btrees {
		if cr, ok := bidx.def.Exprs[0].(*sql.ColumnRef); ok && cr.Name == col {
			key := func(*expr.Ctx) (types.Datum, error) { return val, nil }
			path, filter = &accessPath{idx: bidx, eqKey: []expr.Evaluator{key}}, nil
			break
		}
	}
	ref.mu.RUnlock()
	ec := &execCtx{sess: s, txn: t, snap: s.snapshot(t), eval: &expr.Ctx{}}
	err := ref.read(ec, path, []int{ord}, filter, func(heap.TID, types.Row) error { return errStop })
	return errors.Is(err, errStop)
}

// evalKey evaluates the index's key over ctx.Row into key's backing array
// and returns it. Callers reuse one key row after row: BTree.Insert copies
// a key in, out of the arrays it was decoded from, and the tree's searches
// only read it.
func (b *btreeIndex) evalKey(key index.Key, ctx *expr.Ctx) (index.Key, error) {
	key = key[:0]
	for _, ev := range b.evals {
		v, err := ev(ctx)
		if err != nil {
			return key, err
		}
		key = append(key, v)
	}
	return key, nil
}

// insertIndexEntries adds tid, whose tuple is data, to every index. Caller
// holds store.mu. The keys are taken from data, decoded into the session's
// scratch, never from the row as it arrived: a COPY frame's decoded rows keep
// each row's strings and documents in an array of that row's, a second copy
// of the tuple, which a key would keep alive.
func (s *Session) insertIndexEntries(store *storage, data []byte, tid heap.TID, params []types.Datum) error {
	if len(store.btrees) == 0 && len(store.gins) == 0 {
		return nil
	}
	ctx := &expr.Ctx{Params: params, Row: s.keyRow.Decode(data)}
	var scratch [4]types.Datum
	key := scratch[:0]
	for _, bidx := range store.btrees {
		var err error
		if key, err = bidx.evalKey(key, ctx); err != nil {
			return err
		}
		bidx.tree.Insert(key, tid)
	}
	for _, g := range store.gins {
		text, ok, err := g.appendKey(s.ginKey[:0], ctx)
		s.ginKey = text
		if err != nil {
			return err
		}
		if ok {
			g.gin.InsertBytes(text, tid)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE

// dmlTarget is one row a DML statement will modify.
type dmlTarget struct {
	tid heap.TID
	row types.Row
}

// targetPlan is what an UPDATE, a DELETE or a SELECT … FOR UPDATE decides
// before it reads a row: the table's scope under the statement's range name,
// the WHERE compiled over it, the access path chosen for the WHERE's
// conjuncts, and an UPDATE's SET list. It reads no parameter value, so a
// statement cache entry keeps it (targetsFor).
type targetPlan struct {
	store *storage
	sc    *scope
	where expr.Evaluator // nil: every row
	path  *accessPath
	sets  []compiledSet
}

// compiledSet is one assignment of an UPDATE's SET list.
type compiledSet struct {
	ord int
	ev  expr.Evaluator
}

// planTargets plans the rows of store that where selects, the table visible
// under rangeName.
func (s *Session) planTargets(store *storage, rangeName string, where sql.Expr) (*targetPlan, error) {
	if store.heap == nil {
		return nil, fmt.Errorf("%q is a columnar table: UPDATE/DELETE are not supported on columnar storage", store.table.Name)
	}
	cols := make([]scopeCol, len(store.table.Columns))
	for i, c := range store.table.Columns {
		cols[i] = scopeCol{name: c.Name, typ: c.Type}
	}
	tp := &targetPlan{store: store, sc: tableScope(rangeName, cols)}
	if where != nil {
		var err error
		if tp.where, err = expr.Compile(where, tp.sc); err != nil {
			return nil, err
		}
	}
	tp.path = s.chooseAccessPath(store, splitConjuncts(where), tp.sc)
	return tp, nil
}

// targetsFor returns the target plan entry keeps, when the schema version
// is still the one entry was parsed under. The check is made here, after
// writeTarget: a write that waited for its relation lock behind a TRUNCATE
// or an ALTER TABLE must not run a plan made before it. Otherwise it plans
// with plan and, unless the entry is stale, keeps the result there.
func (s *Session) targetsFor(entry *cachedStmt, plan func() (*targetPlan, error)) (*targetPlan, error) {
	fresh := entry != nil && entry.ver == s.Eng.schemaVer.Load()
	if fresh && entry.dml != nil {
		return entry.dml, nil
	}
	sp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "plan", "")
	tp, err := plan()
	sp.Finish()
	if err == nil && fresh {
		entry.dml = tp
	}
	return tp, err
}

// errConcurrentUpdate fails a transaction that holds its snapshot when a row
// it would lock was updated since: snapshot isolation's first updater wins.
var errConcurrentUpdate = fmt.Errorf("could not serialize access due to concurrent update: %w", ssi.ErrSerializationFailure)

// lockTargets row-locks the rows tp selects, in one loop for UPDATE, DELETE
// and SELECT … FOR UPDATE: it collects the visible rows matching the WHERE
// through the plan's access path, locks each (lockAndChase), skips a version
// it already locked, and rechecks the WHERE on a version the chase moved to,
// as PostgreSQL's READ COMMITTED does. A transaction that holds its snapshot
// (Session.holdsSnapshot) never chases: a row updated after its snapshot
// fails it with errConcurrentUpdate. visit gets each locked version's TID
// and tuple, and its row.
func (s *Session) lockTargets(tp *targetPlan, ctx *expr.Ctx, t *txn.Txn, visit func(tid heap.TID, tup heap.Tuple, row types.Row) error) error {
	snap := s.snapshot(t)
	ec := &execCtx{sess: s, txn: t, snap: snap, eval: ctx, ssi: s.ssiFor(t, snap)}
	var targets []dmlTarget
	if err := tp.store.read(ec, tp.path, nil, tp.where, func(tid heap.TID, row types.Row) error {
		targets = append(targets, dmlTarget{tid: tid, row: row})
		return nil
	}); err != nil {
		return err
	}
	seen := make(map[heap.TID]struct{})
	for _, tgt := range targets {
		tid, tup, exists, err := s.lockAndChase(tp.store, t, tgt.tid)
		if err != nil {
			return err
		}
		if _, dup := seen[tid]; !exists || dup {
			continue
		}
		seen[tid] = struct{}{}
		// the version the scan decoded, unless the chase moved past it
		row := tgt.row
		if tid != tgt.tid {
			if s.holdsSnapshot() {
				return errConcurrentUpdate
			}
			row = tup.Row()
			ok, err := ec.filterPasses(tp.where, row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := visit(tid, tup, row); err != nil {
			return err
		}
	}
	return nil
}

// lockAndChase acquires the row lock on the version a DML statement will
// modify, reproducing PostgreSQL's READ COMMITTED update semantics
// (EvalPlanQual): when the version is being deleted/updated by a concurrent
// in-progress transaction, we queue on its row lock and wait; when the
// deleter committed, we follow the update chain to the successor version
// and recheck there; when it aborted, we overwrite its xmax.
func (s *Session) lockAndChase(store *storage, t *txn.Txn, tid heap.TID) (heap.TID, heap.Tuple, bool, error) {
	// A row lock makes t a writer: it takes its XID here, as PostgreSQL's
	// row locks, stamped in the tuple, do.
	t.EnsureXID()
	cur := tid
	for {
		tup, ok := store.heap.Get(cur)
		if !ok || tup.Dead() {
			return heap.NilTID, heap.Tuple{}, false, nil
		}
		// Every writer locks a version before stamping its xmax, so
		// acquiring the lock both serializes writers and waits out any
		// in-progress deleter of this version.
		key := lock.Key{Table: store.table.ID, Tuple: int64(cur)}
		var err error
		if s.TraceID != 0 && !s.Eng.Locks.TryAcquire(t.VID, key, lock.Exclusive) {
			// Contended and traced: the blocking wait gets its own span
			// (uncontended acquisitions stay span-free, keeping the hot
			// path cheap and the trace focused on actual waiting).
			sp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "lock_wait", "")
			err = s.Eng.Locks.Acquire(s.Eng.stopCtx, t.VID, key, lock.Exclusive, t.AbortCh())
			sp.Finish()
		} else if s.TraceID == 0 {
			err = s.Eng.Locks.Acquire(s.Eng.stopCtx, t.VID, key, lock.Exclusive, t.AbortCh())
		}
		if err != nil {
			return heap.NilTID, heap.Tuple{}, false, err
		}
		tup, ok = store.heap.Get(cur) // re-read under the lock
		if !ok || tup.Dead() {
			return heap.NilTID, heap.Tuple{}, false, nil
		}
		if s.Eng.Txns.Status(tup.Xmin) == txn.Aborted {
			return heap.NilTID, heap.Tuple{}, false, nil
		}
		switch {
		case tup.Xmax == 0 || tup.Xmax == t.XID() ||
			s.Eng.Txns.Status(tup.Xmax) == txn.Aborted:
			// tip of the chain (an aborted deleter's xmax is overwritable)
			return cur, tup, true, nil
		case s.Eng.Txns.Status(tup.Xmax) == txn.Committed:
			if tup.Next == heap.NilTID {
				return heap.NilTID, heap.Tuple{}, false, nil // row deleted
			}
			cur = tup.Next // updated: chase to the successor
		default:
			// The deleter is in progress, yet this session holds the row
			// lock: a writer that stamped the version without it (one
			// replayed from the log). Wait for its end, then look again.
			if !s.Eng.Txns.WaitEnd(tup.Xmax, t) {
				return heap.NilTID, heap.Tuple{}, false, lock.ErrAborted
			}
		}
	}
}

// writeNewVersion inserts the new row version and links the update chain to
// it, heap-only when the update kept every indexed column (linkVersion), and
// logs the update.
func (s *Session) writeNewVersion(store *storage, t *txn.Txn, oldTID heap.TID, newRow types.Row, params []types.Datum) error {
	ssiW := s.ssiWriter(t)
	old, _ := store.heap.Get(oldTID)
	if ssiW != nil {
		// Probe readers of the old version (any granularity) and of the
		// index keys of both versions: a reader who searched a key the row
		// moves into — or out of — conflicts with this write.
		keys := tupleWriteKeys(store.table.ID, oldTID)
		keys = s.indexWriteKeys(store, keys, newRow, params)
		if old.Data != nil {
			keys = s.indexWriteKeys(store, keys, old.Row(), params)
		}
		if err := ssiW.writeProbe(keys...); err != nil {
			return err
		}
	}
	store.mu.Lock()
	newTID, data, err := store.heap.Insert(t.EnsureXID(), newRow)
	if err == nil {
		err = s.linkVersion(store, t.XID(), oldTID, old.Data, newTID, data, params)
	}
	store.mu.Unlock()
	if err != nil {
		return err
	}
	if err := ssiW.writeProbe(ssi.PageKey(store.table.ID, tidPage(newTID))); err != nil {
		return err
	}
	t.MarkWrite()
	s.Eng.WAL.Append(wal.Record{Type: wal.RecDelete, XID: t.XID(), Table: store.table.Name, Tuple: old.Data})
	s.Eng.WAL.Append(wal.Record{Type: wal.RecInsert, XID: t.XID(), Table: store.table.Name, Tuple: data, Update: true})
	return nil
}

// planUpdate is planTargets with the SET list compiled over the same scope.
func (s *Session) planUpdate(stmt *sql.UpdateStmt, store *storage) (*targetPlan, error) {
	tp, err := s.planTargets(store, cmp.Or(stmt.Alias, stmt.Table), stmt.Where)
	if err != nil {
		return nil, err
	}
	tp.sets = make([]compiledSet, len(stmt.Set))
	for i, a := range stmt.Set {
		ord := store.table.ColumnIndex(a.Column)
		if ord == -1 {
			return nil, fmt.Errorf("column %q of relation %q does not exist", a.Column, stmt.Table)
		}
		ev, err := expr.Compile(a.Value, tp.sc)
		if err != nil {
			return nil, err
		}
		tp.sets[i] = compiledSet{ord: ord, ev: ev}
	}
	return tp, nil
}

func (s *Session) execUpdate(stmt *sql.UpdateStmt, params []types.Datum, t *txn.Txn, entry *cachedStmt) (*Result, error) {
	store, err := s.writeTarget(t, stmt.Table)
	if err != nil {
		return nil, err
	}
	tp, err := s.targetsFor(entry, func() (*targetPlan, error) { return s.planUpdate(stmt, store) })
	if err != nil {
		return nil, err
	}
	ctx := s.evalCtx(params)
	affected := 0
	var returning []types.Row
	err = s.lockTargets(tp, ctx, t, func(tid heap.TID, _ heap.Tuple, old types.Row) error {
		// every SET reads the old version; the values are then written into
		// it, which is this statement's own decoded copy of the tuple
		ctx.Row = old
		var setBuf [8]types.Datum
		vals := setBuf[:0]
		for _, cs := range tp.sets {
			v, err := cs.ev(ctx)
			if err != nil {
				return err
			}
			col := store.table.Columns[cs.ord]
			if v != nil {
				if v, err = expr.CastDatum(v, col.Type); err != nil {
					return fmt.Errorf("column %q: %w", col.Name, err)
				}
			} else if col.NotNull {
				return fmt.Errorf("null value in column %q violates not-null constraint", col.Name)
			}
			vals = append(vals, v)
		}
		newRow := store.fullRow(old)
		for i, cs := range tp.sets {
			newRow[cs.ord] = vals[i]
		}
		if err := s.checkForeignKeys(store, t, newRow); err != nil {
			return err
		}
		if err := s.writeNewVersion(store, t, tid, newRow, params); err != nil {
			return err
		}
		affected++
		if len(stmt.Returning) > 0 {
			row, err := s.evalReturning(store, cmp.Or(stmt.Alias, stmt.Table), stmt.Returning, newRow, params)
			if err != nil {
				return err
			}
			returning = append(returning, row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Tag: fmt.Sprintf("UPDATE %d", affected), Affected: affected, Rows: returning}
	if len(stmt.Returning) > 0 {
		res.Columns = returningNames(stmt.Returning, store)
	}
	return res, nil
}

func (s *Session) execDelete(stmt *sql.DeleteStmt, params []types.Datum, t *txn.Txn, entry *cachedStmt) (*Result, error) {
	store, err := s.writeTarget(t, stmt.Table)
	if err != nil {
		return nil, err
	}
	tp, err := s.targetsFor(entry, func() (*targetPlan, error) {
		return s.planTargets(store, cmp.Or(stmt.Alias, stmt.Table), stmt.Where)
	})
	if err != nil {
		return nil, err
	}
	affected := 0
	ssiW := s.ssiWriter(t)
	err = s.lockTargets(tp, s.evalCtx(params), t, func(tid heap.TID, tup heap.Tuple, old types.Row) error {
		if ssiW != nil {
			keys := s.indexWriteKeys(store, tupleWriteKeys(store.table.ID, tid), old, params)
			if err := ssiW.writeProbe(keys...); err != nil {
				return err
			}
		}
		store.heap.MarkDeleted(tid, t.EnsureXID(), heap.NilTID, false)
		t.MarkWrite()
		s.Eng.WAL.Append(wal.Record{Type: wal.RecDelete, XID: t.XID(), Table: store.table.Name, Tuple: tup.Data})
		affected++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Tag: fmt.Sprintf("DELETE %d", affected), Affected: affected}, nil
}

// execLockingSelect implements SELECT ... FOR UPDATE on a single table.
func (s *Session) execLockingSelect(sel *sql.SelectStmt, params []types.Datum) (*Result, error) {
	bt, ok := sel.From[0].(*sql.BaseTable)
	if !ok {
		return nil, fmt.Errorf("FOR UPDATE is only supported on a single table")
	}
	return s.execDML(func(t *txn.Txn) (*Result, error) {
		// its row locks are a writer's: the relation lock keeps the table
		// from being erased or moved under them
		store, err := s.writeTarget(t, bt.Name)
		if err != nil {
			return nil, err
		}
		tp, err := s.planTargets(store, bt.RefName(), sel.Where)
		if err != nil {
			return nil, err
		}
		items, err := expandStars(sel.Columns, tp.sc)
		if err != nil {
			return nil, err
		}
		evals := make([]expr.Evaluator, len(items))
		names := make([]string, len(items))
		for i, it := range items {
			names[i] = outputName(it)
			if evals[i], err = expr.Compile(it.Expr, tp.sc); err != nil {
				return nil, err
			}
		}
		res := &Result{Columns: names}
		ctx := s.evalCtx(params)
		err = s.lockTargets(tp, ctx, t, func(_ heap.TID, _ heap.Tuple, row types.Row) error {
			ctx.Row = row
			out := make(types.Row, len(evals))
			for i, ev := range evals {
				var err error
				if out[i], err = ev(ctx); err != nil {
					return err
				}
			}
			res.Rows = append(res.Rows, out)
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
		return res, nil
	})
}

// evalReturning evaluates a RETURNING list over row, a row of store's table,
// which the statement calls name.
func (s *Session) evalReturning(store *storage, name string, items []sql.SelectItem, row types.Row, params []types.Datum) (types.Row, error) {
	sc := &scope{}
	for _, c := range store.table.Columns {
		sc.cols = append(sc.cols, scopeCol{table: name, name: c.Name, typ: c.Type})
	}
	expanded, err := expandStars(items, sc)
	if err != nil {
		return nil, err
	}
	out := make(types.Row, len(expanded))
	ctx := &expr.Ctx{Params: params, Row: row}
	for i, it := range expanded {
		ev, err := expr.Compile(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		if out[i], err = ev(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func returningNames(items []sql.SelectItem, store *storage) []string {
	var names []string
	for _, it := range items {
		if it.Star {
			names = append(names, store.table.ColumnNames()...)
			continue
		}
		names = append(names, outputName(it))
	}
	return names
}

// CopyFrom bulk-inserts pre-parsed rows (the COPY protocol's data phase).
// Values are positional per the column list (nil = all columns).
func (s *Session) CopyFrom(table string, columns []string, rows []types.Row) (int, error) {
	metStatements["copy"].Inc()
	if s.txnFailed {
		return 0, errTxnAborted
	}
	if hook := s.Eng.CopyHook; hook != nil {
		handled, n, err := hook(s, table, columns, rows)
		if handled {
			return n, err
		}
	}
	n := 0
	err := s.WithTxn(func(t *txn.Txn) error {
		store, err := s.writeTarget(t, table)
		if err != nil {
			return err
		}
		target, err := newInsertTarget(store, table, columns, nil)
		if err != nil {
			return err
		}
		for _, in := range rows {
			full, err := target.build(in)
			if err == nil {
				_, _, err = s.insertRow(store, t, full, nil, nil, nil)
			}
			if err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// CopyTuples bulk-inserts tuples as another copy of the table stored them
// (Engine.CopyStart): a shard move's snapshot copy. Each is stored as it is,
// so the delete records the move's catch-up brings find it byte for byte; one
// written before an ALTER TABLE … ADD COLUMN stays as short as it was.
func (s *Session) CopyTuples(table string, tuples [][]byte) (int, error) {
	n := 0
	err := s.WithTxn(func(t *txn.Txn) error {
		store, err := s.writeTarget(t, table)
		if err != nil {
			return err
		}
		for _, data := range tuples {
			if _, _, err := s.insertRow(store, t, store.fullRow(rowbatch.DecodeRow(data)), data, nil, nil); err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// writeTarget resolves the table a write (or a SELECT … FOR UPDATE) names
// and takes t's shared relation lock on it, held to the end of t like a row
// lock. DDL that would
// erase or reshape the rows (TRUNCATE, DROP TABLE, ALTER TABLE) and a shard
// move's write block take the lock exclusively, so they wait for t and t
// waits for them. A write that waited resolves the name again: the holder
// may have dropped the table, or moved it to another node and dropped this
// copy. The statement then fails with ErrRelationGone having done nothing.
func (s *Session) writeTarget(t *txn.Txn, name string) (*storage, error) {
	store, ok := s.Eng.store(name)
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", name)
	}
	key := lock.TableKey(store.table.ID)
	if s.Eng.Locks.TryAcquire(t.VID, key, lock.Shared) {
		return store, nil
	}
	sp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "lock_wait", "")
	err := s.Eng.Locks.Acquire(s.Eng.stopCtx, t.VID, key, lock.Shared, t.AbortCh())
	sp.Finish()
	if err != nil {
		return nil, err
	}
	if now, ok := s.Eng.store(name); !ok || now != store {
		return nil, fmt.Errorf("relation %q does not exist: %w", name, ErrRelationGone)
	}
	return store, nil
}

// ErrRelationGone fails a write that waited for its table's relation lock
// and found the table gone. The write has done nothing, so its transaction
// stays usable: a coordinator plans the statement again against the shard's
// new placement (a move) or reports the drop.
var ErrRelationGone = errors.New("it was dropped or moved while the write waited for its lock")
