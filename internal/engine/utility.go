package engine

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"citusgo/internal/catalog"
	"citusgo/internal/columnar"
	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/lock"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// execUtility handles statements that do not go through the planner. The
// UtilityHook runs first, mirroring PostgreSQL's ProcessUtility hook that
// Citus uses to intercept DDL and COPY on distributed tables (§3.1).
func (s *Session) execUtility(stmt sql.Statement, params []types.Datum) (*Result, error) {
	if hook := s.Eng.UtilityHook; hook != nil {
		handled, res, err := hook(s, stmt, params)
		if err != nil {
			return nil, s.statementFailed(err)
		}
		if handled {
			return res, nil
		}
	}
	if st, ok := stmt.(*sql.CallStmt); ok {
		return s.execCall(st, params)
	}
	return s.ExecUtilityLocal(stmt)
}

// ExecUtilityLocal applies a utility statement on this node only. The
// distributed layer calls this after propagating DDL to shards.
func (s *Session) ExecUtilityLocal(stmt sql.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *sql.CreateTableStmt:
		if err := s.Eng.CreateTable(st); err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "CREATE TABLE"}, nil
	case *sql.CreateIndexStmt:
		if err := s.Eng.CreateIndex(st); err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "CREATE INDEX"}, nil
	case *sql.DropTableStmt:
		if err := s.exclusive(st.Name, func() error { return s.Eng.DropTable(st.Name, st.IfExists) }); err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "DROP TABLE"}, nil
	case *sql.DropIndexStmt:
		table, ok := s.Eng.Catalog.IndexTable(st.Name)
		if !ok {
			if st.IfExists {
				return &Result{Tag: "DROP INDEX"}, nil
			}
			return nil, s.statementFailed(fmt.Errorf("index %q does not exist", st.Name))
		}
		if err := s.exclusive(table, func() error { return s.Eng.DropIndex(table, st) }); err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "DROP INDEX"}, nil
	case *sql.TruncateStmt:
		err := s.exclusive(st.Name, func() error {
			store, ok := s.Eng.store(st.Name)
			if !ok {
				return fmt.Errorf("relation %q does not exist", st.Name)
			}
			s.Eng.truncateStorage(store)
			return nil
		})
		if err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "TRUNCATE TABLE"}, nil
	case *sql.AlterTableAddColumnStmt:
		if err := s.exclusive(st.Table, func() error { return s.Eng.addColumn(st) }); err != nil {
			return nil, s.statementFailed(err)
		}
		return &Result{Tag: "ALTER TABLE"}, nil
	case *sql.VacuumStmt:
		n := s.Eng.Vacuum(st.Table)
		return &Result{Tag: fmt.Sprintf("VACUUM %d", n), Affected: n}, nil
	case *sql.CopyStmt:
		return nil, fmt.Errorf("COPY FROM STDIN requires the streaming protocol; use Session.CopyFrom")
	}
	return nil, fmt.Errorf("unsupported statement %T", stmt)
}

// exclusive runs DDL that erases or reshapes a table's rows under the
// table's exclusive relation lock, held to the end of the session's
// transaction (the statement's own outside a block): it waits for the
// writers holding the lock, and the writers that come after wait for it.
// Replay takes no lock: the log it applies has ordered its DDL already.
func (s *Session) exclusive(table string, ddl func() error) error {
	if s.Eng.applyMode.Load() {
		return ddl()
	}
	return s.WithTxn(func(t *txn.Txn) error {
		if _, err := s.lockExclusive(t, table); err != nil {
			return err
		}
		return ddl() // a missing table is the DDL's to report (IF EXISTS)
	})
}

// lockExclusive takes t's exclusive relation lock on table, reporting
// whether there is such a table.
func (s *Session) lockExclusive(t *txn.Txn, table string) (bool, error) {
	store, ok := s.Eng.store(table)
	if !ok {
		return false, nil
	}
	return true, s.Eng.Locks.Acquire(s.Eng.stopCtx, t.VID, lock.TableKey(store.table.ID), lock.Exclusive, t.AbortCh())
}

// LockExclusive takes the exclusive relation lock on each table, in order,
// for the session's open transaction block, which keeps them to its end —
// PostgreSQL's LOCK TABLE. A shard move takes it on the source shards of the
// group it is about to flip (§3.4): it waits out their open and prepared
// writers, and holds off every later one, whichever coordinator sent it.
func (s *Session) LockExclusive(tables ...string) error {
	if !s.InTransaction() {
		return fmt.Errorf("LOCK TABLE can only be used in transaction blocks")
	}
	for _, name := range tables {
		found, err := s.lockExclusive(s.txn, name)
		if err == nil && !found {
			err = fmt.Errorf("relation %q does not exist", name)
		}
		if err != nil {
			return s.statementFailed(err)
		}
	}
	return nil
}

// CancelWaiters cancels the transactions queued on the relation locks of the
// tables. A shard move whose source copy survives the flip (its drop failed)
// calls it before it ends its write block: the writes it held off were
// planned against the old placement, and must not land on the orphan.
func (e *Engine) CancelWaiters(tables ...string) {
	for _, name := range tables {
		if store, ok := e.store(name); ok {
			for _, vid := range e.Locks.Waiters(lock.TableKey(store.table.ID)) {
				if t, ok := e.Txns.ByVID(vid); ok {
					t.Cancel()
				}
			}
		}
	}
}

func (s *Session) execCall(st *sql.CallStmt, params []types.Datum) (*Result, error) {
	proc, ok := s.Eng.function(st.Name)
	if !ok {
		return nil, s.statementFailed(fmt.Errorf("procedure %q does not exist", st.Name))
	}
	if proc.Columns != nil {
		return nil, s.statementFailed(fmt.Errorf("%s is not a procedure", proc.Name))
	}
	// the arguments, their subqueries included, and the procedure's
	// statements run in the CALL's transaction
	defer func(was bool) { s.inCall = was }(s.inCall)
	s.inCall = true
	return s.execDML(func(*txn.Txn) (*Result, error) {
		args, err := proc.args(st.Args, s.evalCtx(params))
		if err != nil {
			return nil, err
		}
		if _, err := proc.Call(s, args); err != nil {
			return nil, err
		}
		return &Result{Tag: "CALL"}, nil
	})
}

func (e *Engine) addColumn(st *sql.AlterTableAddColumnStmt) error {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	col := catalog.Column{
		Name:    st.Column.Name,
		Type:    st.Column.Type,
		NotNull: st.Column.NotNull,
		Default: st.Column.Default,
	}
	if _, err := e.Catalog.AddColumn(st.Table, col); err != nil {
		return err
	}
	e.logDDL(st.Table, st.String(), false)
	e.bumpSchemaVersion()
	return nil
}

// CreateTable creates a table with its storage and primary key index.
func (e *Engine) CreateTable(st *sql.CreateTableStmt) error {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	tbl, err := e.Catalog.Create(st)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if _, exists := e.stores[tbl.Name]; exists {
		e.mu.Unlock()
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("relation %q already exists", tbl.Name)
	}
	store := &storage{
		table:  tbl,
		btrees: make(map[string]*btreeIndex),
		gins:   make(map[string]*ginIndex),
	}
	if tbl.Using == "columnar" {
		store.col = columnar.NewTable(tbl.ID, len(tbl.Columns), e.Pool)
	} else {
		store.heap = heap.NewTable(tbl.ID, e.Pool)
	}
	e.stores[tbl.Name] = store
	e.mu.Unlock()

	for _, def := range tbl.Indexes {
		if err := e.attachIndex(store, def, false); err != nil {
			return err
		}
	}
	e.logDDL(tbl.Name, st.String(), false)
	e.bumpSchemaVersion()
	return nil
}

// CreateIndex creates and backfills an index.
func (e *Engine) CreateIndex(st *sql.CreateIndexStmt) error {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	def := &catalog.IndexDef{
		Name:   st.Name,
		Table:  st.Table,
		Using:  st.Using,
		Exprs:  st.Exprs,
		Unique: st.Unique,
	}
	store, ok := e.store(st.Table)
	if !ok {
		return fmt.Errorf("relation %q does not exist", st.Table)
	}
	if _, err := e.Catalog.AddIndex(def); err != nil {
		if st.IfNotExists {
			return nil
		}
		return err
	}
	if err := e.attachIndex(store, def, true); err != nil {
		return err
	}
	e.logDDL(st.Table, st.String(), false)
	e.bumpSchemaVersion()
	return nil
}

// attachIndex compiles the index expressions and optionally backfills from
// existing rows, under store.mu: no write, no vacuum and no reader of an
// index runs until the new index holds every row (hot.go).
func (e *Engine) attachIndex(store *storage, def *catalog.IndexDef, backfill bool) error {
	if store.col != nil {
		return fmt.Errorf("columnar table %q does not support indexes", store.table.Name)
	}
	sc := &scope{}
	for _, c := range store.table.Columns {
		sc.cols = append(sc.cols, scopeCol{table: store.table.Name, name: c.Name, typ: c.Type})
	}
	var register func()
	var insert func(ctx *expr.Ctx, tid heap.TID) error
	switch def.Using {
	case "gin":
		if len(def.Exprs) != 1 {
			return fmt.Errorf("gin index %q must have exactly one key expression", def.Name)
		}
		ev, err := expr.Compile(def.Exprs[0], sc)
		if err != nil {
			return err
		}
		g := &ginIndex{def: def, gin: index.NewGIN(), eval: ev}
		if d, ok := compileDerived(def.Exprs[0], sc); ok && d.textValued() {
			g.derived = d
		}
		register = func() { store.gins[def.Name] = g }
		var key []byte
		insert = func(ctx *expr.Ctx, tid heap.TID) error {
			var ok bool
			var err error
			if key, ok, err = g.appendKey(key[:0], ctx); ok {
				g.gin.InsertBytes(key, tid)
			}
			return err
		}
	case "", "btree":
		evals := make([]expr.Evaluator, len(def.Exprs))
		for i, x := range def.Exprs {
			ev, err := expr.Compile(x, sc)
			if err != nil {
				return err
			}
			evals[i] = ev
		}
		b := &btreeIndex{def: def, tree: index.NewBTree(len(evals)), evals: evals}
		register = func() { store.btrees[def.Name] = b }
		var key index.Key
		insert = func(ctx *expr.Ctx, tid heap.TID) error {
			var err error
			if key, err = b.evalKey(key, ctx); err == nil {
				b.tree.Insert(key, tid)
			}
			return err
		}
	default:
		return fmt.Errorf("unsupported index access method %q", def.Using)
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	register()
	var err error
	if backfill {
		err = e.NewSession().backfill(store, store.indexColumns(def.Exprs), insert)
	}
	store.setIndexes()
	return err
}

// DropIndex drops the B-tree or GIN index st names from table, which has
// it, unless st says IF EXISTS and it has gone since. A primary key's index
// stays: the key needs it.
func (e *Engine) DropIndex(table string, st *sql.DropIndexStmt) error {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	store, ok := e.store(table)
	if ok && st.Name == table+"_pkey" && len(store.table.PrimaryKey) > 0 {
		return fmt.Errorf("cannot drop index %q: the primary key of %q needs it", st.Name, table)
	}
	if !ok || e.Catalog.DropIndex(table, st.Name) != nil {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("index %q does not exist", st.Name)
	}
	store.mu.Lock()
	delete(store.btrees, st.Name)
	delete(store.gins, st.Name)
	store.setIndexes()
	store.mu.Unlock()
	e.logDDL(table, st.String(), false)
	// a kept plan that searches the index must be made again
	e.bumpSchemaVersion()
	return nil
}

// DropTable removes a table and its storage.
func (e *Engine) DropTable(name string, ifExists bool) error {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	e.mu.Lock()
	store, ok := e.stores[name]
	if ok {
		delete(e.stores, name)
		e.ddl = slices.DeleteFunc(e.ddl, func(d ddlEntry) bool { return d.table == name })
	}
	e.mu.Unlock()
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("relation %q does not exist", name)
	}
	e.Catalog.Drop(name)
	if store.heap != nil {
		store.heap.Truncate()
	}
	if store.col != nil {
		store.col.Truncate()
	}
	e.logDDL(name, "DROP TABLE "+name, true)
	e.bumpSchemaVersion()
	return nil
}

func (e *Engine) truncateStorage(store *storage) {
	e.ddlMu.RLock()
	defer e.ddlMu.RUnlock()
	store.mu.Lock()
	defer store.mu.Unlock()
	if store.heap != nil {
		store.heap.Truncate()
	}
	if store.col != nil {
		store.col.Truncate()
	}
	for name, b := range store.btrees {
		store.btrees[name] = &btreeIndex{def: b.def, tree: index.NewBTree(len(b.evals)), evals: b.evals}
	}
	for name, g := range store.gins {
		empty := *g
		empty.gin = index.NewGIN()
		store.gins[name] = &empty
	}
	e.logDDL(store.table.Name, "TRUNCATE "+store.table.Name, true)
	// the index objects are new: a kept plan must not probe the old ones
	e.bumpSchemaVersion()
}

// Vacuum reclaims dead tuples table-wide or for one table, moving or
// removing the index entries of the reclaimed versions (storage.repointer).
// Returns the reclaimed tuple count.
// This is the operation whose single-threadedness in PostgreSQL motivates
// the paper's observation that sharding parallelizes auto-vacuum (§2.3).
func (e *Engine) Vacuum(table string) int {
	horizon := e.Txns.GlobalXmin()
	var stores []*storage
	e.mu.RLock()
	for name, st := range e.stores {
		if table == "" || name == table {
			stores = append(stores, st)
		}
	}
	e.mu.RUnlock()
	total := 0
	for _, st := range stores {
		if st.heap == nil {
			continue
		}
		st.mu.Lock()
		total += st.heap.Vacuum(e.Txns, horizon, st.hotCols, st.repointer())
		st.mu.Unlock()
	}
	return total
}

// ExplainAnalyzer lets a plan append per-execution detail to EXPLAIN
// ANALYZE output. The distributed layer implements it on its custom-scan
// plan: after the traced execution it reassembles the per-task spans
// (coordinator + workers) for the trace and renders one timed line per
// task.
type ExplainAnalyzer interface {
	ExplainAnalyzeLines(traceID uint64) []string
}

// execExplain renders the plan of the inner statement; with ANALYZE it
// also executes the statement under a (forced) trace and appends actual
// rows and timings.
func (s *Session) execExplain(st *sql.ExplainStmt, params []types.Datum) (*Result, error) {
	var plan Plan
	if hook := s.Eng.PlannerHook; hook != nil {
		p, err := hook(s, st.Stmt, params)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if plan == nil {
		if inner, ok := st.Stmt.(*sql.SelectStmt); ok {
			p, err := s.planSelect(inner)
			if err != nil {
				return nil, err
			}
			plan = p
		}
	}
	var lines []string
	if plan != nil {
		lines = plan.ExplainLines()
	} else {
		lines = []string{"Utility Statement"}
	}
	if st.Analyze {
		alines, err := s.runExplainAnalyze(st.Stmt, plan, params)
		if err != nil {
			return nil, err
		}
		lines = append(lines, alines...)
	}
	res := &Result{Columns: []string{"QUERY PLAN"}, Tag: "EXPLAIN"}
	for _, l := range lines {
		res.Rows = append(res.Rows, types.Row{l})
	}
	return res, nil
}

// runExplainAnalyze executes the explained statement and returns the
// actual-execution lines. The execution always runs under a trace — if
// the EXPLAIN statement itself was sampled out (or arrived untraced), a
// root span is forced — so per-task timings are available to the plan's
// ExplainAnalyzer.
func (s *Session) runExplainAnalyze(stmt sql.Statement, plan Plan, params []types.Datum) ([]string, error) {
	if tr := s.Eng.Tracer; tr != nil && s.TraceID == 0 {
		sp := tr.ForceRoot("explain analyze")
		s.TraceID, s.SpanID, s.curSpanKind = sp.TraceID(), sp.SpanID(), "statement"
		defer func() {
			sp.Finish()
			s.LastTraceID = s.TraceID
			s.TraceID, s.SpanID, s.curSpanKind = 0, 0, ""
		}()
	}
	var notes []string
	s.analyzeNotes = &notes
	defer func() { s.analyzeNotes = nil }()
	start := time.Now()
	var res *Result
	var err error
	if plan != nil {
		res, err = s.runPlan(plan, params)
	} else {
		res, err = s.execute(stmt, params, nil)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	lines := notes
	if ea, ok := plan.(ExplainAnalyzer); ok && s.TraceID != 0 {
		lines = append(lines, ea.ExplainAnalyzeLines(s.TraceID)...)
	}
	rows := res.Affected
	if n := res.NumRows(); n > 0 {
		rows = n
	}
	lines = append(lines,
		fmt.Sprintf("Actual Rows: %d", rows),
		fmt.Sprintf("Execution Time: %.3f ms", float64(elapsed.Nanoseconds())/1e6))
	return lines, nil
}

// ---------------------------------------------------------------------------
// WAL replay (wal.Applier)

// replayTarget adapts an Engine for wal.Log.RecoverInto and wal.ApplyRecord
// (ApplyBase is in checkpoint.go, beside the image it loads). It remembers
// each transaction's last deleted version until the transaction's next
// insert: an update's new version is linked to it (heap.Tuple.Next) as the
// update itself linked it, so a writer that waited on a replayed update —
// a prepared transaction's, committed after a restart — follows the row
// instead of taking it for deleted.
type replayTarget struct {
	e       *Engine
	deleted map[uint64]replayedDelete
}

type replayedDelete struct {
	table string
	tid   heap.TID
}

// ReplayTarget returns the wal.Applier that rebuilds this engine from a log.
func (e *Engine) ReplayTarget() wal.Applier {
	return replayTarget{e: e, deleted: map[uint64]replayedDelete{}}
}

// ApplyTxn applies one committed transaction of another node's log — its
// insert and delete records, in order, through wal.ApplyRecord — as a
// transaction of this node, logged here like any other: the apply half of a
// shard move's catch-up (§3.4). A delete takes away one live row with the
// image's values, as replay does.
func (e *Engine) ApplyTxn(recs []wal.Record) error {
	if e.Crashed() {
		return fmt.Errorf("node %s is down", e.Name)
	}
	t := e.Txns.Begin()
	target := e.ReplayTarget()
	for _, rec := range recs {
		rec.XID = t.XID()
		if err := wal.ApplyRecord(target, rec); err != nil {
			e.Txns.Abort(t)
			e.WAL.Append(wal.Record{Type: wal.RecAbort, XID: t.XID()})
			return err
		}
		e.WAL.Append(rec)
	}
	if err := e.Txns.Commit(t); err != nil {
		return err
	}
	e.WAL.Append(wal.Record{Type: wal.RecCommit, XID: t.XID()})
	return nil
}

func (r replayTarget) ApplyDDL(ddl string) error {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return err
	}
	sess := r.e.NewSession()
	switch st := stmt.(type) {
	case *sql.CreateTableStmt:
		return r.e.CreateTable(st)
	case *sql.CreateIndexStmt:
		return r.e.CreateIndex(st)
	default:
		_, err := sess.ExecUtilityLocal(stmt)
		return err
	}
}

func (r replayTarget) ApplyInsert(xid uint64, table string, tuple []byte, update bool) error {
	r.e.Txns.MarkReplicating(xid)
	store, ok := r.e.store(table)
	if !ok {
		return fmt.Errorf("replay: relation %q does not exist", table)
	}
	if store.col != nil {
		store.col.Insert(xid, rowbatch.DecodeRow(tuple))
		return nil
	}
	sess := r.e.NewSession()
	store.mu.Lock()
	defer store.mu.Unlock()
	tid, stored := store.heap.InsertTuple(xid, tuple)
	old, ok := r.deleted[xid]
	delete(r.deleted, xid)
	if ok && update && old.table == table {
		prev, _ := store.heap.Get(old.tid)
		return sess.linkVersion(store, xid, old.tid, prev.Data, tid, stored, nil)
	}
	return sess.insertIndexEntries(store, stored, tid, nil)
}

var metReplayDeleteTuples = obs.Default().Counter("engine_replay_delete_tuples_total",
	"tuple versions a replayed delete compared with the image it carries").With()

// ApplyDelete deletes the live version whose bytes are the record's: every
// copy of a table — a standby's, a restarted node's, a moved shard's — holds
// the tuples its primary wrote, byte for byte. The candidates are the
// versions a unique index holds under the image's key, when the table has
// one; every tuple otherwise.
func (r replayTarget) ApplyDelete(xid uint64, table string, tuple []byte) error {
	r.e.Txns.MarkReplicating(xid)
	// Only the delete right before an update's insert is the update's own.
	delete(r.deleted, xid)
	store, ok := r.e.store(table)
	if !ok || store.heap == nil {
		return nil
	}
	// match deletes tup, and reports so, when it is the live version: tuples
	// from aborted writers (dead twins with identical content) are skipped,
	// and an aborted deleter's xmax is treated as clear — after a failover
	// the rejoined standby may carry stamps from dead-timeline transactions
	// that end-of-recovery aborted, and the new primary's deletes must still
	// land.
	match := func(tid heap.TID, tup heap.Tuple) bool {
		metReplayDeleteTuples.Inc()
		if tup.Dead() || !bytes.Equal(tup.Data, tuple) || r.e.Txns.Status(tup.Xmin) == txn.Aborted {
			return false
		}
		if tup.Xmax != 0 && r.e.Txns.Status(tup.Xmax) != txn.Aborted {
			return false
		}
		store.heap.MarkDeleted(tid, xid, heap.NilTID, false)
		r.deleted[xid] = replayedDelete{table, tid}
		return true
	}
	if tids, ok := store.uniqueCandidates(tuple); ok {
		for _, tid := range tids {
			if tup, ok := store.heap.Get(tid); ok && match(tid, tup) {
				break
			}
		}
		return nil
	}
	store.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool { return !match(tid, tup) })
	return nil
}

// uniqueCandidates returns the versions a unique index of the table holds
// under the key of tuple — every version ever indexed under it that vacuum
// has not reclaimed, with their HOT chains — and false when the table has no unique index, or the key has a
// NULL (which a unique index does not hold to one row) or fails to evaluate.
func (st *storage) uniqueCandidates(tuple []byte) ([]heap.TID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, b := range st.btrees {
		if !b.def.Unique {
			continue
		}
		key, err := b.evalKey(nil, &expr.Ctx{Row: rowbatch.DecodeRow(tuple)})
		if err != nil || slices.Contains(key, nil) {
			return nil, false
		}
		return st.lookup(b, key), true
	}
	return nil, false
}

func (r replayTarget) ApplyCommit(xid uint64) {
	delete(r.deleted, xid)
	r.e.Txns.ForceStatus(xid, txn.Committed)
}

func (r replayTarget) ApplyAbort(xid uint64) {
	delete(r.deleted, xid)
	r.e.Txns.ForceStatus(xid, txn.Aborted)
}

func (r replayTarget) ApplyPrepare(xid uint64, gid string) {
	delete(r.deleted, xid)
	r.e.Txns.AdoptPrepared(xid, gid)
}
func (r replayTarget) ApplyCommitPrepared(gid string) {
	if t, err := r.e.Txns.FinishPrepared(gid, true); err == nil {
		r.e.Txns.ForgetPrepared(gid)
		r.e.Locks.ReleaseAll(t.VID)
	}
}
func (r replayTarget) ApplyAbortPrepared(gid string) {
	if t, err := r.e.Txns.FinishPrepared(gid, false); err == nil {
		r.e.Txns.ForgetPrepared(gid)
		r.e.Locks.ReleaseAll(t.VID)
	}
}
