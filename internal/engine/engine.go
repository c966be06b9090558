// Package engine implements the single-node SQL engine that plays the role
// of PostgreSQL on every node of a cluster: query planning and execution
// over MVCC heap storage, B-tree/GIN indexes, transactions (including
// two-phase commit), DDL, COPY, and vacuum.
//
// Like PostgreSQL, the engine is extensible at explicit hook points rather
// than by forking: PlannerHook intercepts planning (the distributed query
// planner plugs in here, equivalent to the planner_hook + CustomScan
// combination described in §3.1 of the paper), UtilityHook intercepts
// commands that do not go through the planner (DDL, COPY), and transaction
// callbacks on txn.Txn drive distributed commit. An extension's functions,
// the Citus UDFs among them, are no hook: they are entries of the engine's
// one function registry (RegisterFunction), read by CALL and as relations.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/bufpool"
	"citusgo/internal/catalog"
	"citusgo/internal/columnar"
	"citusgo/internal/expr"
	"citusgo/internal/fault"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/lock"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/sql"
	"citusgo/internal/ssi"
	"citusgo/internal/trace"
	"citusgo/internal/txn"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// metStatements counts statements executed on this process's engines by
// statement kind; the per-kind counters are resolved once at init so the
// per-statement cost is a single atomic add.
var metStatements = map[string]*obs.Counter{}

func init() {
	vec := obs.Default().Counter("engine_statements_total",
		"statements executed by the engine, by statement kind", "kind")
	for _, k := range []string{
		"select", "insert", "update", "delete", "copy", "ddl", "txn_control",
		"set", "explain", "vacuum", "call", "other",
	} {
		metStatements[k] = vec.With(k)
	}
}

// Session statement-cache counters (the "engine plan cache" layer: parsed
// statements reused across executions, invalidated by schema changes).
var (
	metStmtCacheHits = obs.Default().Counter("engine_plancache_hits",
		"session statement-cache hits (parse skipped)").With()
	metStmtCacheMisses = obs.Default().Counter("engine_plancache_misses",
		"session statement-cache misses (statement parsed and cached)").With()
	metStmtCacheInvalid = obs.Default().Counter("engine_plancache_invalidations",
		"session statement-cache entries dropped after a schema version bump").With()
)

func stmtKind(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case *sql.CopyStmt:
		return "copy"
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.DropTableStmt, *sql.DropIndexStmt,
		*sql.TruncateStmt, *sql.AlterTableAddColumnStmt:
		return "ddl"
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt,
		*sql.PrepareTransactionStmt, *sql.CommitPreparedStmt, *sql.RollbackPreparedStmt:
		return "txn_control"
	case *sql.SetStmt:
		return "set"
	case *sql.ExplainStmt:
		return "explain"
	case *sql.VacuumStmt:
		return "vacuum"
	case *sql.CallStmt:
		return "call"
	}
	return "other"
}

// Result is the outcome of executing one statement.
type Result struct {
	Columns  []string
	Rows     []types.Row
	Tag      string
	Affected int

	// Batch is set, and Rows nil, while the rows are still in the wire form
	// a worker sent them in: the distributed layer hands a one-task plan's
	// result up as it arrived, and a caller that only passes it on (the wire
	// server, through ExecForward) never decodes it. Everything else reads
	// the rows through DecodeRows; Exec and ExecStmt return them decoded.
	Batch rowbatch.Batch
}

// metResultRowsDecoded counts rows DecodeRows took out of their wire form:
// worker rows the coordinator had to look at (merge, joins, INSERT..SELECT,
// EXPLAIN ANALYZE, in-process callers). A forwarded result adds nothing.
var metResultRowsDecoded = obs.Default().Counter("engine_result_rows_decoded_total",
	"rows of worker results decoded from wire form on this side of the wire").With()

// DecodeRows returns the result's rows, decoding them first — once — if they
// are still in wire form.
func (r *Result) DecodeRows() []types.Row {
	if n := r.Batch.NumRows(); n > 0 {
		metResultRowsDecoded.Add(int64(n))
		r.Rows, r.Batch = r.Batch.Rows(), rowbatch.Batch{}
	}
	return r.Rows
}

// NumRows is the number of rows in the result, in either form.
func (r *Result) NumRows() int { return len(r.Rows) + r.Batch.NumRows() }

// Plan is an executable query plan. The distributed layer returns Plans
// from the PlannerHook; they are the equivalent of a CustomScan node.
type Plan interface {
	Columns() []string
	Execute(s *Session, params []types.Datum) (*Result, error)
	ExplainLines() []string
}

// PlannerHook lets an extension take over planning of a statement. Return
// (nil, nil) to fall through to the local planner.
type PlannerHook func(s *Session, stmt sql.Statement, params []types.Datum) (Plan, error)

// UtilityHook lets an extension intercept utility statements (DDL, COPY,
// CALL, ...), given the statement's bound parameters. Return handled=false
// to fall through to local handling.
type UtilityHook func(s *Session, stmt sql.Statement, params []types.Datum) (handled bool, res *Result, err error)

// Function is an entry of the engine's function registry. A function has
// result columns and is a relation: FROM fn(args), or SELECT fn(args) as the
// whole target list. A procedure has none and is run by CALL fn(args). Either
// runs inside the calling session's transaction.
type Function struct {
	Name    string
	Columns []string
	// Args are the declared argument names, which name := value binds by; a
	// function that declares none takes its arguments by position only.
	Args []string
	Call func(s *Session, args []types.Datum) ([]types.Row, error)
}

// Procedure is a stored procedure: a function with no result.
type Procedure func(s *Session, args []types.Datum) error

// storage bundles a table's definition with its physical storage and
// indexes.
type storage struct {
	table *catalog.Table
	heap  *heap.Table
	col   *columnar.Table

	// mu guards the index maps and the unique-insert check, and orders the
	// writers of index entries and HOT links against index readers (hot.go)
	mu     sync.RWMutex
	btrees map[string]*btreeIndex
	gins   map[string]*ginIndex
	// hotCols are the columns some index reads, ascending: an update that
	// keeps their bytes is heap-only (setIndexes)
	hotCols []int
}

// fullRow is row, a tuple's decoded, as wide as the table: a tuple stored
// before an ALTER TABLE … ADD COLUMN is shorter, and reads NULL past its end.
func (st *storage) fullRow(row types.Row) types.Row {
	if n := len(st.table.Columns); len(row) < n {
		wide := make(types.Row, n)
		copy(wide, row)
		return wide
	}
	return row
}

type btreeIndex struct {
	def   *catalog.IndexDef
	tree  *index.BTree
	evals []expr.Evaluator // key column evaluators over the table row
}

type ginIndex struct {
	def  *catalog.IndexDef
	gin  *index.GIN
	eval expr.Evaluator // the indexed text expression
	// derived is the expression again when it is a derived text over a jsonb
	// column (vec_derived.go), which appendKey reads out of the document the
	// way the dashboard's recheck does; nil for any other.
	derived *derivedExpr
}

// appendKey appends the text row is indexed under to dst; ok is false for
// NULL, which is not indexed. It is the one place the key is computed:
// inserts, the CREATE INDEX backfill and VACUUM's removes all ask it.
func (g *ginIndex) appendKey(dst []byte, ctx *expr.Ctx) (key []byte, ok bool, err error) {
	if d := g.derived; d != nil {
		if d.base >= len(ctx.Row) {
			return dst, false, nil // written before ADD COLUMN: the column is NULL
		}
		key, ok = d.appendText(dst, ctx.Row[d.base])
		return key, ok, nil
	}
	v, err := g.eval(ctx)
	if err != nil || v == nil {
		return dst, false, err
	}
	return types.AppendFormat(dst, v), true, nil
}

// Engine is one database node.
type Engine struct {
	Name    string // node name, for diagnostics
	Catalog *catalog.Catalog
	Txns    *txn.Manager
	Locks   *lock.Manager
	Pool    *bufpool.Pool
	WAL     *wal.Log
	// SSI tracks serializable transactions' SIREAD locks and
	// rw-antidependency edges (see internal/ssi and ssi_integration.go).
	SSI *ssi.Manager

	PlannerHook PlannerHook
	UtilityHook UtilityHook
	// CopyHook intercepts COPY data loading (the distributed layer fans
	// rows out to shards here).
	CopyHook func(s *Session, table string, columns []string, rows []types.Row) (handled bool, n int, err error)

	// Tracer records per-statement spans for this node (nil disables
	// tracing). On a coordinator every sampled statement gets a root span;
	// on a worker, requests arriving with a trace context get child spans
	// for parse/plan/execute, lock waits, and WAL appends.
	Tracer *trace.Tracer

	mu        sync.RWMutex
	stores    map[string]*storage
	functions map[string]*Function

	imu          sync.RWMutex
	intermediate map[string]*IntermediateResult

	nextObjID atomic.Int64

	// schemaVer is bumped by DDL (table/index create/drop, column adds,
	// TRUNCATE) and by SetFeatures, and stamps the per-session statement
	// cache: a cached statement whose version no longer matches is
	// re-parsed and re-planned.
	schemaVer atomic.Int64

	// features is what Features returns; never nil.
	features atomic.Pointer[Features]

	stopOnce sync.Once
	stopCh   chan struct{}
	// stopCtx is cancelled when the engine stops (Close or Crash). Lock
	// waits select on it so a session can never block forever inside a
	// dead engine whose lock owners will not run again.
	stopCtx    context.Context
	stopCancel context.CancelFunc

	// crashed marks the node as "process killed" for chaos tests: the wire
	// server answers nothing once its engine has crashed, so every client
	// sees connection failures exactly as if the peer died.
	crashed atomic.Bool

	// ddlMu orders DDL against checkpoints: a DDL holds it shared from its
	// first effect on the catalog or on storage until its record is in the
	// log, a checkpoint holds it exclusively while it builds its image, so an
	// image reflects exactly the DDL records below its LSN. ddl is the
	// schema as the statements that built it, in order, without those of
	// tables since dropped: what a checkpoint's image carries instead of
	// every DDL record ever written.
	ddlMu sync.RWMutex
	ddl   []ddlEntry

	// applyMode marks the engine as a WAL-application target — a
	// replication standby, or a restart mid-replay. The applier owns log
	// continuity (it copies the original records into this engine's WAL
	// itself), so DDL executed while applying must not re-append a record:
	// a second copy would shift every later LSN and break the position
	// alignment promotion and crash-restart rely on.
	applyMode atomic.Bool
}

// bumpSchemaVersion invalidates cached statements engine-wide; called by
// every DDL path (including WAL replay, which reuses the same methods).
func (e *Engine) bumpSchemaVersion() { e.schemaVer.Add(1) }

// Features reports which optimisations the engine has switched off.
func (e *Engine) Features() Features { return *e.features.Load() }

// SetFeatures switches optimisations on a running engine; statements that
// start afterwards see the new set. It bumps the schema version, as DDL
// does: a plan kept in a session's statement cache was made under the old
// set (NoVectorized is read when a SELECT is planned).
func (e *Engine) SetFeatures(f Features) {
	e.features.Store(&f)
	e.bumpSchemaVersion()
}

// SetApplyMode flags the engine as a WAL-application target (replication
// standby or restart replay): DDL stops self-logging because the applier
// copies the original records into the WAL itself. Cleared on promotion,
// when the engine starts originating writes again.
func (e *Engine) SetApplyMode(on bool) { e.applyMode.Store(on) }

// FinishRecovery closes out WAL recovery the way PostgreSQL ends crash
// recovery: every transaction the replayed log left in-progress — a
// writer that was in flight on the failed primary, so its commit record
// can never arrive — is implicitly aborted. Without this, the first
// writer to touch one of their tuples on a promoted standby (or a
// restarted primary) waits on the orphan's commit-log status forever.
// Prepared transactions survive; the coordinator's 2PC recovery owns
// them. Returns the number of in-doubt transactions aborted.
func (e *Engine) FinishRecovery() int {
	aborted := e.Txns.AbortInDoubt()
	e.relockPrepared()
	return len(aborted)
}

// relockPrepared gives every prepared transaction the log handed this engine
// the locks it held where it was prepared: the shared relation lock on each
// heap table it wrote, and the row lock on each version it deleted or
// updated. Without them DDL does not wait for it, and a writer of one of its
// rows takes the free row lock, then finds the version's deleter in progress.
func (e *Engine) relockPrepared() {
	prepared := map[uint64]uint64{} // XID -> the lock owner, its VID
	for _, p := range e.Txns.ListPrepared() {
		prepared[p.XID] = p.VID
	}
	if len(prepared) == 0 {
		return
	}
	e.mu.RLock()
	var stores []*storage
	for _, st := range e.stores {
		if st.heap != nil {
			stores = append(stores, st)
		}
	}
	e.mu.RUnlock()
	for _, st := range stores {
		st.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
			if vid, ok := prepared[tup.Xmax]; ok {
				e.Locks.TryAcquire(vid, lock.Key{Table: st.table.ID, Tuple: int64(tid)}, lock.Exclusive)
				e.Locks.TryAcquire(vid, lock.TableKey(st.table.ID), lock.Shared)
			}
			if vid, ok := prepared[tup.Xmin]; ok {
				e.Locks.TryAcquire(vid, lock.TableKey(st.table.ID), lock.Shared)
			}
			return true
		})
	}
}

// ddlEntry is one statement of the schema's history and the table it is
// about.
type ddlEntry struct{ table, text string }

// logDDL records a DDL statement about table: in the schema history, unless
// all it did was throw the table's rows away (wipes: TRUNCATE, and DROP
// TABLE, which has taken the table's statements out of the history), and in
// the log, unless the engine is applying someone else's (see SetApplyMode).
// Callers hold ddlMu shared.
func (e *Engine) logDDL(table, ddl string, wipes bool) {
	if !wipes {
		e.mu.Lock()
		e.ddl = append(e.ddl, ddlEntry{table, ddl})
		e.mu.Unlock()
	}
	if e.applyMode.Load() {
		return
	}
	rec := wal.Record{Type: wal.RecDDL, Name: ddl}
	if wipes {
		rec.Table = table
	}
	e.WAL.Append(rec)
}

// IntermediateResult is a named, in-memory relation used by the
// distributed executor for subplans, broadcast and repartition joins,
// INSERT..SELECT's rows and coordinator-side merge queries over worker
// results.
type IntermediateResult struct {
	Columns []string
	Rows    []types.Row
}

// Config configures a node.
type Config struct {
	Name string
	// BufferPool simulates bounded memory; zero value = unlimited.
	BufferPool bufpool.Config
	// DeadlockInterval is how often the node-local deadlock detector runs
	// (PostgreSQL's deadlock_timeout); default 100ms, negative disables.
	DeadlockInterval time.Duration
	// AutoVacuumInterval runs the node's maintenance pass: vacuum, then a
	// checkpoint when the log is due one. Without vacuum, hot rows grow
	// unbounded MVCC version chains and index lookups degrade (exactly the
	// auto-vacuuming behavior §2.3 of the paper discusses); without
	// checkpoints the log keeps every record since LSN 1.
	// 0 disables (unit tests vacuum and checkpoint explicitly); cluster nodes
	// enable it.
	AutoVacuumInterval time.Duration
	// Features the node starts with (see SetFeatures).
	Features Features
}

// Features switches the paper's optimisations off one at a time: the
// ablations measure each against the plain path, and the differential tests
// compare their answers. The zero value turns everything on. Each switch is
// read at one place.
type Features struct {
	// NoPlanCache turns off both plan caches: the coordinator's
	// distributed-plan cache (citus plannerHook) and every session's
	// statement cache (Session.ExecForward), so each execution re-plans and
	// re-parses.
	NoPlanCache bool
	// NoTopNPushdown stops a coordinator shipping ORDER BY <group column>
	// LIMIT k to the workers of a cross-shard grouped aggregate, so every
	// worker returns its whole grouped result (docs/columnar.md).
	NoTopNPushdown bool
	// NoSSI runs SERIALIZABLE as plain snapshot isolation: no SIREAD locks,
	// no rw-antidependency tracking, no commit-time check, local or merged
	// (docs/ssi.md).
	NoSSI bool
	// NoVectorized plans every aggregate row at a time (vec_exec.go).
	NoVectorized bool
	// VecParallelism is the vectorized path's parallel chunk-scan degree;
	// 0 is min(GOMAXPROCS, 4).
	VecParallelism int
}

// New creates a node and starts its local deadlock detector.
func New(cfg Config) *Engine {
	txns := txn.NewManager()
	txns.SetNode(cfg.Name)
	e := &Engine{
		Name:         cfg.Name,
		Catalog:      catalog.New(),
		Txns:         txns,
		SSI:          ssi.NewManager(txns),
		Locks:        lock.NewManager(),
		Pool:         bufpool.New(cfg.BufferPool),
		WAL:          wal.New(),
		stores:       make(map[string]*storage),
		functions:    make(map[string]*Function),
		intermediate: make(map[string]*IntermediateResult),
		stopCh:       make(chan struct{}),
	}
	e.stopCtx, e.stopCancel = context.WithCancel(context.Background())
	e.SetFeatures(cfg.Features)
	e.nextObjID.Store(1)
	interval := cfg.DeadlockInterval
	if interval == 0 {
		interval = 100 * time.Millisecond
	}
	if interval > 0 {
		go e.deadlockDetectorLoop(interval)
	}
	e.WAL.Node = cfg.Name
	if cfg.AutoVacuumInterval > 0 {
		go e.maintenanceLoop(cfg.AutoVacuumInterval)
	}
	return e
}

// maintenanceLoop is the node's one background pass, the role of
// PostgreSQL's autovacuum workers and checkpointer: every interval it
// reclaims dead tuple versions and then, if wal.CheckpointEvery records have
// arrived since the last one, checkpoints. The log wakes it early for the
// checkpoint half the moment that many have, so what a node holds when it
// goes quiet depends on how much it wrote, not on where a tick fell.
func (e *Engine) maintenanceLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
			e.Vacuum("")
		case <-e.WAL.CheckpointDue():
		}
		if e.WAL.Due() {
			e.Checkpoint()
		}
	}
}

// Close stops background work.
func (e *Engine) Close() {
	e.stopOnce.Do(func() {
		close(e.stopCh)
		e.stopCancel()
	})
}

// Crash simulates a process kill: background work stops and the node
// refuses all subsequent requests. State already in the WAL survives (a
// restarted node replays it); everything else — memory state, prepared
// statements, in-flight transactions — is lost, exactly like SIGKILL.
// Active transactions are cancelled so sessions blocked in a lock wait
// error out instead of waiting forever on a lock manager no live
// transaction will ever release (a real process kill severs those waits
// along with the process).
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.Close()
	for _, t := range e.Txns.ActiveTxns() {
		t.Cancel()
	}
}

// Crashed reports whether Crash was called.
func (e *Engine) Crashed() bool { return e.crashed.Load() }

// deadlockDetectorLoop is the node-local equivalent of PostgreSQL's
// deadlock check: find a cycle in the waits-for graph and cancel the
// youngest transaction in it.
func (e *Engine) deadlockDetectorLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-ticker.C:
			e.CheckLocalDeadlock()
		}
	}
}

// CheckLocalDeadlock runs one deadlock check, cancelling the youngest
// transaction of a cycle if one exists. Returns the cancelled transaction's
// VID or 0.
func (e *Engine) CheckLocalDeadlock() uint64 {
	cycle := lock.FindCycle(e.Locks.Edges())
	if len(cycle) == 0 {
		return 0
	}
	var victim uint64
	for _, vid := range cycle {
		if vid > victim {
			victim = vid
		}
	}
	if t, ok := e.Txns.ByVID(victim); ok {
		t.Cancel()
		return victim
	}
	return 0
}

// LockEdge is one edge of the node's waits-for graph, its transactions
// named by virtual ID and distributed transaction id; the distributed
// deadlock detector polls these from every node (paper §3.7.3).
type LockEdge struct {
	WaiterVID, HolderVID   uint64
	WaiterDist, HolderDist string
}

// LockGraph returns the current waits-for edges annotated with distributed
// transaction ids.
func (e *Engine) LockGraph() []LockEdge {
	edges := e.Locks.Edges()
	out := make([]LockEdge, 0, len(edges))
	for _, edge := range edges {
		le := LockEdge{WaiterVID: edge.Waiter, HolderVID: edge.Holder}
		if t, ok := e.Txns.ByVID(edge.Waiter); ok {
			le.WaiterDist = t.DistID()
		}
		if t, ok := e.Txns.ByVID(edge.Holder); ok {
			le.HolderDist = t.DistID()
		}
		out = append(out, le)
	}
	return out
}

// CancelByDistID cancels the local transaction belonging to a distributed
// transaction (deadlock victim chosen by the coordinator).
func (e *Engine) CancelByDistID(distID string) bool {
	for _, t := range e.Txns.ActiveTxns() {
		if t.DistID() == distID {
			t.Cancel()
			return true
		}
	}
	return false
}

// RegisterFunction installs a function on this node, replacing one of the
// same name.
func (e *Engine) RegisterFunction(f Function) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.functions[strings.ToLower(f.Name)] = &f
}

// RegisterProcedure installs a stored procedure on this node.
func (e *Engine) RegisterProcedure(name string, p Procedure) {
	e.RegisterFunction(Function{Name: name, Call: func(s *Session, args []types.Datum) ([]types.Row, error) {
		return nil, p(s, args)
	}})
}

func (e *Engine) function(name string) (*Function, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f, ok := e.functions[strings.ToLower(name)]
	return f, ok
}

// args evaluates a call's arguments in f's declared order: the positional
// ones first, then each named one at the position its name is declared at.
// An argument left out is NULL.
func (f *Function) args(args []sql.Expr, ctx *expr.Ctx) ([]types.Datum, error) {
	vals := make([]types.Datum, max(len(f.Args), len(args)))
	for i, a := range args {
		pos := i
		if na, named := a.(*sql.NamedArg); named {
			if pos = slices.IndexFunc(f.Args, func(d string) bool { return strings.EqualFold(d, na.Name) }); pos < 0 {
				return nil, fmt.Errorf("function %s has no argument named %q", f.Name, na.Name)
			}
			a = na.Value
		}
		ev, err := expr.Compile(a, nil)
		if err == nil {
			vals[pos], err = ev(ctx)
		}
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// BindArgs evaluates the arguments of a call of the registered function or
// procedure name, in declared order, with the statement's parameters bound
// and nothing else: an argument that needs a subquery fails.
func (e *Engine) BindArgs(name string, args []sql.Expr, params []types.Datum) ([]types.Datum, error) {
	f, ok := e.function(name)
	if !ok {
		return nil, fmt.Errorf("function %q does not exist", name)
	}
	return f.args(args, &expr.Ctx{Params: params})
}

// RegisterIntermediateResult installs a named in-memory relation readable
// in FROM clauses until dropped.
func (e *Engine) RegisterIntermediateResult(name string, r *IntermediateResult) {
	e.imu.Lock()
	defer e.imu.Unlock()
	e.intermediate[name] = r
}

// AppendIntermediateResult adds rows to a named relation, creating it if
// needed (repartitioned fragments arrive from several sources).
func (e *Engine) AppendIntermediateResult(name string, cols []string, rows []types.Row) {
	e.imu.Lock()
	defer e.imu.Unlock()
	r, ok := e.intermediate[name]
	if !ok {
		r = &IntermediateResult{Columns: cols}
		e.intermediate[name] = r
	}
	r.Rows = append(r.Rows, rows...)
}

// DropIntermediateResult removes the relation with exactly this name.
func (e *Engine) DropIntermediateResult(name string) {
	e.imu.Lock()
	defer e.imu.Unlock()
	delete(e.intermediate, name)
}

// DropIntermediateResults removes all relations with the given prefix
// (cleanup at distributed query end). Concurrent queries number their
// relations, so a prefix must end in a delimiter: "x_1" would take "x_10"
// with it, "x_1_" cannot.
func (e *Engine) DropIntermediateResults(prefix string) {
	e.imu.Lock()
	defer e.imu.Unlock()
	for name := range e.intermediate {
		if strings.HasPrefix(name, prefix) {
			delete(e.intermediate, name)
		}
	}
}

// IntermediateResults lists the names of the node's intermediate results,
// sorted.
func (e *Engine) IntermediateResults() []string {
	e.imu.RLock()
	defer e.imu.RUnlock()
	names := make([]string, 0, len(e.intermediate))
	for name := range e.intermediate {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func (e *Engine) intermediateResult(name string) (*IntermediateResult, bool) {
	e.imu.RLock()
	defer e.imu.RUnlock()
	r, ok := e.intermediate[name]
	return r, ok
}

func (e *Engine) store(name string) (*storage, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st, ok := e.stores[name]
	return st, ok
}

// TotalPages sums the simulated page counts of every table on the node, heap
// and columnar (the benchmark harness sizes buffer pools relative to this).
func (e *Engine) TotalPages() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	total := 0
	for _, st := range e.stores {
		if st.heap != nil {
			total += st.heap.NumPages()
		}
		if st.col != nil {
			total += st.col.NumPages()
		}
	}
	return total
}

// TableRows returns the estimated live row count of a table (planner
// statistic, also used by the distributed join-order planner).
func (e *Engine) TableRows(name string) int64 {
	st, ok := e.store(name)
	if !ok {
		return 0
	}
	if st.col != nil {
		return st.col.EstimatedRows()
	}
	return st.heap.EstimatedRows()
}

// NewSession opens a session on this node.
func (e *Engine) NewSession() *Session {
	return &Session{Eng: e, Settings: make(map[string]string)}
}

// Session is one client connection's execution state.
type Session struct {
	Eng      *Engine
	Settings map[string]string
	// Ext holds extension session state; the distributed layer stores its
	// per-session connection cache and transaction bookkeeping here.
	Ext any

	// TraceID/SpanID are the trace context of the statement currently
	// executing: on a coordinator they are set for the duration of a
	// sampled root statement; on a worker the wire handler stamps them
	// from the request header before executing. SpanID is the parent for
	// any child span opened while the statement runs.
	TraceID uint64
	SpanID  uint64
	// LastTraceID is the trace ID of the most recent traced root
	// statement (tests and EXPLAIN ANALYZE reassemble it afterwards).
	LastTraceID uint64
	// queryLabel labels the next statement's span with its source text:
	// ExecForward sets it from the raw query, execStmtForward consumes it.
	queryLabel string
	// curSpanKind mirrors the kind of the statement span currently open,
	// copied into the transaction for citus_stat_activity.
	curSpanKind string
	// analyzeNotes is non-nil while EXPLAIN ANALYZE executes its statement:
	// a plan node appends a line about what this execution did.
	analyzeNotes *[]string

	txn *txn.Txn
	// proc is the session's slot in the node's proc array, registered at
	// its first transaction (ensureTxn) and closed by Close.
	proc      *txn.Proc
	explicit  bool
	txnFailed bool
	// inCall is set while a CALL runs its procedure: the procedure's
	// statements run in the CALL's transaction, implicit or not.
	inCall bool
	// block is the coordinator's name for the open transaction block, when a
	// coordinator opened it (OpenBlock). It is scoped to the block: endBlock
	// clears it, so a pooled connection's session carries nothing of it on.
	block struct {
		distID         string
		serializable   bool
		repeatableRead bool
	}

	// stmtCache holds parsed statements keyed by query text — on a worker,
	// the texts of the tasks its coordinators send — and the plans their
	// executions made, which is all that stands between a repeated task and
	// the parser and planner. Entries carry the schema version they were
	// parsed under and are dropped on mismatch. Sessions are
	// single-threaded, so no lock.
	stmtCache map[string]*cachedStmt
	// stmtCacheVer is the schema version stmtCache's kept plans were last
	// checked against (dropStalePlans).
	stmtCacheVer int64
	// ginKey is insertIndexEntries' scratch for trigram index keys, and
	// keyRow what it decodes a tuple into to take its keys from.
	ginKey []byte
	keyRow rowbatch.Decoder
}

// cachedStmt is one statement cache entry: a parse tree, the schema version
// it was parsed under — the one stamp for everything in the entry — and the
// engine's own plan of it, kept by the first execution that planned it
// locally. A SELECT keeps its Plan, an UPDATE or a DELETE its targetPlan; an
// INSERT keeps none. A kept plan reads no parameter value, so it serves
// every execution of the text. It is not kept when it reads an intermediate
// result (a relation that lives and dies by name, outside the schema
// version).
type cachedStmt struct {
	stmt sql.Statement
	ver  int64
	sel  Plan
	// selSSI records whether sel was planned for an SSI-tracked session:
	// vecSource declines heap scans under SERIALIZABLE, so a session on the
	// other side of that line plans again.
	selSSI bool
	dml    *targetPlan
}

// sessionStmtCacheCap bounds the per-session statement cache. On overflow
// the whole map is flushed: repeated shapes re-enter immediately while
// one-off literal statements churn through without LRU bookkeeping.
const sessionStmtCacheCap = 256

// InTransaction reports whether the statement running now is part of a
// transaction that outlives it: an explicit block, or the transaction of the
// CALL whose procedure runs the statement.
func (s *Session) InTransaction() bool { return s.txn != nil && (s.explicit || s.inCall) }

// Txn returns the currently running transaction, if any.
func (s *Session) Txn() *txn.Txn { return s.txn }

// ensureTxn returns the session transaction, starting an implicit one when
// none is open. The second return reports whether it was implicit.
func (s *Session) ensureTxn() (*txn.Txn, bool) {
	if s.txn != nil {
		return s.txn, false
	}
	if s.proc == nil {
		s.proc = s.Eng.Txns.NewProc()
	}
	t := s.proc.Begin()
	if s.block.distID != "" {
		t.SetDistID(s.block.distID)
	}
	if s.TraceID != 0 {
		t.SetTraceSpan(s.TraceID, s.curSpanKind)
	}
	s.txn = t
	s.maybeRegisterSSI(t)
	return t, true
}

func (s *Session) finishImplicit(t *txn.Txn, commit bool) error {
	s.txn = nil
	defer s.Eng.Locks.ReleaseAll(t.VID)
	// Read-only transactions write no commit/abort record, like
	// PostgreSQL's xid-less transactions: there is nothing to make
	// durable, and — critically for replication — a standby serving
	// replica reads must not interleave local records into its WAL. The
	// standby's WAL is a verbatim copy of the primary's stream, and
	// promotion/rejoin resume positions assume the two logs coincide
	// record for record.
	if !t.DidWrite() {
		if commit {
			return s.Eng.Txns.Commit(t)
		}
		s.Eng.Txns.Abort(t)
		return nil
	}
	if commit {
		if err := s.Eng.Txns.Commit(t); err != nil {
			s.Eng.WAL.Append(wal.Record{Type: wal.RecAbort, XID: t.XID()})
			return err
		}
		// The commit record's WAL append is the durability point (the
		// stand-in for an fsync), so it gets its own span when traced.
		sp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "wal_fsync", "")
		s.Eng.WAL.Append(wal.Record{Type: wal.RecCommit, XID: t.XID()})
		sp.Finish()
		return nil
	}
	s.Eng.Txns.Abort(t)
	s.Eng.WAL.Append(wal.Record{Type: wal.RecAbort, XID: t.XID()})
	return nil
}

// Exec parses and executes one statement. Repeated statements skip the
// parser and the planner: parsed trees and their plans are cached per
// session keyed by query text and invalidated when DDL bumps the engine
// schema version. The cached tree is reused as-is — the AST mutators in the
// tree (sql.RewriteTables and sql.RenameTables) run exclusively on clones,
// so re-execution is safe.
func (s *Session) Exec(query string, params ...types.Datum) (*Result, error) {
	return decoded(s.ExecForward(query, params...))
}

// decoded finishes Exec and ExecStmt: the caller gets rows.
func decoded(res *Result, err error) (*Result, error) {
	if res != nil {
		res.DecodeRows()
	}
	return res, err
}

// ExecForward is Exec for a caller that passes the result on without reading
// its rows: a result that reached this session in wire form comes back that
// way (Result.Batch). Statements the session runs inside this one still see
// decoded rows.
func (s *Session) ExecForward(query string, params ...types.Datum) (*Result, error) {
	s.queryLabel = query
	if s.Eng.Features().NoPlanCache {
		stmt, err := s.parse(query)
		if err != nil {
			return nil, err
		}
		return s.execStmtForward(stmt, params, nil)
	}
	ver := s.Eng.schemaVer.Load()
	if ver != s.stmtCacheVer {
		s.dropStalePlans(ver)
	}
	if cs, ok := s.stmtCache[query]; ok {
		if cs.ver == ver {
			metStmtCacheHits.Inc()
			return s.execStmtForward(cs.stmt, params, cs)
		}
		delete(s.stmtCache, query)
		metStmtCacheInvalid.Inc()
	}
	stmt, err := s.parse(query)
	if err != nil {
		return nil, err
	}
	var entry *cachedStmt
	if cacheableStmt(stmt) {
		metStmtCacheMisses.Inc()
		if s.stmtCache == nil || len(s.stmtCache) >= sessionStmtCacheCap {
			s.stmtCache = make(map[string]*cachedStmt)
		}
		entry = &cachedStmt{stmt: stmt, ver: ver}
		s.stmtCache[query] = entry
	}
	return s.execStmtForward(stmt, params, entry)
}

// dropStalePlans lets go of the plans of every entry older than ver as soon
// as the session sees the version move, not when each entry's text comes
// back, which it may never do: a plan holds its tables' storage and index
// objects, and a DROP TABLE, a TRUNCATE or a shard move has just let go of
// them. The parse trees stay, to be found stale — and counted — at their next
// lookup.
func (s *Session) dropStalePlans(ver int64) {
	for _, cs := range s.stmtCache {
		if cs.ver != ver {
			cs.sel, cs.dml = nil, nil
		}
	}
	s.stmtCacheVer = ver
}

// parse wraps sql.Parse in a "parse" span when the session carries a
// trace context (on a worker, the statement's cost is attributed to the
// coordinator statement that fanned it out).
func (s *Session) parse(query string) (sql.Statement, error) {
	if s.TraceID == 0 {
		return sql.Parse(query)
	}
	sp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "parse", "")
	stmt, err := sql.Parse(query)
	sp.Finish()
	return stmt, err
}

// cacheableStmt limits the statement cache to the shapes that repeat in
// OLTP workloads. Utility and transaction-control statements are cheap to
// parse and would pollute the cache (a PREPARE TRANSACTION's text is
// distinct every time).
func cacheableStmt(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.SelectStmt, *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return true
	}
	return false
}

// ExecScript runs a multi-statement script, stopping at the first error.
func (s *Session) ExecScript(script string) error {
	stmts, err := sql.ParseMulti(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if _, err := s.ExecStmt(stmt, nil); err != nil {
			return fmt.Errorf("%s: %w", stmt.String(), err)
		}
	}
	return nil
}

// ExecStmt executes a parsed statement with bound parameters.
func (s *Session) ExecStmt(stmt sql.Statement, params []types.Datum) (*Result, error) {
	return decoded(s.execStmtForward(stmt, params, nil))
}

// execStmtForward is to ExecStmt what ExecForward is to Exec. entry, when
// not nil, is the statement cache entry stmt came from: execution takes a
// kept plan from it, or keeps the plan it makes there.
func (s *Session) execStmtForward(stmt sql.Statement, params []types.Datum, entry *cachedStmt) (*Result, error) {
	kind := stmtKind(stmt)
	metStatements[kind].Inc()
	label := s.queryLabel
	s.queryLabel = ""
	// Transaction control is handled before the failed-transaction check,
	// like PostgreSQL (ROLLBACK must always work).
	switch st := stmt.(type) {
	case *sql.BeginStmt:
		if s.explicit {
			return nil, fmt.Errorf("there is already a transaction in progress")
		}
		s.ensureTxn()
		s.explicit = true
		return &Result{Tag: "BEGIN"}, nil
	case *sql.CommitStmt:
		return s.execCommit()
	case *sql.RollbackStmt:
		return s.execRollback()
	case *sql.PrepareTransactionStmt:
		return s.execPrepareTransaction(st.GID)
	case *sql.CommitPreparedStmt:
		return s.execFinishPrepared(st.GID, true)
	case *sql.RollbackPreparedStmt:
		return s.execFinishPrepared(st.GID, false)
	case *sql.SetStmt:
		v, err := expr.EvalConst(st.Value)
		if err != nil {
			return nil, err
		}
		s.Settings[st.Name] = types.Format(v)
		// BEGIN; SET TRANSACTION ISOLATION LEVEL SERIALIZABLE: the already
		// open transaction enrolls in SSI here.
		if st.Name == "transaction_isolation" {
			s.maybeRegisterSSI(s.txn)
		}
		return &Result{Tag: "SET"}, nil
	}

	if s.txnFailed {
		return nil, errTxnAborted
	}

	// Open the statement span: a new root trace on an untraced session
	// (coordinator entry point, subject to sampling), a child "execute"
	// span when the session already carries a trace context (worker-side
	// task execution). Nested statements — e.g. the inner statement of
	// EXPLAIN — nest naturally because s.SpanID is the parent.
	var sp *trace.ActiveSpan
	rootSpan := false
	prevSpanID, prevKind := s.SpanID, s.curSpanKind
	if tr := s.Eng.Tracer; tr != nil {
		if label == "" {
			label = kind
		}
		if s.TraceID == 0 {
			if sp = tr.StartRoot(label); sp != nil {
				rootSpan = true
				s.TraceID, s.SpanID, s.curSpanKind = sp.TraceID(), sp.SpanID(), "statement"
			}
		} else if sp = tr.StartSpan(s.TraceID, s.SpanID, "execute", label); sp != nil {
			s.SpanID, s.curSpanKind = sp.SpanID(), "execute"
		}
		if sp != nil && s.txn != nil {
			s.txn.SetTraceSpan(s.TraceID, s.curSpanKind)
		}
	}

	res, err := s.execute(stmt, params, entry)
	if err != nil && !errors.Is(err, ErrRelationGone) {
		s.abortFailedStatement()
	}
	if sp != nil {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
		if rootSpan {
			s.LastTraceID = s.TraceID
			s.TraceID, s.SpanID, s.curSpanKind = 0, 0, ""
		} else {
			s.SpanID, s.curSpanKind = prevSpanID, prevKind
		}
	}
	return res, err
}

// abortFailedStatement implements PostgreSQL's error behavior inside a
// transaction block: the transaction aborts immediately (releasing its
// locks — essential for deadlock victims), and the session stays in the
// "aborted transaction block" state until COMMIT/ROLLBACK.
func (s *Session) abortFailedStatement() {
	if !s.explicit || s.txn == nil {
		return
	}
	t := s.txn
	s.txn = nil
	s.txnFailed = true
	s.Eng.Txns.Abort(t)
	if t.DidWrite() {
		s.Eng.WAL.Append(wal.Record{Type: wal.RecAbort, XID: t.XID()})
	}
	s.Eng.Locks.ReleaseAll(t.VID)
}

func (s *Session) execute(stmt sql.Statement, params []types.Datum, entry *cachedStmt) (*Result, error) {
	// Planner hook: the distributed layer takes over planning here. It is
	// asked before a kept plan is used, so a table that has become
	// distributed is never read through a local plan made before it was.
	if hook := s.Eng.PlannerHook; hook != nil {
		plan, err := hook(s, stmt, params)
		if err != nil {
			return nil, s.statementFailed(err)
		}
		if plan != nil {
			return s.runPlan(plan, params)
		}
	}

	switch st := stmt.(type) {
	case *sql.SelectStmt:
		if st.ForUpdate && len(st.From) == 1 {
			return s.execLockingSelect(st, params)
		}
		plan, err := s.selectPlan(st, entry)
		if err != nil {
			return nil, err
		}
		return s.runPlan(plan, params)
	case *sql.InsertStmt:
		return s.execDML(func(t *txn.Txn) (*Result, error) { return s.execInsert(st, params, t) })
	case *sql.UpdateStmt:
		return s.execDML(func(t *txn.Txn) (*Result, error) { return s.execUpdate(st, params, t, entry) })
	case *sql.DeleteStmt:
		return s.execDML(func(t *txn.Txn) (*Result, error) { return s.execDelete(st, params, t, entry) })
	case *sql.ExplainStmt:
		return s.execExplain(st, params)
	default:
		return s.execUtility(stmt, params)
	}
}

// selectPlan returns the plan entry keeps of sel when it was made on the
// same side of SSI tracking as the session is now. Otherwise it plans sel
// and keeps the plan in entry, unless the plan reads an intermediate result.
func (s *Session) selectPlan(sel *sql.SelectStmt, entry *cachedStmt) (Plan, error) {
	ssiTracked := s.ssiTracked()
	if entry != nil && entry.sel != nil && entry.selSSI == ssiTracked {
		return entry.sel, nil
	}
	psp := s.Eng.Tracer.StartSpan(s.TraceID, s.SpanID, "plan", "")
	plan, err := s.planSelect(sel)
	psp.Finish()
	if err == nil && entry != nil && !s.Eng.readsIntermediate(sel) {
		entry.sel, entry.selSSI = plan, ssiTracked
	}
	return plan, err
}

// readsIntermediate reports whether sel names a relation that is not a
// table of this node: the planner read it as an intermediate result.
func (e *Engine) readsIntermediate(sel *sql.SelectStmt) bool {
	found := false
	sql.WalkTables(sel, func(bt *sql.BaseTable) {
		if _, ok := e.store(bt.Name); !ok {
			found = true
		}
	})
	return found
}

// execDML wraps a write in the implicit-transaction protocol (WithTxn).
func (s *Session) execDML(fn func(*txn.Txn) (*Result, error)) (*Result, error) {
	var res *Result
	if err := s.WithTxn(func(t *txn.Txn) (err error) {
		res, err = fn(t)
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// errTxnAborted refuses every statement but COMMIT and ROLLBACK in a failed
// transaction block.
var errTxnAborted = errors.New("current transaction is aborted, commands ignored until end of transaction block")

// statementFailed marks an explicit transaction failed.
func (s *Session) statementFailed(err error) error {
	if s.explicit && !errors.Is(err, ErrRelationGone) {
		s.txnFailed = true
	}
	return err
}

func (s *Session) runPlan(plan Plan, params []types.Datum) (*Result, error) {
	res, err := s.execDML(func(*txn.Txn) (*Result, error) { return plan.Execute(s, params) })
	if err != nil {
		return nil, err
	}
	if res.Tag == "" {
		res.Affected = res.NumRows()
		res.Tag = "SELECT " + strconv.Itoa(res.Affected)
	}
	return res, nil
}

// OpenBlock puts the session inside the transaction block a coordinator
// names distID: BEGIN, with the distributed transaction id and the isolation
// level given to the block itself, not to the session. With no block open it
// opens one, and the transaction enrols in SSI tracking there and then if the
// block is serializable (a serializable or repeatable read block runs under
// its first statement's snapshot); with that same block already open it does
// nothing; inside any other block it fails, having changed nothing. The wire server
// calls it as one step with executing the statement of a request that
// carries a block, so a statement never runs outside the block it was sent
// for.
func (s *Session) OpenBlock(distID string, serializable, repeatableRead bool) error {
	if s.explicit {
		if s.block.distID == distID {
			return nil
		}
		return fmt.Errorf("session is inside transaction block %q, not %q", s.block.distID, distID)
	}
	// engine.block_open, keyed by dist txn id: fails the open before it has
	// begun anything.
	if err := fault.CheckKey(fault.PointEngineBlockOpen, distID); err != nil {
		return err
	}
	metStatements["txn_control"].Inc()
	s.block.distID, s.block.serializable, s.block.repeatableRead = distID, serializable, repeatableRead
	s.ensureTxn()
	s.explicit = true
	return nil
}

// endBlock leaves the transaction block: the session is back in autocommit
// and keeps nothing of the block, neither its coordinator's name for it nor
// its isolation level.
func (s *Session) endBlock() {
	s.txn, s.explicit, s.txnFailed = nil, false, false
	s.block.distID, s.block.serializable, s.block.repeatableRead = "", false, false
}

// Close gives the session's slot in the proc array back. A session left
// open gives it back when it is collected (txn.Proc).
func (s *Session) Close() {
	if s.proc != nil {
		s.proc.Close()
		s.proc = nil
	}
}

func (s *Session) execCommit() (*Result, error) {
	t, failed := s.txn, s.txnFailed
	s.endBlock()
	if t == nil {
		// an aborted transaction block commits as a rollback
		if failed {
			return &Result{Tag: "ROLLBACK"}, nil
		}
		return &Result{Tag: "COMMIT"}, nil
	}
	if err := s.finishImplicit(t, true); err != nil {
		return nil, err
	}
	return &Result{Tag: "COMMIT"}, nil
}

func (s *Session) execRollback() (*Result, error) {
	t := s.txn
	s.endBlock()
	if t == nil {
		return &Result{Tag: "ROLLBACK"}, nil
	}
	if err := s.finishImplicit(t, false); err != nil {
		return nil, err
	}
	return &Result{Tag: "ROLLBACK"}, nil
}

func (s *Session) execPrepareTransaction(gid string) (*Result, error) {
	if s.txn == nil || !s.explicit {
		return nil, fmt.Errorf("PREPARE TRANSACTION requires an open transaction block")
	}
	if s.txnFailed {
		return nil, fmt.Errorf("current transaction is aborted")
	}
	t := s.txn
	if err := s.Eng.Txns.Prepare(t, gid); err != nil {
		s.txnFailed = true
		return nil, err
	}
	// The session leaves the transaction; its locks stay held by the
	// prepared transaction until COMMIT/ROLLBACK PREPARED.
	s.endBlock()
	s.Eng.WAL.Append(wal.Record{Type: wal.RecPrepare, XID: t.XID(), GID: gid})
	return &Result{Tag: "PREPARE TRANSACTION"}, nil
}

func (s *Session) execFinishPrepared(gid string, commit bool) (*Result, error) {
	t, err := s.Eng.Txns.FinishPrepared(gid, commit)
	if err != nil {
		return nil, err
	}
	// The transaction stays listed as prepared until its outcome record is
	// in the log. A recovery round that lists this node in between must
	// still find it: finding it gone, it takes the coordinator's commit
	// record for resolved and drops it, and a crash before the record is
	// durable brings the transaction back prepared with no record left to
	// commit it. The record goes into the log before the locks are released
	// too, as at every transaction end: whoever the release lets in (a shard
	// move's write block) finds it there.
	defer s.Eng.Txns.ForgetPrepared(gid)
	defer s.Eng.Locks.ReleaseAll(t.VID)
	// FinishPrepared flips only the clog — no callbacks run (the owning
	// session detached at PREPARE) — so SSI is finalized explicitly.
	s.Eng.finalizePreparedSSI(t.VID, commit)
	if commit {
		s.Eng.WAL.Append(wal.Record{Type: wal.RecCommitPrepared, XID: t.XID(), GID: gid})
		return &Result{Tag: "COMMIT PREPARED"}, nil
	}
	s.Eng.WAL.Append(wal.Record{Type: wal.RecAbortPrepared, XID: t.XID(), GID: gid})
	return &Result{Tag: "ROLLBACK PREPARED"}, nil
}

// holdsSnapshot reports whether the session's transactions run every
// statement under the snapshot their first one took: REPEATABLE READ, and
// SERIALIZABLE with SSI on or off (snapshot isolation, which SSI builds on).
// Such a transaction never follows an update chain past its snapshot
// (lockTargets).
func (s *Session) holdsSnapshot() bool { return s.RepeatableRead() || s.Serializable() }

// snapshot returns a statement snapshot for the current transaction: a
// fresh one per statement (READ COMMITTED, the default), or the
// transaction's held snapshot when the session holds one.
func (s *Session) snapshot(t *txn.Txn) txn.Snapshot {
	if s.holdsSnapshot() {
		return s.Eng.Txns.HeldSnapshot(t)
	}
	return s.Eng.Txns.TakeSnapshot(t)
}

// WithTxn runs fn inside the session's transaction, starting (and
// committing/aborting) an implicit one when no block is open. The
// distributed layer uses this to give propagated DDL transactional,
// all-or-nothing semantics.
func (s *Session) WithTxn(fn func(t *txn.Txn) error) error {
	t, implicit := s.ensureTxn()
	err := fn(t)
	if implicit {
		if err != nil {
			_ = s.finishImplicit(t, false)
			return err
		}
		return s.finishImplicit(t, true)
	}
	if err != nil {
		return s.statementFailed(err)
	}
	return nil
}
