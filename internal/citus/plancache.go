package citus

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// The coordinator distributed-plan cache: fast-path/router statements are
// normalized by lifting constant literals into synthetic parameters, keyed
// by (normalized SQL, metadata version), and on a hit only shard pruning
// re-runs on the extracted distribution-column value — the parse-tree
// clone, the planner-tier walk, and the per-execution deparse are all
// skipped. Cached entries memoize the deparsed task SQL per shard group,
// so clone.String() runs once per (statement shape × shard group) instead
// of once per execution. This is the plan caching that makes Citus'
// fast-path planner cheap on repeated single-shard OLTP statements.

var (
	metPlanCacheHits = obs.Default().Counter("citus_plancache_hits",
		"router statements planned from the coordinator plan cache").With()
	metPlanCacheMisses = obs.Default().Counter("citus_plancache_misses",
		"router statements analyzed and installed into the coordinator plan cache").With()
	metPlanCacheInvalidations = obs.Default().Counter("citus_plancache_invalidations",
		"coordinator plan-cache entries dropped after a metadata version change").With()
)

// planCacheMaxEntries bounds both the entry map and the negative cache; on
// overflow the map is flushed wholesale (repeated shapes re-enter on the
// next execution, one-off shapes churn through without LRU bookkeeping).
const planCacheMaxEntries = 512

// planCache is per-node and shared by all sessions planning on it.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	// negative remembers shapes the fast path cannot route (multi-table
	// joins, missing distribution filter, ...) so the analysis cost is
	// paid once per (shape, metadata version) instead of per execution.
	negative map[string]int64
	// fp memoizes normalizeStatement by AST identity: the engine session
	// statement cache hands the planner the same parse tree for repeated
	// statement text, so the per-execution key render (a full deparse)
	// collapses to a map lookup. Keying on the pointer keeps the AST alive,
	// so entries can never alias a recycled address; literal values are
	// embedded in the tree, so identity fixes both key and lifted values.
	fp map[sql.Statement]fingerprint

	hits, misses, invalidations atomic.Int64
}

// fingerprint is one memoized normalization result.
type fingerprint struct {
	ok      bool // false: shape is not fast-path eligible
	key     string
	lifted  []types.Datum
	nParams int // caller parameter count the synthetic numbering assumed
}

func newPlanCache() *planCache {
	return &planCache{
		entries:  make(map[string]*planEntry),
		negative: make(map[string]int64),
		fp:       make(map[sql.Statement]fingerprint),
	}
}

// planEntry is one cached statement shape. All fields are immutable after
// install except taskSQL, which memoizes per-shard-group deparses under mu.
type planEntry struct {
	key         string
	metaVersion int64
	norm        sql.Statement // parse of key; read-only, cloned for deparse

	table      string // the distributed table the statement routes on
	colocation int
	// distValue evaluates the distribution-column filter against the
	// combined (caller + lifted) parameters — it handles `k = $1`,
	// `k = 42` (lifted to a synthetic parameter), and `k = $1 + 1` alike.
	distValue expr.Evaluator
	isWrite   bool
	isDML     bool
	tag       string

	mu      sync.Mutex
	taskSQL map[int]string // shard index -> deparsed task SQL
}

// tryPlan is the fast path: normalize, look up, and build a router plan
// without walking the planner tiers. handled=false defers to the regular
// planner walk (ineligible shape, NULL distribution value, cache miss that
// failed analysis).
func (pc *planCache) tryPlan(n *Node, stmt sql.Statement, params []types.Datum) (plan engine.Plan, handled bool, err error) {
	pc.mu.Lock()
	f, have := pc.fp[stmt]
	pc.mu.Unlock()
	if !have || f.nParams != len(params) {
		key, lifted, ok := normalizeStatement(stmt, len(params))
		f = fingerprint{ok: ok, key: key, lifted: lifted, nParams: len(params)}
		pc.mu.Lock()
		if len(pc.fp) >= planCacheMaxEntries {
			pc.fp = make(map[sql.Statement]fingerprint)
		}
		pc.fp[stmt] = f
		pc.mu.Unlock()
	}
	if !f.ok {
		return nil, false, nil
	}
	key, lifted := f.key, f.lifted
	combined := params
	if len(lifted) > 0 {
		// copy, never append in place: the caller owns params
		combined = make([]types.Datum, 0, len(params)+len(lifted))
		combined = append(combined, params...)
		combined = append(combined, lifted...)
	}
	ver := n.Meta.Version()

	pc.mu.Lock()
	if v, bad := pc.negative[key]; bad && v == ver {
		pc.mu.Unlock()
		return nil, false, nil
	}
	e := pc.entries[key]
	if e != nil && e.metaVersion != ver {
		delete(pc.entries, key)
		e = nil
		pc.invalidations.Add(1)
		metPlanCacheInvalidations.Inc()
	}
	pc.mu.Unlock()

	installed := false
	if e == nil {
		if e = pc.install(n, key, ver); e == nil {
			return nil, false, nil
		}
		installed = true
	}
	p, err := e.plan(n, combined, !installed)
	if err != nil {
		return nil, false, err
	}
	if p == nil {
		// NULL distribution value or unroutable parameters: let the
		// planner walk produce the same answer the uncached path would
		return nil, false, nil
	}
	if installed {
		pc.misses.Add(1)
		metPlanCacheMisses.Inc()
	} else {
		pc.hits.Add(1)
		metPlanCacheHits.Inc()
	}
	return p, true, nil
}

// install analyzes a normalized statement shape and caches the result —
// positive or negative — under the metadata version it was analyzed at.
func (pc *planCache) install(n *Node, key string, ver int64) *planEntry {
	e := analyzeRouterShape(n, key, ver)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e == nil {
		if len(pc.negative) >= planCacheMaxEntries {
			pc.negative = make(map[string]int64)
		}
		pc.negative[key] = ver
		return nil
	}
	if prev, ok := pc.entries[key]; ok && prev.metaVersion == ver {
		// a concurrent session installed the same shape; share its entry
		// (and its memoized deparses)
		return prev
	}
	if len(pc.entries) >= planCacheMaxEntries {
		pc.entries = make(map[string]*planEntry)
	}
	pc.entries[key] = e
	return e
}

// analyzeRouterShape decides whether the normalized statement is fast-path
// routable — exactly one distributed table, with a `distcol = <expr>`
// conjunct in the top-level WHERE — and compiles the filter's value
// expression. Reference tables may ride along (they need no filter, as in
// planRouter). Returns nil for shapes the regular planner walk must handle.
func analyzeRouterShape(n *Node, key string, ver int64) *planEntry {
	norm, err := sql.Parse(key)
	if err != nil {
		return nil
	}
	dist := n.distTablesIn(norm)
	if len(dist) != 1 {
		return nil
	}
	var (
		table, alias string
		where        sql.Expr
		isWrite      bool
		isDML        bool
		tag          string
	)
	switch st := norm.(type) {
	case *sql.SelectStmt:
		if len(st.From) != 1 {
			return nil
		}
		bt, ok := st.From[0].(*sql.BaseTable)
		if !ok {
			return nil
		}
		table, alias, where = bt.Name, bt.RefName(), st.Where
		isWrite = st.ForUpdate
	case *sql.UpdateStmt:
		table, alias, where = st.Table, st.Alias, st.Where
		isWrite, isDML, tag = true, true, "UPDATE"
	case *sql.DeleteStmt:
		table, alias, where = st.Table, st.Alias, st.Where
		isWrite, isDML, tag = true, true, "DELETE"
	default:
		return nil
	}
	if table != dist[0] {
		return nil
	}
	dt, ok := n.Meta.Table(table)
	if !ok || dt.Type != metadata.DistributedTable {
		return nil
	}
	var distValue expr.Evaluator
	for _, c := range splitAnd(where) {
		b, ok := c.(*sql.BinaryExpr)
		if !ok || b.Op != sql.OpEq {
			continue
		}
		cr, crOK := b.L.(*sql.ColumnRef)
		other := b.R
		if !crOK {
			cr, crOK = b.R.(*sql.ColumnRef)
			other = b.L
		}
		if !crOK || cr.Name != dt.DistColumn {
			continue
		}
		if cr.Table != "" && cr.Table != table && cr.Table != alias {
			continue
		}
		if _, isCol := other.(*sql.ColumnRef); isCol {
			// col = col is a join predicate, not a constant filter
			continue
		}
		ev, err := expr.Compile(other, nil)
		if err != nil {
			continue
		}
		distValue = ev
		break
	}
	if distValue == nil {
		return nil
	}
	return &planEntry{
		key:         key,
		metaVersion: ver,
		norm:        norm,
		table:       table,
		colocation:  dt.ColocationID,
		distValue:   distValue,
		isWrite:     isWrite,
		isDML:       isDML,
		tag:         tag,
		taskSQL:     make(map[int]string),
	}
}

// plan re-runs only shard pruning: evaluate the distribution value, hash
// it to a shard, look up the current primary placement (placement moves
// are picked up without eviction — shard names are stable across moves),
// and fetch or build the memoized per-shard task SQL. cached marks the task
// as a plan-cache hit for tracing and EXPLAIN ANALYZE (the first execution
// of a shape installs the entry and still counts as a miss).
func (e *planEntry) plan(n *Node, params []types.Datum, cached bool) (engine.Plan, error) {
	val, err := e.distValue(&expr.Ctx{Params: params})
	if err != nil || val == nil {
		return nil, nil
	}
	sh, err := n.Meta.ShardForValue(e.table, val)
	if err != nil {
		return nil, err
	}
	nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		return nil, err
	}
	sqlText, err := e.sqlFor(n, sh.Index)
	if err != nil {
		return nil, err
	}
	group := metadata.ShardGroupID(e.colocation, sh.Index)
	cacheMark := ""
	if cached {
		cacheMark = "hit"
	}
	var readNodes []int
	if !e.isWrite {
		readNodes = n.Meta.ReadPlacements(sh.ID)
	}
	return &distPlan{
		node: n,
		tasks: []task{{
			nodeID: nodeID, shardGroup: group,
			sql: sqlText, params: params, isWrite: e.isWrite,
			cache: cacheMark, readNodes: readNodes,
		}},
		isDML: e.isDML,
		tag:   e.tag,
		explain: []string{
			"Custom Scan (Citus Router)",
			fmt.Sprintf("  Task Count: 1 (cached plan, shard group %d on node %d)", sh.Index, nodeID),
		},
	}, nil
}

// sqlFor returns the deparsed task SQL for one shard index, building it at
// most once per (entry, shard group).
func (e *planEntry) sqlFor(n *Node, shardIndex int) (string, error) {
	e.mu.Lock()
	if s, ok := e.taskSQL[shardIndex]; ok {
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()
	clone, err := sql.CloneStatement(e.norm)
	if err != nil {
		return "", err
	}
	sql.RewriteTables(clone, n.shardNameRewriter(shardIndex))
	s := clone.String()
	e.mu.Lock()
	e.taskSQL[shardIndex] = s
	e.mu.Unlock()
	return s, nil
}

// ---------------------------------------------------------------------------
// Statement normalization

// normalizeStatement computes the cache fingerprint of a fast-path-eligible
// statement by temporarily lifting eligible constant literals into
// synthetic parameters (numbered after the caller's), rendering the
// statement text, and restoring the literals in reverse order. Sessions
// execute statements one at a time, so the in-place mutation is invisible
// outside this call. The synthetic-parameter numbering makes the literal
// and parameterized spellings of a statement share one cache entry:
// `WHERE k = 42` with no parameters and `WHERE k = $1` with one both
// normalize to `WHERE k = $1`, with aligned combined parameter spaces.
//
// Only literals whose value cannot change the plan shape are lifted: the
// non-column side of top-level WHERE comparisons against a column, and
// UPDATE SET values (including one arithmetic level, covering the pgbench
// `SET v = v + 1` shape). Literals in LIMIT/OFFSET, ORDER BY, GROUP BY,
// IN lists, and subqueries stay in the fingerprint — distinct constants
// there are distinct plans.
func normalizeStatement(stmt sql.Statement, nParams int) (key string, lifted []types.Datum, ok bool) {
	var restore []func()
	next := nParams
	lift := func(slot *sql.Expr) {
		lit, isLit := (*slot).(*sql.Literal)
		if !isLit || lit.Value == nil {
			return // keep NULL in the text: `= NULL` never matches anyway
		}
		next++
		s, l := slot, lit
		*s = &sql.Param{Index: next}
		lifted = append(lifted, l.Value)
		restore = append(restore, func() { *s = l })
	}
	liftCmp := func(e sql.Expr) {
		b, isBin := e.(*sql.BinaryExpr)
		if !isBin {
			return
		}
		switch b.Op {
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		default:
			return
		}
		if _, isCol := b.L.(*sql.ColumnRef); isCol {
			lift(&b.R)
			return
		}
		if _, isCol := b.R.(*sql.ColumnRef); isCol {
			lift(&b.L)
		}
	}
	liftWhere := func(w sql.Expr) {
		for _, c := range splitAnd(w) {
			liftCmp(c)
		}
	}
	liftValue := func(slot *sql.Expr) {
		if b, isBin := (*slot).(*sql.BinaryExpr); isBin {
			switch b.Op {
			case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod, sql.OpConcat:
				if _, isCol := b.L.(*sql.ColumnRef); isCol {
					lift(&b.R)
					return
				}
				if _, isCol := b.R.(*sql.ColumnRef); isCol {
					lift(&b.L)
				}
			}
			return
		}
		lift(slot)
	}

	switch st := stmt.(type) {
	case *sql.SelectStmt:
		if len(st.From) != 1 {
			return "", nil, false
		}
		if _, isBase := st.From[0].(*sql.BaseTable); !isBase {
			return "", nil, false
		}
		liftWhere(st.Where)
	case *sql.UpdateStmt:
		for i := range st.Set {
			liftValue(&st.Set[i].Value)
		}
		liftWhere(st.Where)
	case *sql.DeleteStmt:
		liftWhere(st.Where)
	default:
		return "", nil, false
	}
	key = stmt.String()
	for i := len(restore) - 1; i >= 0; i-- {
		restore[i]()
	}
	return key, lifted, true
}

// ---------------------------------------------------------------------------
// Introspection (citus_plancache_stats)

type planCacheEntryStat struct {
	key         string
	shardGroups int
}

func (pc *planCache) stats() (entries []planCacheEntryStat, hits, misses, invalidations int64) {
	pc.mu.Lock()
	for _, e := range pc.entries {
		e.mu.Lock()
		entries = append(entries, planCacheEntryStat{key: e.key, shardGroups: len(e.taskSQL)})
		e.mu.Unlock()
	}
	pc.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries, pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load()
}
