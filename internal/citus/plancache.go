package citus

import (
	"sort"
	"sync"
	"sync/atomic"

	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// The coordinator distributed-plan cache keeps the planners' analyses, so a
// repeated statement only binds one:
//
//   - the router planner's (routerShape, planner.go), per normalized
//     statement shape — constant literals lifted into synthetic parameters.
//     A hit evaluates the distribution values, hashes them to a shard and
//     looks up its current placements; the shape memoizes the deparsed task
//     SQL per shard group. This is the plan caching that makes Citus'
//     fast-path planner cheap on repeated single-shard OLTP statements.
//   - the logical pushdown planner's (pushdownShape, pushdown.go), per
//     statement text, for a SELECT the router does not scope to one shard
//     group. Literals are not lifted: they stay in the worker texts, where
//     the worker types them after the column they meet (expr.CompileAgainst
//     types a constant, not a parameter). A hit looks up each shard's
//     current placements; the task texts and the parsed merge query were
//     made at install.
//
// Both are stamped with the metadata version they were analyzed under, and
// dropped on a mismatch. The parse-tree clones, the planner-tier walk and
// the analyses are skipped on a hit.

var (
	metPlanCacheHits = obs.Default().Counter("citus_plancache_hits",
		"router and pushdown statements planned from the coordinator plan cache").With()
	metPlanCacheMisses = obs.Default().Counter("citus_plancache_misses",
		"router and pushdown statements analyzed and installed into the coordinator plan cache").With()
	metPlanCacheInvalidations = obs.Default().Counter("citus_plancache_invalidations",
		"coordinator plan-cache entries dropped after a metadata version change").With()
)

// planCacheMaxEntries bounds each map of the cache; on overflow the map is
// flushed wholesale (repeated shapes re-enter on the next execution, one-off
// shapes churn through without LRU bookkeeping).
const planCacheMaxEntries = 512

// planCache is per-node and shared by all sessions planning on it.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*routerShape
	// negative remembers shapes the router cannot plan (a table without a
	// distribution filter, tables of two co-location groups, ...) so the
	// analysis cost is paid once per (shape, metadata version) instead of per
	// execution.
	negative map[string]int64
	// pushdown holds the pushdown planner's shapes by statement text.
	pushdown map[string]*pushdownShape
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
	ok      bool // false: the shape is not cacheable
	key     string
	lifted  []types.Datum
	nParams int    // caller parameter count the synthetic numbering assumed
	text    string // the statement's own text, the pushdown key; "" until needed
	callsFn bool   // the statement reads a function: no planner takes it
}

func newPlanCache() *planCache {
	return &planCache{
		entries:  make(map[string]*routerShape),
		negative: make(map[string]int64),
		pushdown: make(map[string]*pushdownShape),
		fp:       make(map[sql.Statement]fingerprint),
	}
}

// plan is the fast path: the router's shape for the statement, bound, and
// for a SELECT the router does not scope to one shard group, the pushdown
// planner's. nil: neither planner takes the statement (join order and
// multi-shard DML do).
func (pc *planCache) plan(n *Node, stmt sql.Statement, params []types.Datum) (*distPlan, error) {
	pc.mu.Lock()
	f, have := pc.fp[stmt]
	pc.mu.Unlock()
	if !have || f.nParams != len(params) {
		key, lifted, ok := normalizeStatement(stmt, len(params))
		f = fingerprint{ok: ok, key: key, lifted: lifted, nParams: len(params), callsFn: sql.CallsFunction(stmt)}
		if ok && len(lifted) == 0 {
			f.text = key
		}
		pc.mu.Lock()
		if len(pc.fp) >= planCacheMaxEntries {
			pc.fp = make(map[sql.Statement]fingerprint)
		}
		pc.fp[stmt] = f
		pc.mu.Unlock()
	}
	if f.callsFn {
		return nil, errUnsupportedShape // the shards' nodes would call it
	}
	p, err := pc.planRouter(n, stmt, f, params)
	if p != nil || err != nil {
		return p, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok || sel.ForUpdate {
		return nil, nil
	}
	return pc.planPushdown(n, sel, f, params)
}

// planRouter normalizes, looks the router shape up — analyzing and installing
// it on a miss — and binds it. A statement normalizeStatement rejects (a
// join, a FROM subquery) is analyzed on every execution, as with the cache
// off. nil: the values do not route, or the shape never does.
func (pc *planCache) planRouter(n *Node, stmt sql.Statement, f fingerprint, params []types.Datum) (*distPlan, error) {
	if !f.ok {
		return n.analyzeRouter(stmt).plan(n, params, false)
	}
	combined := params
	if len(f.lifted) > 0 {
		// copy, never append in place: the caller owns params
		combined = make([]types.Datum, 0, len(params)+len(f.lifted))
		combined = append(combined, params...)
		combined = append(combined, f.lifted...)
	}
	ver := n.Meta.Version()

	pc.mu.Lock()
	if v, bad := pc.negative[f.key]; bad && v == ver {
		pc.mu.Unlock()
		return nil, nil
	}
	s := pc.entries[f.key]
	if s != nil && s.metaVersion != ver {
		delete(pc.entries, f.key)
		s = nil
		pc.invalidated()
	}
	pc.mu.Unlock()

	hit := s != nil
	if !hit {
		if s = pc.install(n, f.key, ver); s == nil {
			return nil, nil
		}
	}
	p, err := s.plan(n, combined, hit)
	if p == nil || err != nil {
		// a NULL or unroutable value: the planner walk gives the answer the
		// uncached path would, and nothing is counted
		return nil, err
	}
	pc.count(hit)
	return p, nil
}

// install analyzes a normalized statement shape and caches the result —
// positive or negative — under the metadata version it was analyzed at.
func (pc *planCache) install(n *Node, key string, ver int64) *routerShape {
	var s *routerShape
	if norm, err := sql.Parse(key); err == nil {
		s = n.analyzeRouter(norm)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if s == nil {
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
	s.key, s.metaVersion = key, ver
	if len(pc.entries) >= planCacheMaxEntries {
		pc.entries = make(map[string]*routerShape)
	}
	pc.entries[key] = s
	return s
}

// planPushdown looks the pushdown shape of sel up by the statement's own
// text — analyzing and installing it on a miss — and binds it. nil: the join
// tree is not co-located (the join-order planner's).
func (pc *planCache) planPushdown(n *Node, sel *sql.SelectStmt, f fingerprint, params []types.Datum) (*distPlan, error) {
	key := f.text
	if key == "" {
		key = sel.String()
		pc.mu.Lock()
		if e, ok := pc.fp[sel]; ok {
			e.text = key
			pc.fp[sel] = e
		}
		pc.mu.Unlock()
	}
	ver := n.Meta.Version()

	pc.mu.Lock()
	s := pc.pushdown[key]
	if s != nil && s.metaVersion != ver {
		delete(pc.pushdown, key)
		s = nil
		pc.invalidated()
	}
	pc.mu.Unlock()

	hit := s != nil
	if !hit {
		var err error
		if s, err = pc.installPushdown(n, sel, key, ver); s == nil || err != nil {
			return nil, err
		}
	}
	p, err := s.plan(n, params, hit)
	if err != nil {
		return nil, err
	}
	pc.count(hit)
	return p, nil
}

// installPushdown analyzes a private parse of the statement text, so the
// shape shares no node with the session's tree, and caches it under the
// metadata version it was analyzed at. A SELECT the pushdown planner does
// not take is turned away before the parse and not remembered: the
// join-order planner it goes to costs far more than the check.
func (pc *planCache) installPushdown(n *Node, sel *sql.SelectStmt, key string, ver int64) (*pushdownShape, error) {
	if _, _, ok := n.pushdownTarget(sel); !ok {
		return nil, nil
	}
	stmt, err := sql.Parse(key)
	if err != nil {
		return nil, err
	}
	s, err := n.analyzePushdown(stmt.(*sql.SelectStmt))
	if s == nil || err != nil {
		return nil, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if prev, ok := pc.pushdown[key]; ok && prev.metaVersion == ver {
		return prev, nil
	}
	s.key, s.metaVersion = key, ver
	if len(pc.pushdown) >= planCacheMaxEntries {
		pc.pushdown = make(map[string]*pushdownShape)
	}
	pc.pushdown[key] = s
	return s, nil
}

// count records one statement planned from a cached shape (hit) or from one
// analyzed and installed for it.
func (pc *planCache) count(hit bool) {
	if hit {
		pc.hits.Add(1)
		metPlanCacheHits.Inc()
	} else {
		pc.misses.Add(1)
		metPlanCacheMisses.Inc()
	}
}

// invalidated records one entry dropped for its metadata version; pc.mu is
// held.
func (pc *planCache) invalidated() {
	pc.invalidations.Add(1)
	metPlanCacheInvalidations.Inc()
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
	for _, e := range pc.pushdown {
		entries = append(entries, planCacheEntryStat{key: e.key, shardGroups: len(e.taskSQL)})
	}
	pc.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries, pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load()
}
