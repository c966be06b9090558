package citus

import (
	"sort"
	"sync"
	"sync/atomic"

	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// The coordinator distributed-plan cache: the router planner's analysis of a
// statement (routerShape, planner.go) is kept per normalized statement shape —
// constant literals lifted into synthetic parameters — and per metadata
// version. A hit re-runs only the bind: evaluating the distribution values,
// hashing them to a shard and looking up the current placements. The
// parse-tree clone, the planner-tier walk and the analysis are skipped, and
// the shape memoizes the deparsed task SQL per shard group, so clone.String()
// runs once per (statement shape × shard group) instead of once per
// execution. This is the plan caching that makes Citus' fast-path planner
// cheap on repeated single-shard OLTP statements.

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
	entries map[string]*routerShape
	// negative remembers shapes the router cannot plan (a table without a
	// distribution filter, tables of two co-location groups, ...) so the
	// analysis cost is paid once per (shape, metadata version) instead of per
	// execution.
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
	ok      bool // false: the shape is not cacheable
	key     string
	lifted  []types.Datum
	nParams int // caller parameter count the synthetic numbering assumed
}

func newPlanCache() *planCache {
	return &planCache{
		entries:  make(map[string]*routerShape),
		negative: make(map[string]int64),
		fp:       make(map[sql.Statement]fingerprint),
	}
}

// plan is the fast path: normalize, look the shape up — analyzing and
// installing it on a miss — and bind it. A statement normalizeStatement
// rejects (a join, a FROM subquery) is analyzed on every execution, as with
// the cache off. nil: the values do not route, or the shape never does.
func (pc *planCache) plan(n *Node, stmt sql.Statement, params []types.Datum) (*distPlan, error) {
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
		pc.invalidations.Add(1)
		metPlanCacheInvalidations.Inc()
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
	if hit {
		pc.hits.Add(1)
		metPlanCacheHits.Inc()
	} else {
		pc.misses.Add(1)
		metPlanCacheMisses.Inc()
	}
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
