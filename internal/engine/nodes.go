package engine

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"time"

	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/sql"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// errStop terminates execution early (LIMIT satisfied).
var errStop = errors.New("stop execution")

// execCtx carries per-statement execution state through the node tree.
type execCtx struct {
	sess *Session
	txn  *txn.Txn
	snap txn.Snapshot
	eval *expr.Ctx
	// ssi is non-nil for SSI-tracked (SERIALIZABLE) transactions: scans
	// take SIREAD locks and record read-side rw-antidependencies through it.
	ssi *ssiHooks
}

// node is one executor node; run pushes output rows into emit.
type node interface {
	columns() []string
	run(ec *execCtx, emit func(types.Row) error) error
	explain(indent string) []string
}

// localPlan adapts a node tree to the Plan interface.
type localPlan struct {
	root node
}

func (p *localPlan) Columns() []string { return p.root.columns() }

func (p *localPlan) ExplainLines() []string { return p.root.explain("") }

func (p *localPlan) Execute(s *Session, params []types.Datum) (*Result, error) {
	t, _ := s.ensureTxn()
	ec := &execCtx{
		sess: s,
		txn:  t,
		snap: s.snapshot(t),
	}
	ec.ssi = s.ssiFor(t, ec.snap)
	ec.eval = s.evalCtx(params)
	res := &Result{Columns: p.root.columns()}
	err := p.root.run(ec, func(row types.Row) error {
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return nil, err
	}
	return res, nil
}

// evalCtx is a statement's evaluation context: its parameters, and its
// uncorrelated subqueries, each run once (expr.Ctx caches the rows) inside
// the current transaction.
func (s *Session) evalCtx(params []types.Datum) *expr.Ctx {
	return &expr.Ctx{Params: params, ExecSubquery: func(sel *sql.SelectStmt) ([]types.Row, error) {
		return s.runSubquery(sel, params)
	}}
}

// runSubquery executes an uncorrelated subquery inside the current
// transaction. The planner hook gets first pick, so a subquery over
// distributed tables is planned as its own distributed query.
func (s *Session) runSubquery(sel *sql.SelectStmt, params []types.Datum) ([]types.Row, error) {
	var plan Plan
	if hook := s.Eng.PlannerHook; hook != nil {
		p, err := hook(s, sel, params)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if plan == nil {
		p, err := s.planSelect(sel)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	res, err := plan.Execute(s, params)
	if err != nil {
		return nil, err
	}
	return res.DecodeRows(), nil
}

// evalWith temporarily points the shared eval context at row.
func (ec *execCtx) evalWith(ev expr.Evaluator, row types.Row) (types.Datum, error) {
	saved := ec.eval.Row
	ec.eval.Row = row
	v, err := ev(ec.eval)
	ec.eval.Row = saved
	return v, err
}

// filterPasses evaluates a predicate with SQL semantics (NULL = no match).
func (ec *execCtx) filterPasses(pred expr.Evaluator, row types.Row) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := ec.evalWith(pred, row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

// ---------------------------------------------------------------------------
// Scans

// scanNode reads a base table through its access path (storage.read): a
// heap table's pages, or a columnar table's stripes, when path is nil, else
// an index's candidates, which filter rechecks.
type scanNode struct {
	st     *storage
	path   *accessPath
	cols   []string
	filter expr.Evaluator
	// needed lists column ordinals referenced by the query, ascending: the
	// columns a columnar scan reads and a heap scan decodes, the others
	// reading NULL; nil = all.
	needed []int
	// conjuncts keeps the WHERE conjunct ASTs compiled into filter, so the
	// planner can re-plan an aggregate over this scan through the
	// vectorized path (vec_source.go).
	conjuncts []sql.Expr
}

func (n *scanNode) columns() []string { return n.cols }

func (n *scanNode) explain(indent string) []string {
	name := n.st.table.Name
	switch {
	case n.path != nil && n.path.gin != nil:
		return []string{indent + "Bitmap Heap Scan on " + name,
			indent + "  -> Bitmap Index Scan using " + n.path.gin.def.Name + " (trigram)"}
	case n.path != nil:
		return []string{indent + "Index Scan using " + n.path.idx.def.Name + " on " + name}
	}
	s := indent + "Seq Scan on " + name
	if n.st.col != nil {
		s = indent + "Columnar Scan on " + name
	}
	if n.filter != nil {
		s += " (filtered)"
	}
	return []string{s}
}

func (n *scanNode) run(ec *execCtx, emit func(types.Row) error) error {
	return n.st.read(ec, n.path, n.needed, n.filter, func(_ heap.TID, row types.Row) error { return emit(row) })
}

// intermediateScanNode reads rows that are not stored in a table, taken
// from its source when it runs: a registered intermediate result, the
// relation type the distributed executor materializes for merge steps and
// repartition joins, or the rows a function returns.
type intermediateScanNode struct {
	label  string // its EXPLAIN line
	cols   []string
	filter expr.Evaluator
	source func(ec *execCtx) ([]types.Row, error)
}

func (n *intermediateScanNode) columns() []string { return n.cols }

func (n *intermediateScanNode) explain(indent string) []string {
	return []string{indent + n.label}
}

func (n *intermediateScanNode) run(ec *execCtx, emit func(types.Row) error) error {
	rows, err := n.source(ec)
	if err != nil {
		return err
	}
	for _, row := range rows {
		pass, err := ec.filterPasses(n.filter, row)
		if err != nil {
			return err
		}
		if !pass {
			continue
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Joins

// hashJoinNode implements equi-joins: the right side is built into a hash
// table, the left side probes.
type hashJoinNode struct {
	left, right         node
	leftKeys, rightKeys []expr.Evaluator // over the respective child rows
	joinType            sql.JoinType
	residual            expr.Evaluator // over the combined row
	cols                []string
	rightWidth          int
	// What the planner compiled the join from — each input's scope, the key
	// pairs and the residual conjuncts as ASTs — so that it can re-plan an
	// aggregate over the join through the vectorized path (vec_source.go).
	leftSc, rightSc     *scope
	leftKeyX, rightKeyX []sql.Expr
	residualX           []sql.Expr
}

func (n *hashJoinNode) columns() []string { return n.cols }

func (n *hashJoinNode) explain(indent string) []string {
	kind := "Hash Join"
	if n.joinType == sql.LeftJoin {
		kind = "Hash Left Join"
	}
	out := []string{indent + kind}
	out = append(out, n.left.explain(indent+"  ")...)
	out = append(out, n.right.explain(indent+"  ")...)
	return out
}

// appendHashKey appends the hash key of vals to buf: every value in its
// types.Format text, NULL apart from any text, a separator behind each.
func appendHashKey(buf []byte, vals []types.Datum) []byte {
	for _, v := range vals {
		if v == nil {
			buf = append(buf, "\x00N"...)
		} else {
			buf = types.AppendFormat(buf, v)
		}
		buf = append(buf, '\x1f')
	}
	return buf
}

func hashKeyString(vals []types.Datum) string { return string(appendHashKey(nil, vals)) }

func (n *hashJoinNode) run(ec *execCtx, emit func(types.Row) error) error {
	table := make(map[string][]types.Row)
	// one key slice and one key buffer for the whole join: a probe allocates
	// only the rows it emits
	keys := make([]types.Datum, len(n.rightKeys))
	var buf []byte
	// joinKey evaluates evs over row into buf; ok is false when a key is
	// NULL, which never joins.
	joinKey := func(evs []expr.Evaluator, row types.Row) (ok bool, err error) {
		for i, ev := range evs {
			if keys[i], err = ec.evalWith(ev, row); err != nil || keys[i] == nil {
				return false, err
			}
		}
		buf = appendHashKey(buf[:0], keys)
		return true, nil
	}
	err := n.right.run(ec, func(row types.Row) error {
		if ok, err := joinKey(n.rightKeys, row); !ok {
			return err
		}
		k := string(buf)
		table[k] = append(table[k], row.Clone())
		return nil
	})
	if err != nil {
		return err
	}
	return n.left.run(ec, func(lrow types.Row) error {
		ok, err := joinKey(n.leftKeys, lrow)
		if err != nil {
			return err
		}
		matched := false
		if ok {
			for _, rrow := range table[string(buf)] {
				combined := make(types.Row, len(lrow)+len(rrow))
				copy(combined[copy(combined, lrow):], rrow)
				pass, err := ec.filterPasses(n.residual, combined)
				if err != nil {
					return err
				}
				if !pass {
					continue
				}
				matched = true
				if err := emit(combined); err != nil {
					return err
				}
			}
		}
		if !matched && n.joinType == sql.LeftJoin {
			combined := make(types.Row, len(lrow)+n.rightWidth)
			copy(combined, lrow)
			return emit(combined)
		}
		return nil
	})
}

// nlJoinNode is the fallback nested-loop join for non-equi predicates; the
// right side is materialized once.
type nlJoinNode struct {
	left, right node
	on          expr.Evaluator // over the combined row; nil = cross join
	joinType    sql.JoinType
	cols        []string
	rightWidth  int
}

func (n *nlJoinNode) columns() []string { return n.cols }

func (n *nlJoinNode) explain(indent string) []string {
	out := []string{indent + "Nested Loop"}
	out = append(out, n.left.explain(indent+"  ")...)
	out = append(out, n.right.explain(indent+"  ")...)
	return out
}

func (n *nlJoinNode) run(ec *execCtx, emit func(types.Row) error) error {
	var rightRows []types.Row
	if err := n.right.run(ec, func(row types.Row) error {
		rightRows = append(rightRows, row.Clone())
		return nil
	}); err != nil {
		return err
	}
	return n.left.run(ec, func(lrow types.Row) error {
		matched := false
		for _, rrow := range rightRows {
			combined := append(append(types.Row{}, lrow...), rrow...)
			pass, err := ec.filterPasses(n.on, combined)
			if err != nil {
				return err
			}
			if n.on == nil {
				pass = true
			}
			if !pass {
				continue
			}
			matched = true
			if err := emit(combined); err != nil {
				return err
			}
		}
		if !matched && n.joinType == sql.LeftJoin {
			combined := append(append(types.Row{}, lrow...), make(types.Row, n.rightWidth)...)
			return emit(combined)
		}
		return nil
	})
}

// ---------------------------------------------------------------------------
// Aggregation, projection, sort, limit, distinct

type aggSpec struct {
	name     string
	distinct bool
	star     bool
	arg      expr.Evaluator
}

// aggNode computes hash aggregation: output row = group keys ++ aggregate
// results.
type aggNode struct {
	child      node
	groupEvals []expr.Evaluator
	aggs       []aggSpec
	cols       []string
}

func (n *aggNode) columns() []string { return n.cols }

func (n *aggNode) explain(indent string) []string {
	kind := "HashAggregate"
	if len(n.groupEvals) == 0 {
		kind = "Aggregate"
	}
	return append([]string{indent + kind}, n.child.explain(indent+"  ")...)
}

type aggGroup struct {
	keys   types.Row
	states []*expr.AggState
}

// appendGroupKey appends the grouping key of vals to buf. Two rows are one
// group when appendHashKey's text for them is the same — every value in its
// types.Format text, so 1 and '1' are one key, and a timestamp is its UTC
// microseconds whatever zone it carries — but the key is never shown, and
// formatting a bigint or a timestamp per input row is most of what a hash
// aggregate over such keys costs. So those two go in fixed width, and a
// string that is the text of one goes in as that one, which keeps the groups
// what they were.
func appendGroupKey(buf []byte, vals []types.Datum) []byte {
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			buf = append(buf, "\x00N"...)
		case int64:
			buf = appendIntKey(buf, x)
		case time.Time:
			buf = appendTimeKey(buf, x)
		case string:
			buf = appendStringKey(buf, x)
		case float64, bool: // their text is no bigint's and no timestamp's
			buf = types.AppendFormat(buf, v)
		default:
			buf = appendStringKey(buf, types.Format(v))
		}
		buf = append(buf, '\x1f')
	}
	return buf
}

func appendIntKey(buf []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, "\x00I"...), uint64(x))
}

// appendTimeKey appends t's second and microsecond: what its text shows.
func appendTimeKey(buf []byte, t time.Time) []byte {
	buf = binary.BigEndian.AppendUint64(append(buf, "\x00T"...), uint64(t.Unix()))
	return binary.BigEndian.AppendUint32(buf, uint32(t.Nanosecond()/1000))
}

// appendStringKey appends s — as the bigint or the timestamp it is the
// types.Format text of, when it is one's. Few strings get past the first
// look: a bigint's text starts with a digit or a minus and has at most 20
// bytes; a timestamp's has 19, or up to 26 with a fraction that does not end
// in 0, and its separators in place.
func appendStringKey(buf []byte, s string) []byte {
	n := len(s)
	if n > 0 && n <= 20 && (s[0] == '-' || s[0]-'0' <= 9) {
		var text [20]byte
		if x, err := strconv.ParseInt(s, 10, 64); err == nil && string(strconv.AppendInt(text[:0], x, 10)) == s {
			return appendIntKey(buf, x)
		}
	}
	if n >= 19 && n <= 26 && s[4] == '-' && s[10] == ' ' && (n == 19 || (s[19] == '.' && s[n-1] != '0')) {
		if t, err := types.ParseTimestamp(s); err == nil {
			return appendTimeKey(buf, t)
		}
	}
	return append(buf, s...)
}

func (n *aggNode) run(ec *execCtx, emit func(types.Row) error) error {
	groups := make(map[string]*aggGroup)
	var order []*aggGroup // deterministic output order (first-seen)
	// one key slice and one key buffer for the whole aggregate: a row of a
	// group that exists allocates nothing here
	keys := make(types.Row, len(n.groupEvals))
	var buf []byte
	err := n.child.run(ec, func(row types.Row) error {
		for i, ev := range n.groupEvals {
			v, err := ec.evalWith(ev, row)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		buf = appendGroupKey(buf[:0], keys)
		g, ok := groups[string(buf)]
		if !ok {
			g = &aggGroup{keys: keys.Clone()}
			for _, a := range n.aggs {
				st, err := expr.NewAggState(a.name, a.distinct)
				if err != nil {
					return err
				}
				g.states = append(g.states, st)
			}
			groups[string(buf)] = g
			order = append(order, g)
		}
		for i, a := range n.aggs {
			var v types.Datum = int64(1) // count(*) placeholder
			if !a.star {
				var err error
				v, err = ec.evalWith(a.arg, row)
				if err != nil {
					return err
				}
			}
			if err := g.states[i].Add(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(order) == 0 && len(n.groupEvals) == 0 {
		// aggregate over empty input still yields one row
		g := &aggGroup{}
		for _, a := range n.aggs {
			st, _ := expr.NewAggState(a.name, a.distinct)
			g.states = append(g.states, st)
		}
		order = append(order, g)
	}
	for _, g := range order {
		out := make(types.Row, 0, len(g.keys)+len(g.states))
		out = append(out, g.keys...)
		for _, st := range g.states {
			out = append(out, st.Result())
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

// projectNode computes output expressions.
type projectNode struct {
	child node
	evals []expr.Evaluator
	cols  []string
}

func (n *projectNode) columns() []string { return n.cols }

func (n *projectNode) explain(indent string) []string {
	return append([]string{indent + "Project"}, n.child.explain(indent+"  ")...)
}

func (n *projectNode) run(ec *execCtx, emit func(types.Row) error) error {
	return n.child.run(ec, func(row types.Row) error {
		out := make(types.Row, len(n.evals))
		for i, ev := range n.evals {
			v, err := ec.evalWith(ev, row)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return emit(out)
	})
}

// filterNode applies a predicate (HAVING, or join-output filters).
type filterNode struct {
	child node
	pred  expr.Evaluator
	// conjuncts keeps the WHERE/ON conjunct ASTs compiled into pred, as
	// scanNode.conjuncts does and for the same planner; nil above an
	// aggregate (HAVING) and above a subquery.
	conjuncts []sql.Expr
}

func (n *filterNode) columns() []string { return n.child.columns() }

func (n *filterNode) explain(indent string) []string {
	return append([]string{indent + "Filter"}, n.child.explain(indent+"  ")...)
}

func (n *filterNode) run(ec *execCtx, emit func(types.Row) error) error {
	return n.child.run(ec, func(row types.Row) error {
		pass, err := ec.filterPasses(n.pred, row)
		if err != nil {
			return err
		}
		if !pass {
			return nil
		}
		return emit(row)
	})
}

type sortKey struct {
	col  int
	desc bool
}

// sortNode materializes and sorts; trim drops hidden trailing sort columns
// from the output.
type sortNode struct {
	child node
	keys  []sortKey
	trim  int // emit only the first trim columns (0 = all)
}

func (n *sortNode) columns() []string {
	cols := n.child.columns()
	if n.trim > 0 && n.trim < len(cols) {
		return cols[:n.trim]
	}
	return cols
}

func (n *sortNode) explain(indent string) []string {
	return append([]string{indent + "Sort"}, n.child.explain(indent+"  ")...)
}

func (n *sortNode) run(ec *execCtx, emit func(types.Row) error) error {
	var rows []types.Row
	if err := n.child.run(ec, func(row types.Row) error {
		rows = append(rows, row.Clone())
		return nil
	}); err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range n.keys {
			c := types.Compare(rows[i][k.col], rows[j][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, row := range rows {
		if n.trim > 0 && n.trim < len(row) {
			row = row[:n.trim]
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// limitNode applies LIMIT/OFFSET.
type limitNode struct {
	child         node
	limit, offset expr.Evaluator
}

func (n *limitNode) columns() []string { return n.child.columns() }

func (n *limitNode) explain(indent string) []string {
	return append([]string{indent + "Limit"}, n.child.explain(indent+"  ")...)
}

func (n *limitNode) run(ec *execCtx, emit func(types.Row) error) error {
	limit, offset, err := evalLimitOffset(ec.eval, n.limit, n.offset)
	if err != nil {
		return err
	}
	var seen, emitted int64
	err = n.child.run(ec, func(row types.Row) error {
		seen++
		if seen <= offset {
			return nil
		}
		if limit >= 0 && emitted >= limit {
			return errStop
		}
		emitted++
		if err := emit(row); err != nil {
			return err
		}
		if limit >= 0 && emitted >= limit {
			return errStop
		}
		return nil
	})
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// distinctNode deduplicates full rows.
type distinctNode struct {
	child node
}

func (n *distinctNode) columns() []string { return n.child.columns() }

func (n *distinctNode) explain(indent string) []string {
	return append([]string{indent + "Unique"}, n.child.explain(indent+"  ")...)
}

func (n *distinctNode) run(ec *execCtx, emit func(types.Row) error) error {
	seen := make(map[string]struct{})
	return n.child.run(ec, func(row types.Row) error {
		k := hashKeyString(row)
		if _, dup := seen[k]; dup {
			return nil
		}
		seen[k] = struct{}{}
		return emit(row)
	})
}
