package citus

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// Merge-step observability: ablation A5's TopN variant asserts the
// pushdown cuts citus_merge_rows_total to O(workers × k) while
// metTopNPushdowns confirms the plan actually routed through it.
var (
	metCitusMergeRows = obs.Default().Counter("citus_merge_rows_total",
		"worker result rows collected into coordinator merge steps").With()
	metTopNPushdowns = obs.Default().Counter("citus_topn_pushdowns_total",
		"distributed grouped plans that shipped ORDER BY/LIMIT to the workers").With()
)

// distPlan is the distributed query plan a planner hook returns — the
// equivalent of the CustomScan node Citus injects into the PostgreSQL plan
// (§3.5): a set of tasks, optionally preceded by subplans (subplan.go) or a
// repartition, and followed by a coordinator-side merge query over the
// collected worker results.
type distPlan struct {
	node    *Node
	columns []string
	explain []string

	// A router plan to a shard leaves explain nil and keeps what its EXPLAIN
	// says: it is made at every execution and explained only under EXPLAIN.
	routeShard, routeNode int
	routeCached           bool

	// tasks, or prepare to build them at execution time (a repartition join
	// moves data first).
	tasks   []task
	prepare func(s *engine.Session, params []types.Datum) ([]task, error)

	// subplans are evaluated and shipped to the task nodes before the tasks
	// run; feedsWrite: the statement writes, so they read primaries.
	subplans   []subplan
	feedsWrite bool

	// DML plans sum affected rows instead of returning them. stmt is the
	// statement the plan was made for, planned again when its one task — a
	// write or a SELECT … FOR UPDATE — waited out a shard move and found its
	// shard moved (replan).
	isDML bool
	tag   string
	stmt  sql.Statement

	// merge: load task results into an intermediate result on the
	// coordinator and run the merge ("master") query over it locally. The
	// statement may be shared through the plan cache and is never changed:
	// each execution runs a shallow copy whose FROM names its own relation.
	merge *sql.SelectStmt

	// cleanup of intermediate results on every involved node: everything
	// named prefix+<member> for each of cleanupPrefixes. A prefix ends in "_"
	// so that query 1's prefix cannot match query 10's relations.
	cleanupPrefixes []string
	cleanupNodes    []int
}

func (p *distPlan) Columns() []string { return p.columns }

func (p *distPlan) ExplainLines() []string {
	if p.explain != nil {
		return p.explain
	}
	cached := ""
	if p.routeCached {
		cached = "cached plan, "
	}
	return []string{"Custom Scan (Citus Router)", fmt.Sprintf("  Task Count: 1 (%sshard group %d on node %d)", cached, p.routeShard, p.routeNode)}
}

// refRouterExplain is the EXPLAIN of a router plan to a reference table.
var refRouterExplain = []string{"Custom Scan (Citus Router)", "  Task Count: 1 (reference table, local replica)"}

func (p *distPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	tasks := p.tasks
	var err error
	if p.prepare != nil {
		tasks, err = p.prepare(s, params)
	}
	if err == nil && len(p.subplans) > 0 {
		err = p.node.runSubplans(s, p, tasks, params)
	}
	if err != nil {
		p.cleanup()
		return nil, err
	}
	results, err := p.node.executeTasks(s, tasks)
	if err != nil {
		p.cleanup()
		if again := p.replan(s, tasks, params, err); again != nil {
			return again.Execute(s, params)
		}
		return nil, err
	}
	defer p.cleanup()

	if p.isDML {
		res := &engine.Result{}
		for i, r := range results {
			if r == nil || tasks[i].replica {
				continue
			}
			res.Affected += r.Affected
			// RETURNING rows pass through
			if r.NumRows() > 0 && len(r.Columns) > 0 {
				res.Columns = r.Columns
				res.Rows = append(res.Rows, r.DecodeRows()...)
			}
		}
		res.Tag = p.tag + " " + strconv.Itoa(res.Affected)
		return res, nil
	}

	if p.merge != nil {
		var rows []types.Row
		var cols []string
		for _, r := range results {
			if r != nil {
				if cols == nil {
					cols = r.Columns
				}
				rows = append(rows, r.DecodeRows()...)
			}
		}
		metCitusMergeRows.Add(int64(len(rows)))
		name := p.node.resultName("merge")
		p.node.Eng.RegisterIntermediateResult(name, &engine.IntermediateResult{
			Columns: cols,
			Rows:    rows,
		})
		// By exact name: a prefix drop of citus_merge_1 would take the
		// citus_merge_10…19 of concurrent sessions with it.
		defer p.node.Eng.DropIntermediateResult(name)
		// Parsed once, when the plan was made: no text is parsed here, and
		// none enters the session's statement cache.
		merge := *p.merge
		merge.From = []sql.TableRef{&sql.BaseTable{Name: name}}
		res, err := s.ExecStmt(&merge, params)
		if err != nil {
			return nil, fmt.Errorf("merge step failed: %w", err)
		}
		if p.columns != nil {
			res.Columns = p.columns
		}
		res.Tag = ""
		return res, nil
	}

	if len(results) == 1 && results[0] != nil {
		// One task and no merge (router, fast path): the worker's result goes
		// up as it arrived, its rows still encoded if they came over TCP.
		res := results[0]
		if p.columns != nil {
			res.Columns = p.columns
		}
		res.Tag, res.Affected = "", 0 // runPlan names the SELECT
		return res, nil
	}
	res := &engine.Result{Columns: p.columns}
	for _, r := range results {
		if r == nil {
			continue
		}
		if res.Columns == nil {
			res.Columns = r.Columns
		}
		res.Rows = append(res.Rows, r.DecodeRows()...)
	}
	return res, nil
}

// replan plans a one-task write again when it waited out a shard move's
// write block on the source and woke to find its shard moved there
// (engine.ErrRelationGone), and the current metadata routes it elsewhere.
// The task had no effect on the source, so it can run on the new placement.
// A plan of several tasks is not run again: its other tasks may have run
// already, and running them twice would apply their writes twice. Such a
// statement fails as a whole; the distributed transaction is aborted with
// it. replan returns nil when the statement stands failed.
func (p *distPlan) replan(s *engine.Session, tasks []task, params []types.Datum, err error) *distPlan {
	if p.stmt == nil || len(tasks) != 1 || !strings.Contains(err.Error(), engine.ErrRelationGone.Error()) {
		return nil
	}
	plan, perr := p.node.plannerHook(s, p.stmt, params)
	again, ok := plan.(*distPlan)
	if perr != nil || !ok || len(again.tasks) != 1 || again.tasks[0].nodeID == tasks[0].nodeID {
		return nil
	}
	return again
}

// cleanupOn makes p drop the relations named prefix+<member> on every active
// node once it has run.
func (p *distPlan) cleanupOn(prefix string) {
	p.cleanupPrefixes = append(p.cleanupPrefixes, prefix)
	if p.cleanupNodes == nil {
		for _, node := range p.node.Meta.ActiveNodes() {
			p.cleanupNodes = append(p.cleanupNodes, node.ID)
		}
	}
}

func (p *distPlan) cleanup() {
	prefixes := make([]types.Datum, len(p.cleanupPrefixes))
	for i, prefix := range p.cleanupPrefixes {
		prefixes[i] = prefix
	}
	for _, nodeID := range p.cleanupNodes {
		if nodeID == p.node.ID {
			for _, prefix := range p.cleanupPrefixes {
				p.node.Eng.DropIntermediateResults(prefix)
			}
			continue
		}
		_, _ = p.node.callNode(nodeID, "citus_node_drop_results", callText("citus_node_drop_results", len(prefixes)), prefixes...)
	}
}

// ---------------------------------------------------------------------------
// Planner hook

// plannerHook is the entry point: it intercepts statements that reference
// Citus tables and walks the planner hierarchy from cheapest to most
// general — fast path, router, logical pushdown, logical join order (§3.5:
// "Citus iterates over the four planners, from lowest to highest
// overhead").
func (n *Node) plannerHook(s *engine.Session, stmt sql.Statement, params []types.Datum) (engine.Plan, error) {
	plan, err := n.planStatement(s, stmt, params)
	if p, ok := plan.(*distPlan); ok {
		p.stmt = stmt
	}
	return plan, err
}

func (n *Node) planStatement(s *engine.Session, stmt sql.Statement, params []types.Datum) (engine.Plan, error) {
	// Route on FROM-clause tables only: a query whose distributed
	// references live solely in expression subqueries runs locally, and the
	// engine's subquery executor re-enters this hook for each subquery, which
	// is planned as a distributed query. A distributed statement's own
	// expression subqueries that cannot run in its shard tasks become
	// subplans below (planSubplans).
	names := sql.FromTables(stmt)
	touchesCitus := false
	for _, name := range names {
		if n.Meta.IsCitusTable(name) {
			touchesCitus = true
			break
		}
	}
	if !touchesCitus {
		return nil, nil
	}
	if !n.canCoordinate() {
		return nil, fmt.Errorf("node %d cannot plan distributed queries: metadata is not synced (run start_metadata_sync_to_node)", n.ID)
	}
	// fast path, router and logical pushdown: an analysis bound to this
	// execution's values. The plan cache keeps the analyses per statement;
	// with the cache off the statement is analyzed here, every time.
	var plan *distPlan
	var err error
	if n.Eng.Features().NoPlanCache {
		plan, err = n.planUncached(stmt, params)
	} else {
		plan, err = n.planCache.plan(n, stmt, params)
	}
	if err != nil {
		return nil, err
	}
	if plan != nil {
		return plan, nil
	}
	if plan, err := n.planSubplans(stmt, params); plan != nil || err != nil {
		return plan, err
	}
	return n.planDistributed(stmt, params)
}

// planDistributed walks the planners the plan cache does not hold: join
// order, INSERT, multi-shard and reference-table UPDATE and DELETE.
func (n *Node) planDistributed(stmt sql.Statement, params []types.Datum) (engine.Plan, error) {
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return n.planDistSelect(st, params)
	case *sql.InsertStmt:
		return n.planDistInsert(st, params)
	case *sql.UpdateStmt:
		return n.planDistModify(st, st.Table, params)
	case *sql.DeleteStmt:
		return n.planDistModify(st, st.Table, params)
	}
	return nil, nil
}

// planUncached is the plan cache's work without the cache: the router's
// analysis, and for a SELECT the router does not scope to one shard group,
// the pushdown planner's. nil: neither planner takes the statement.
func (n *Node) planUncached(stmt sql.Statement, params []types.Datum) (*distPlan, error) {
	if sql.CallsFunction(stmt) {
		return nil, errUnsupportedShape // the shards' nodes would call it
	}
	if p, err := n.analyzeRouter(stmt).plan(n, params, false); p != nil || err != nil {
		return p, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok || sel.ForUpdate {
		return nil, nil
	}
	s, err := n.analyzePushdown(sel)
	if s == nil || err != nil {
		return nil, err
	}
	return s.plan(n, params, false)
}

func splitAnd(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == sql.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sql.Expr{e}
}

// distTablesIn lists the distinct distributed tables a statement references.
func (n *Node) distTablesIn(stmt sql.Statement) []string {
	var dist []string
	for _, name := range sql.StatementTables(stmt) {
		if dt, ok := n.Meta.Table(name); ok && dt.Type != metadata.ReferenceTable && !slices.Contains(dist, name) {
			dist = append(dist, name)
		}
	}
	return dist
}

// shardNameRewriter builds the table→shard renaming for one shard index.
func (n *Node) shardNameRewriter(shardIndex int) func(string) string {
	return func(name string) string {
		dt, ok := n.Meta.Table(name)
		if !ok {
			return name
		}
		shards := n.Meta.Shards(name)
		if dt.Type == metadata.ReferenceTable {
			return shards[0].ShardName()
		}
		if shardIndex < len(shards) {
			return shards[shardIndex].ShardName()
		}
		return name
	}
}

// shardTexts deparses stmt once per shard index, its tables renamed to that
// shard group's shards. stmt is parsed once, into a private clone that is
// renamed, deparsed and put back per index; stmt itself is never touched.
func (n *Node) shardTexts(stmt sql.Statement, indexes ...int) ([]string, error) {
	clone, err := sql.CloneStatement(stmt)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(indexes))
	for i, idx := range indexes {
		restore := sql.RenameTables(clone, n.shardNameRewriter(idx))
		texts[i] = clone.String()
		restore()
	}
	return texts, nil
}

// shardIndexes lists the shard indexes of shards, in order.
func shardIndexes(shards []*metadata.Shard) []int {
	idx := make([]int, len(shards))
	for i, sh := range shards {
		idx[i] = sh.Index
	}
	return idx
}

// ---------------------------------------------------------------------------
// Router planner (and fast path)

// routerShape is the router planner's analysis of one statement (§3.5): what
// a one-task plan needs that no parameter value changes. The plan cache keeps
// it per normalized statement shape, so a fast-path execution only binds it;
// with the cache off, or for a statement the cache does not normalize, every
// execution analyzes afresh. No field changes once the shape is shared but
// taskSQL, which memoizes per-shard-group deparses under mu.
type routerShape struct {
	stmt sql.Statement // read-only; cloned for each shard group's deparse
	// pins evaluate each distributed table's distribution value, in the order
	// the statement references the tables. A read of reference tables alone
	// has none and goes to the local replica.
	pins       []routerPin
	colocation int
	isWrite    bool
	isDML      bool
	tag        string

	key         string // the normalized text, for a shape the plan cache holds
	metaVersion int64

	mu      sync.Mutex
	taskSQL map[int]string // shard index -> deparsed task SQL
}

// routerPin is one distributed table's `distcol = <expr>` conjunct, its value
// side compiled against the (caller + lifted) parameters.
type routerPin struct {
	table string
	value expr.Evaluator
}

// analyzeRouter decides whether stmt can be scoped to one co-located shard
// group. Every distributed table needs a `distcol = <expr>` conjunct — in the
// WHERE, a JOIN … ON or a FROM subquery, the column qualified or not — and
// all of them one co-location group. Reference tables ride along. Returns nil
// for a statement the router never plans; pushdown, join order, subplans and
// multi-shard DML take it.
func (n *Node) analyzeRouter(stmt sql.Statement) *routerShape {
	s := &routerShape{stmt: stmt}
	var target string // a DML statement's table
	var where sql.Expr
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		// SELECT … FOR UPDATE takes row locks on the worker: the task is a
		// write, so it joins the distributed transaction and goes to the
		// primary placement (locks on a standby would protect nothing)
		s.isWrite = st.ForUpdate
	case *sql.UpdateStmt:
		target, where = st.Table, st.Where
		s.isWrite, s.isDML, s.tag = true, true, "UPDATE"
	case *sql.DeleteStmt:
		target, where = st.Table, st.Where
		s.isWrite, s.isDML, s.tag = true, true, "DELETE"
	default:
		return nil
	}
	if dt, ok := n.Meta.Table(target); s.isDML && (!ok || dt.Type != metadata.DistributedTable) {
		return nil // a write to a reference table goes to every replica
	}

	// range names (aliases and names) across every FROM clause; tables holds
	// each table once, the candidates of an unqualified column
	ranges := map[string]string{}
	var tables []string
	sql.WalkTables(stmt, func(bt *sql.BaseTable) {
		if _, seen := ranges[bt.Name]; !seen {
			tables = append(tables, bt.Name)
		}
		ranges[bt.RefName()] = bt.Name
		ranges[bt.Name] = bt.Name
	})
	values := map[string]expr.Evaluator{} // table -> its first pin
	visitConjunct := func(e sql.Expr) {
		b, ok := e.(*sql.BinaryExpr)
		if !ok || b.Op != sql.OpEq {
			return
		}
		cr, crOK := b.L.(*sql.ColumnRef)
		other := b.R
		if !crOK {
			cr, crOK = b.R.(*sql.ColumnRef)
			other = b.L
		}
		if !crOK {
			return
		}
		// a column on the other side (a join predicate) does not compile
		ev, err := expr.Compile(other, nil)
		if err != nil {
			return
		}
		candidates := tables
		if cr.Table != "" {
			tbl, ok := ranges[cr.Table]
			if !ok {
				return
			}
			candidates = []string{tbl}
		}
		for _, tbl := range candidates {
			dt, ok := n.Meta.Table(tbl)
			if ok && dt.Type == metadata.DistributedTable && dt.DistColumn == cr.Name && values[tbl] == nil {
				values[tbl] = ev
			}
		}
	}
	visitWhere := func(w sql.Expr) {
		for _, c := range splitAnd(w) {
			visitConjunct(c)
		}
	}
	var visitSelect func(sel *sql.SelectStmt)
	var visitTableRef func(tr sql.TableRef)
	visitTableRef = func(tr sql.TableRef) {
		switch t := tr.(type) {
		case *sql.JoinRef:
			visitTableRef(t.Left)
			visitTableRef(t.Right)
			visitWhere(t.On)
		case *sql.SubqueryRef:
			visitSelect(t.Select)
		}
	}
	visitSelect = func(sel *sql.SelectStmt) {
		if sel == nil {
			return
		}
		visitWhere(sel.Where)
		for _, tr := range sel.From {
			visitTableRef(tr)
		}
	}
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		visitSelect(sel)
	} else {
		visitWhere(where)
	}

	for _, tbl := range n.distTablesIn(stmt) {
		dt, _ := n.Meta.Table(tbl)
		if values[tbl] == nil || (len(s.pins) > 0 && dt.ColocationID != s.colocation) {
			return nil
		}
		s.colocation = dt.ColocationID
		s.pins = append(s.pins, routerPin{table: tbl, value: values[tbl]})
	}
	if n.needsSubplans(stmt) {
		return nil // the shard task would run the subquery over its shard only
	}
	return s
}

// plan binds the shape to one execution's parameters: every pin must be a
// non-NULL value of its distribution column's type, and all must land on one
// shard index. The placements are the current ones, so a shard move
// redirects the next execution without evicting the shape. hit marks a
// plan-cache hit for tracing and EXPLAIN ANALYZE. Returns nil when the values
// do not route (a nil shape never does); the planner walks on.
func (s *routerShape) plan(n *Node, params []types.Datum, hit bool) (*distPlan, error) {
	if s == nil {
		return nil, nil
	}
	cacheMark := ""
	if hit {
		cacheMark = "hit"
	}
	if len(s.pins) == 0 {
		text, err := s.sqlFor(n, 0)
		if err != nil {
			return nil, err
		}
		return &distPlan{
			node: n,
			tasks: []task{{
				nodeID: n.ID, shardGroup: -1,
				sql: text, params: params, isWrite: s.isWrite, cache: cacheMark,
			}},
			explain: refRouterExplain,
		}, nil
	}

	ctx := &expr.Ctx{Params: params}
	var sh *metadata.Shard
	for _, p := range s.pins {
		val, err := p.value(ctx)
		if err != nil || val == nil {
			return nil, nil
		}
		psh, err := n.Meta.ShardForValue(p.table, val)
		if err != nil || (sh != nil && psh.Index != sh.Index) {
			return nil, nil
		}
		sh = psh
	}
	nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		return nil, err
	}
	text, err := s.sqlFor(n, sh.Index)
	if err != nil {
		return nil, err
	}
	var readNodes []int
	if !s.isWrite {
		readNodes = n.Meta.ReadPlacements(sh.ID)
	}
	return &distPlan{
		node: n,
		tasks: []task{{
			nodeID: nodeID, shardGroup: metadata.ShardGroupID(s.colocation, sh.Index),
			sql: text, params: params, isWrite: s.isWrite,
			cache: cacheMark, readNodes: readNodes,
		}},
		isDML:       s.isDML,
		tag:         s.tag,
		routeShard:  sh.Index,
		routeNode:   nodeID,
		routeCached: s.key != "",
	}, nil
}

// sqlFor returns the task SQL for one shard index, deparsed at most once per
// (shape, shard group).
func (s *routerShape) sqlFor(n *Node, shardIndex int) (string, error) {
	s.mu.Lock()
	text, ok := s.taskSQL[shardIndex]
	s.mu.Unlock()
	if ok {
		return text, nil
	}
	texts, err := n.shardTexts(s.stmt, shardIndex)
	if err != nil {
		return "", err
	}
	text = texts[0]
	s.mu.Lock()
	if s.taskSQL == nil {
		s.taskSQL = make(map[int]string)
	}
	s.taskSQL[shardIndex] = text
	s.mu.Unlock()
	return text, nil
}

// ---------------------------------------------------------------------------
// SELECT planning

// planDistSelect plans a SELECT neither the router nor the pushdown planner
// took: the logical join-order planner's broadcast and repartition joins.
func (n *Node) planDistSelect(sel *sql.SelectStmt, params []types.Datum) (engine.Plan, error) {
	if sel.ForUpdate {
		return nil, fmt.Errorf("SELECT FOR UPDATE requires a distribution column filter")
	}
	plan, err := n.planJoinOrder(sel, params)
	if err != nil || plan != nil {
		return plan, err
	}
	return nil, errUnsupportedShape
}

// errUnsupportedShape refuses the distributed queries no planner takes.
var errUnsupportedShape = errors.New("complex distributed queries of this shape are not supported (a join of more than two non-co-located tables, a FROM subquery that needs a merge step, a join without an equality condition, or a function read beside a distributed table, see paper §2.4)")

// ---------------------------------------------------------------------------
// DML planning

func (n *Node) planDistInsert(ins *sql.InsertStmt, params []types.Datum) (engine.Plan, error) {
	dt, ok := n.Meta.Table(ins.Table)
	if ins.Select != nil {
		return n.planInsertSelect(ins, dt, params) // dt nil: a local table
	}
	if !ok {
		return nil, nil
	}

	if dt.Type == metadata.ReferenceTable {
		return n.planReferenceWrite(ins, params, "INSERT 0")
	}

	// distributed VALUES insert: route each row by its distribution column
	cols := ins.Columns
	if len(cols) == 0 {
		cols = n.tableColumnsFromSchema(dt)
	}
	distIdx := -1
	for i, c := range cols {
		if c == dt.DistColumn {
			distIdx = i
			break
		}
	}
	if distIdx == -1 {
		return nil, fmt.Errorf("INSERT into distributed table %q must provide the distribution column %q", ins.Table, dt.DistColumn)
	}
	ctx := &expr.Ctx{Params: params}
	byShard := map[int][][]sql.Expr{}
	for _, row := range ins.Rows {
		if distIdx >= len(row) {
			return nil, fmt.Errorf("INSERT row is missing the distribution column")
		}
		ev, err := expr.Compile(row[distIdx], nil)
		if err != nil {
			return nil, fmt.Errorf("distribution column value must be constant: %w", err)
		}
		val, err := ev(ctx)
		if err != nil {
			return nil, err
		}
		if val == nil {
			return nil, fmt.Errorf("cannot insert NULL into distribution column %q", dt.DistColumn)
		}
		sh, err := n.Meta.ShardForValue(ins.Table, val)
		if err != nil {
			return nil, err
		}
		byShard[sh.Index] = append(byShard[sh.Index], row)
	}

	shards := n.Meta.Shards(ins.Table)
	var tasks []task
	indexes := make([]int, 0, len(byShard))
	for idx := range byShard {
		indexes = append(indexes, idx)
	}
	sort.Ints(indexes)
	for _, idx := range indexes {
		rows := byShard[idx]
		clone := &sql.InsertStmt{
			Table:      shards[idx].ShardName(),
			Alias:      cmp.Or(ins.Alias, ins.Table), // RETURNING and ON CONFLICT name the table
			Columns:    cols,
			Rows:       rows,
			OnConflict: ins.OnConflict,
			Returning:  ins.Returning,
		}
		nodeID, err := n.Meta.PrimaryPlacement(shards[idx].ID)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{
			nodeID:     nodeID,
			shardGroup: metadata.ShardGroupID(dt.ColocationID, idx),
			sql:        clone.String(),
			params:     params,
			isWrite:    true,
		})
	}
	return &distPlan{
		node:  n,
		tasks: tasks,
		isDML: true,
		tag:   "INSERT 0",
		explain: []string{
			"Custom Scan (Citus Router Insert)",
			fmt.Sprintf("  Task Count: %d", len(tasks)),
		},
	}, nil
}

// planReferenceWrite replicates a write to every node's replica of a
// reference table (§3.3.3: "writes to the reference table are replicated
// to all nodes"), under 2PC. The first replica's task reports the count and
// any RETURNING rows; the others are replicas.
func (n *Node) planReferenceWrite(stmt sql.Statement, params []types.Datum, tag string) (engine.Plan, error) {
	texts, err := n.shardTexts(stmt, 0)
	if err != nil {
		return nil, err
	}
	var tasks []task
	// active nodes only: a standby's reference replica is maintained by its
	// primary's WAL stream, and writing to it directly would double-apply
	for i, node := range n.Meta.ActiveNodes() {
		tasks = append(tasks, task{
			nodeID: node.ID, shardGroup: -1,
			sql: texts[0], params: params, isWrite: true, replica: i > 0,
		})
	}
	return &distPlan{
		node:    n,
		tasks:   tasks,
		isDML:   true,
		tag:     tag,
		explain: []string{"Custom Scan (Citus Reference Table Write)", fmt.Sprintf("  Task Count: %d", len(tasks))},
	}, nil
}

// planDistModify plans an UPDATE or DELETE the router could not scope to one
// shard: a reference table's on every replica, a distributed table's on
// every shard.
func (n *Node) planDistModify(stmt sql.Statement, table string, params []types.Datum) (engine.Plan, error) {
	dt, ok := n.Meta.Table(table)
	if !ok {
		return nil, nil
	}
	tag := "UPDATE"
	if _, isDel := stmt.(*sql.DeleteStmt); isDel {
		tag = "DELETE"
	}
	if dt.Type == metadata.ReferenceTable {
		return n.planReferenceWrite(stmt, params, tag)
	}

	// multi-shard parallel DML (§3.8 / Table 2 "Parallel, distributed DML")
	shards := n.Meta.Shards(table)
	texts, err := n.shardTexts(stmt, shardIndexes(shards)...)
	if err != nil {
		return nil, err
	}
	var tasks []task
	for i, sh := range shards {
		nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{
			nodeID:     nodeID,
			shardGroup: metadata.ShardGroupID(dt.ColocationID, sh.Index),
			sql:        texts[i],
			params:     params,
			isWrite:    true,
		})
	}
	return &distPlan{
		node:    n,
		tasks:   tasks,
		isDML:   true,
		tag:     tag,
		explain: []string{"Custom Scan (Citus Multi-Shard Modify)", fmt.Sprintf("  Task Count: %d", len(tasks))},
	}, nil
}

// tableColumnsFromSchema lists column names from the stored schema DDL.
func (n *Node) tableColumnsFromSchema(dt *metadata.DistTable) []string {
	stmt, err := sql.Parse(dt.SchemaSQL)
	if err != nil {
		return nil
	}
	ct, ok := stmt.(*sql.CreateTableStmt)
	if !ok {
		return nil
	}
	cols := make([]string, len(ct.Columns))
	for i, c := range ct.Columns {
		cols[i] = c.Name
	}
	return cols
}
