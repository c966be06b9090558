package citus

import (
	"fmt"
	"math"
	"strings"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// matchUDF intercepts the Citus user-defined functions — the SQL-callable
// control plane the paper describes in §3.1 ("UDFs ... are primarily used
// to manipulate the Citus metadata and implement remote procedure calls"):
//
//	SELECT create_distributed_table('t', 'col' [, colocate_with := '...'])
//	SELECT create_reference_table('t')
//	SELECT start_metadata_sync_to_node('node-name')
//	SELECT rebalance_table_shards()
//	SELECT create_restore_point('name')
//	SELECT citus_recover_prepared_transactions()
//	SELECT citus_move_shard_placement(shard_id, from_node, to_node)
//	SELECT citus_tables()
//	SELECT citus_stat_counters()
//	SELECT citus_plancache_stats()
//	SELECT citus_stat_activity()
//	SELECT citus_stat_ssi()
//	SELECT citus_trace(trace_id)
//
// and the node functions (nodeFunction), the remote procedure calls.
func (n *Node) matchUDF(s *engine.Session, stmt sql.Statement, params []types.Datum) (engine.Plan, bool, error) {
	call, ok := parseUDFCall(stmt, params)
	if !ok {
		return nil, false, nil
	}
	if plan := nodeFunction(n.Eng, n.ID, call); plan != nil {
		return plan, true, nil
	}
	name := call.name
	switch name {
	case "create_distributed_table":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			tableV, err := call.arg(0)
			if err != nil {
				return nil, err
			}
			colV, err := call.arg(1)
			if err != nil {
				return nil, err
			}
			colocate := ""
			if v, ok, err := call.named("colocate_with"); err != nil {
				return nil, err
			} else if ok {
				colocate = types.Format(v)
			} else if len(call.args) >= 3 {
				if v, err := call.arg(2); err == nil && v != nil {
					colocate = types.Format(v)
				}
			}
			return nil, n.CreateDistributedTable(s, types.Format(tableV), types.Format(colV), colocate)
		}), true, nil

	case "create_reference_table":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			table, err := call.text()
			if err != nil {
				return nil, err
			}
			return nil, n.CreateReferenceTable(s, table)
		}), true, nil

	case "start_metadata_sync_to_node":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			node, err := call.text()
			if err != nil {
				return nil, err
			}
			return nil, n.StartMetadataSync(node)
		}), true, nil

	case "rebalance_table_shards":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			moves, err := n.RebalanceTableShards(s)
			return int64(moves), err
		}), true, nil

	case "citus_move_shard_placement":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			shardV, err := call.arg(0)
			if err != nil {
				return nil, err
			}
			fromV, err := call.arg(1)
			if err != nil {
				return nil, err
			}
			toV, err := call.arg(2)
			if err != nil {
				return nil, err
			}
			shardID, _ := types.CoerceTo(shardV, types.Int)
			from, _ := types.CoerceTo(fromV, types.Int)
			to, _ := types.CoerceTo(toV, types.Int)
			return nil, n.MoveShardPlacement(s, shardID.(int64), int(from.(int64)), int(to.(int64)))
		}), true, nil

	case "create_restore_point":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			point, err := call.text()
			if err != nil {
				return nil, err
			}
			return n.CreateRestorePoint(point)
		}), true, nil

	case "citus_recover_prepared_transactions":
		return scalarUDF(name, func(s *engine.Session) (types.Datum, error) {
			return int64(n.RecoverTwoPhaseCommits()), nil
		}), true, nil

	case "citus_tables":
		// introspection: one row per citus table (the citus_tables view)
		return &udfPlan{columns: tablesColumns, label: "Citus Tables Metadata", rows: n.tablesRows}, true, nil

	case "citus_stat_counters":
		// observability: one row per metric in the global obs registry — the
		// SQL-queryable counterpart of the citus_stat_* views (§5–6 of the
		// paper's operational story)
		return &udfPlan{columns: nameValueColumns, label: "Citus Stat Counters", rows: statCountersRows}, true, nil

	case "citus_plancache_stats":
		// observability: the coordinator distributed-plan cache
		return &udfPlan{columns: nameValueColumns, label: "Citus Plan Cache Stats", rows: n.planCacheStatsRows}, true, nil

	case "citus_stat_ssi":
		// observability: per-session SSI state (locks, conflict edges,
		// doomed flags) across the cluster
		return &udfPlan{columns: statSSIColumns, label: "Citus Stat SSI", rows: n.clusterRows("citus_node_stat_ssi", func() []types.Row {
			return statSSIRows(n.Eng, n.ID)
		})}, true, nil

	case "citus_stat_activity":
		// observability: active/prepared transactions across the cluster
		return &udfPlan{columns: statActivityColumns, label: "Citus Stat Activity", rows: n.clusterRows("citus_node_stat_activity", func() []types.Row {
			return statActivityRows(n.Eng, n.ID, nil)
		})}, true, nil

	case "citus_trace":
		// observability: the reassembled distributed trace, one row per span
		return &udfPlan{columns: traceColumns, label: "Citus Trace", rows: func(*engine.Session) ([]types.Row, error) {
			id, err := call.traceID()
			if err != nil {
				return nil, err
			}
			return traceRows(n.CollectTrace(id)), nil
		}}, true, nil
	}
	return nil, false, nil
}

// nodeFunction plans a node function: what one node answers about itself,
// and everything a coordinator asks another node. A coordinator sends them as
// ordinary statements (callNode); every node answers them, a standby running
// no Citus layer included (NodeFunctions).
//
//	SELECT citus_node_wait_edges()
//	SELECT citus_node_cancel_dist(dist_txn_id)
//	SELECT citus_node_doom_dist(dist_txn_id)
//	SELECT citus_node_drop_results(prefix, ...)
//	SELECT citus_node_table_rows(table, ...)
//	SELECT citus_node_list_prepared()
//	SELECT citus_node_trace_spans(trace_id)
//	SELECT citus_node_create_restore_point(name)
//	SELECT citus_node_stat_activity()
//	SELECT citus_node_stat_ssi()
func nodeFunction(eng *engine.Engine, nodeID int, call *udfCall) *udfPlan {
	name := call.name
	switch name {
	case "citus_node_wait_edges":
		// the deadlock detector's poll and the SSI check's: the node's lock
		// waits and rw-antidependencies, in one statement
		return &udfPlan{columns: waitEdgeColumns, label: "Citus Node Wait Edges", rows: func(*engine.Session) ([]types.Row, error) {
			return waitEdgeRows(eng.LockGraph(), eng.SSIWireEdges()), nil
		}}

	case "citus_node_cancel_dist":
		// a deadlock victim's member: its running statement is interrupted
		return scalarUDF(name, func(*engine.Session) (types.Datum, error) {
			dist, err := call.text()
			if err != nil {
				return nil, err
			}
			return eng.CancelByDistID(dist), nil
		})

	case "citus_node_doom_dist":
		// a pivot's member: nothing is interrupted, its commit fails with a
		// serialization error
		return scalarUDF(name, func(*engine.Session) (types.Datum, error) {
			dist, err := call.text()
			if err != nil {
				return nil, err
			}
			return eng.DoomByDistID(dist), nil
		})

	case "citus_node_drop_results":
		// drops every intermediate result whose name starts with one of the
		// prefixes
		return scalarUDF(name, func(*engine.Session) (types.Datum, error) {
			prefixes, err := call.texts()
			for _, prefix := range prefixes {
				eng.DropIntermediateResults(prefix)
			}
			return nil, err
		})

	case "citus_node_table_rows":
		// the summed row estimates of the named tables (a table's shards on
		// the node)
		return scalarUDF(name, func(*engine.Session) (types.Datum, error) {
			tables, err := call.texts()
			var total int64
			for _, table := range tables {
				total += eng.TableRows(table)
			}
			return total, err
		})

	case "citus_node_list_prepared":
		// 2PC recovery's read of the node's prepared transactions
		return &udfPlan{columns: preparedColumns, label: "Citus Node Prepared", rows: func(*engine.Session) ([]types.Row, error) {
			return preparedRows(eng), nil
		}}

	case "citus_node_trace_spans":
		// the node-local part of citus_trace: the node's ring-buffered spans
		// of one trace
		return &udfPlan{columns: spanColumns, label: "Citus Node Trace Spans", rows: func(*engine.Session) ([]types.Row, error) {
			id, err := call.traceID()
			if err != nil {
				return nil, err
			}
			return spanRows(eng.Tracer.Collect(id)), nil
		}}

	case "citus_node_create_restore_point":
		// the node-local part of create_restore_point
		return scalarUDF(name, func(*engine.Session) (types.Datum, error) {
			point, err := call.text()
			if err != nil {
				return nil, err
			}
			return eng.WAL.RestorePoint(point), nil
		})

	case "citus_node_stat_activity":
		return &udfPlan{columns: statActivityColumns, label: "Citus Stat Activity", rows: func(s *engine.Session) ([]types.Row, error) {
			// the asking statement's own transaction is no activity of the node's
			return statActivityRows(eng, nodeID, s.Txn()), nil
		}}

	case "citus_node_stat_ssi":
		return &udfPlan{columns: statSSIColumns, label: "Citus Stat SSI", rows: func(*engine.Session) ([]types.Row, error) {
			return statSSIRows(eng, nodeID), nil
		}}
	}
	return nil
}

// NodeFunctions is the planner hook of an engine that runs no Citus layer (a
// standby, promoted or not): it answers the node functions, so a coordinator
// asks it what it asks every other node, and leaves every other statement to
// the engine.
func NodeFunctions(eng *engine.Engine, nodeID int) engine.PlannerHook {
	return func(s *engine.Session, stmt sql.Statement, params []types.Datum) (engine.Plan, error) {
		if call, ok := parseUDFCall(stmt, params); ok {
			if plan := nodeFunction(eng, nodeID, call); plan != nil {
				return plan, nil
			}
		}
		return nil, nil
	}
}

// udfCall is a statement that calls a UDF: SELECT fn(args), with nothing
// else in it.
type udfCall struct {
	name   string // lower case
	args   []sql.Expr
	params []types.Datum
}

func parseUDFCall(stmt sql.Statement, params []types.Datum) (*udfCall, bool) {
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok || len(sel.From) != 0 || len(sel.Columns) != 1 {
		return nil, false
	}
	fc, ok := sel.Columns[0].Expr.(*sql.FuncCall)
	if !ok {
		return nil, false
	}
	return &udfCall{name: strings.ToLower(fc.Name), args: fc.Args, params: params}, true
}

func (c *udfCall) eval(e sql.Expr) (types.Datum, error) {
	ev, err := expr.Compile(e, nil)
	if err != nil {
		return nil, err
	}
	return ev(&expr.Ctx{Params: c.params})
}

// arg evaluates the i-th argument, named or not.
func (c *udfCall) arg(i int) (types.Datum, error) {
	if i >= len(c.args) {
		return nil, fmt.Errorf("%s: missing argument %d", c.name, i+1)
	}
	arg := c.args[i]
	if na, isNamed := arg.(*sql.NamedArg); isNamed {
		arg = na.Value
	}
	return c.eval(arg)
}

// named evaluates the argument passed by name, if there is one.
func (c *udfCall) named(argName string) (types.Datum, bool, error) {
	for _, a := range c.args {
		if na, isNamed := a.(*sql.NamedArg); isNamed && strings.EqualFold(na.Name, argName) {
			v, err := c.eval(na.Value)
			return v, true, err
		}
	}
	return nil, false, nil
}

// text is the first argument as text.
func (c *udfCall) text() (string, error) {
	v, err := c.arg(0)
	return types.Format(v), err
}

// texts is every argument as text (the variadic node functions).
func (c *udfCall) texts() ([]string, error) {
	out := make([]string, len(c.args))
	for i := range c.args {
		v, err := c.arg(i)
		if err != nil {
			return nil, err
		}
		out[i] = types.Format(v)
	}
	return out, nil
}

// traceID is the first argument as a trace id.
func (c *udfCall) traceID() (uint64, error) {
	v, err := c.arg(0)
	if err != nil {
		return 0, err
	}
	id, err := types.CoerceTo(v, types.Int)
	if err != nil || id == nil {
		return 0, fmt.Errorf("%s: trace id must be an integer", c.name)
	}
	return uint64(id.(int64)), nil
}

// udfPlan is the plan of every Citus UDF: its columns, its EXPLAIN label and
// the function that makes its rows when it executes.
type udfPlan struct {
	columns []string
	label   string
	rows    func(s *engine.Session) ([]types.Row, error)
}

func (p *udfPlan) Columns() []string      { return p.columns }
func (p *udfPlan) ExplainLines() []string { return []string{p.label} }

func (p *udfPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	rows, err := p.rows(s)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Columns: p.columns, Rows: rows, Tag: fmt.Sprintf("SELECT %d", len(rows))}, nil
}

// scalarUDF is the plan of a UDF that returns one value: one row of one
// column, named after the function.
func scalarUDF(name string, fn func(s *engine.Session) (types.Datum, error)) *udfPlan {
	return &udfPlan{columns: []string{name}, label: "Citus UDF " + name, rows: func(s *engine.Session) ([]types.Row, error) {
		v, err := fn(s)
		if err != nil {
			return nil, err
		}
		return []types.Row{{v}}, nil
	}}
}

// clusterRows makes the cluster-wide view of a node-local one: this node's
// rows, then every other node's, each gathered by calling fn there. A node
// that cannot be asked fails the view, naming the node.
func (n *Node) clusterRows(fn string, local func() []types.Row) func(*engine.Session) ([]types.Row, error) {
	return func(*engine.Session) ([]types.Row, error) {
		rows := local()
		for _, node := range n.Meta.Nodes() {
			if node.ID == n.ID {
				continue
			}
			remote, err := n.callNode(node.ID, fn, "SELECT "+fn+"()")
			if err != nil {
				return nil, fmt.Errorf("%s on node %d: %w", fn, node.ID, err)
			}
			rows = append(rows, remote.Rows...)
		}
		return rows, nil
	}
}

var nameValueColumns = []string{"name", "value"}

// statCountersRows renders the obs registry as name/value rows.
func statCountersRows(*engine.Session) ([]types.Row, error) {
	snap := obs.Default().Snapshot()
	var rows []types.Row
	for _, k := range snap.Keys() {
		rows = append(rows, types.Row{k, snap[k]})
	}
	return rows, nil
}

// planCacheStatsRows renders this node's distributed-plan cache as
// name/value rows: aggregate counters first, then one
// `shard_groups[<normalized sql>]` row per cached entry reporting how many
// per-shard-group deparses it has memoized.
func (n *Node) planCacheStatsRows(*engine.Session) ([]types.Row, error) {
	entries, hits, misses, invalidations := n.planCache.stats()
	rows := []types.Row{
		{"entries", int64(len(entries))},
		{"hits", hits},
		{"misses", misses},
		{"invalidations", invalidations},
	}
	for _, e := range entries {
		rows = append(rows, types.Row{fmt.Sprintf("shard_groups[%s]", e.key), int64(e.shardGroups)})
	}
	return rows, nil
}

var statActivityColumns = []string{"node_id", "xid", "dist_txn_id", "state", "trace_id", "span_kind"}

// statActivityRows lists a node's in-flight transactions, active and
// prepared, but for skip (nil skips none).
func statActivityRows(eng *engine.Engine, nodeID int, skip *txn.Txn) []types.Row {
	var rows []types.Row
	for _, t := range eng.Txns.ActiveTxns() {
		if t == skip {
			continue
		}
		traceID, spanKind := t.TraceSpan()
		rows = append(rows, types.Row{int64(nodeID), int64(t.XID), t.DistID(), "active", int64(traceID), spanKind})
	}
	for _, pi := range eng.Txns.ListPrepared() {
		rows = append(rows, types.Row{int64(nodeID), int64(pi.XID), pi.DistID, "prepared", int64(0), ""})
	}
	return rows
}

var statSSIColumns = []string{"node_id", "xid", "dist_txn_id", "state", "doomed",
	"in_conflicts", "out_conflicts", "siread_locks", "commit_seq"}

// statSSIRows lists the per-transaction SSI state a node's ssi.Manager
// tracks — pg_stat-style: one row per serializable transaction (including
// committed ones retained for conflict detection), with its conflict-edge
// counts, SIREAD lock count, and doomed flag.
func statSSIRows(eng *engine.Engine, nodeID int) []types.Row {
	var rows []types.Row
	for _, ss := range eng.SSISessions() {
		rows = append(rows, types.Row{
			int64(nodeID), int64(ss.XID), ss.DistID, ss.State, ss.Doomed,
			int64(ss.InConflicts), int64(ss.OutConflicts), int64(ss.SIREADLocks),
			int64(ss.CommitSeq),
		})
	}
	return rows
}

var tablesColumns = []string{"table_name", "citus_table_type", "distribution_column", "colocation_id", "shard_count"}

// tablesRows renders the citus_tables metadata view.
func (n *Node) tablesRows(*engine.Session) ([]types.Row, error) {
	var rows []types.Row
	for _, dt := range n.Meta.Tables() {
		kind := "distributed"
		distCol := dt.DistColumn
		if dt.Type == metadata.ReferenceTable {
			kind = "reference"
			distCol = "<none>"
		}
		rows = append(rows, types.Row{
			dt.Name, kind, distCol, int64(dt.ColocationID), int64(dt.ShardCount),
		})
	}
	return rows, nil
}

var preparedColumns = []string{"gid", "dist_txn_id", "age_ns"}

// preparedRows lists a node's pending prepared transactions with how long
// each has been sitting prepared, by the node's clock. The 2PC recovery
// daemon uses the age as a grace period: a freshly prepared transaction
// usually has a live coordinator about to resolve it. Transactions adopted
// from WAL replay have no prepare time and report MaxInt64: their
// coordinator is certainly gone.
func preparedRows(eng *engine.Engine) []types.Row {
	var rows []types.Row
	now := time.Now()
	for _, p := range eng.Txns.ListPrepared() {
		age := int64(math.MaxInt64)
		if !p.PreparedAt.IsZero() {
			age = now.Sub(p.PreparedAt).Nanoseconds()
		}
		rows = append(rows, types.Row{p.GID, p.DistID, age})
	}
	return rows
}

// ---------------------------------------------------------------------------
// UDF implementations

// CreateDistributedTable converts a local table into a hash-distributed
// table (§3.3.1): shards are created on the workers, existing data moves to
// them, and the metadata records the distribution.
func (n *Node) CreateDistributedTable(s *engine.Session, table, distColumn, colocateWith string) error {
	if n.Meta.IsCitusTable(table) {
		return fmt.Errorf("table %q is already distributed", table)
	}
	distColType, tbl, err := n.localColumnType(table, distColumn)
	if err != nil {
		return err
	}
	// existing rows move into the shards; a NULL distribution value has no
	// shard, so it is refused before anything is created
	rows, err := n.snapshotLocalRows(s, table)
	if err != nil {
		return err
	}
	distOrd := tbl.ColumnIndex(distColumn)
	for _, row := range rows {
		if row[distOrd] == nil {
			return fmt.Errorf("cannot distribute table %q: its distribution column %q contains NULL values", table, distColumn)
		}
	}
	ct, indexes, err := n.schemaStatements(table)
	if err != nil {
		return err
	}

	shardCount := n.Cfg.ShardCount
	colocationID := 0
	var alignWith *metadata.DistTable
	switch colocateWith {
	case "", "default":
		if id, ok := n.Meta.FindColocationGroup(shardCount, distColType); ok {
			colocationID = id
			alignWith = n.tableInColocationGroup(id)
		}
	case "none":
		// force a new group
	default:
		other, ok := n.Meta.Table(colocateWith)
		if !ok || other.Type != metadata.DistributedTable {
			return fmt.Errorf("colocate_with target %q is not a distributed table", colocateWith)
		}
		if other.DistColType != distColType {
			return fmt.Errorf("cannot colocate %q with %q: distribution column types differ", table, colocateWith)
		}
		colocationID = other.ColocationID
		shardCount = other.ShardCount
		alignWith = other
	}
	if colocationID == 0 {
		colocationID = n.Meta.NewColocationGroup(shardCount, distColType)
	}

	dt := &metadata.DistTable{
		Name:         table,
		Type:         metadata.DistributedTable,
		DistColumn:   distColumn,
		DistColType:  distColType,
		ColocationID: colocationID,
		ShardCount:   shardCount,
		SchemaSQL:    ct.String(),
	}

	// shard ranges divide the hash space; co-located tables share them
	ranges := types.SplitHashSpace(shardCount)
	baseID := n.Meta.NextShardID(shardCount)
	shards := make([]*metadata.Shard, shardCount)
	placements := make(map[int64][]int, shardCount)
	workers := n.Meta.WorkerNodes()
	for i := 0; i < shardCount; i++ {
		shards[i] = &metadata.Shard{ID: baseID + int64(i), Table: table, Index: i, Range: ranges[i]}
		var nodeID int
		if alignWith != nil {
			alignShards := n.Meta.Shards(alignWith.Name)
			nodeID, err = n.Meta.PrimaryPlacement(alignShards[i].ID)
			if err != nil {
				return err
			}
		} else {
			nodeID = workers[i%len(workers)].ID
		}
		placements[shards[i].ID] = []int{nodeID}
	}

	for i, sh := range shards {
		if err := n.createShardOnNode(s, placements[sh.ID][0], sh, ct, indexes); err != nil {
			return fmt.Errorf("creating shard %d: %w", i, err)
		}
	}
	if err := n.Meta.AddTable(dt, shards, placements); err != nil {
		return err
	}
	return n.moveLocalDataToShards(table, dt, rows)
}

// tableInColocationGroup finds any existing table of a group (for placement
// alignment).
func (n *Node) tableInColocationGroup(id int) *metadata.DistTable {
	for _, t := range n.Meta.Tables() {
		if t.Type == metadata.DistributedTable && t.ColocationID == id {
			return t
		}
	}
	return nil
}

// CreateReferenceTable converts a local table into a reference table
// replicated to every node (§3.3.3).
func (n *Node) CreateReferenceTable(s *engine.Session, table string) error {
	if n.Meta.IsCitusTable(table) {
		return fmt.Errorf("table %q is already distributed", table)
	}
	ct, indexes, err := n.schemaStatements(table)
	if err != nil {
		return err
	}
	dt := &metadata.DistTable{
		Name:       table,
		Type:       metadata.ReferenceTable,
		ShardCount: 1,
		SchemaSQL:  ct.String(),
	}
	shard := &metadata.Shard{
		ID:    n.Meta.NextShardID(1),
		Table: table,
		Index: 0,
		Range: types.ShardRange{Min: -2147483648, Max: 2147483647},
	}
	// reference replicas live on active (primary-role) nodes only; standbys
	// receive the shard through WAL streaming, so creating it there directly
	// would double-apply
	var nodeIDs []int
	for _, node := range n.Meta.ActiveNodes() {
		nodeIDs = append(nodeIDs, node.ID)
	}
	for _, nodeID := range nodeIDs {
		if err := n.createShardOnNode(s, nodeID, shard, ct, indexes); err != nil {
			return err
		}
	}
	rows, err := n.snapshotLocalRows(s, table)
	if err != nil {
		return err
	}
	if err := n.Meta.AddTable(dt, []*metadata.Shard{shard}, map[int64][]int{shard.ID: nodeIDs}); err != nil {
		return err
	}
	return n.moveLocalDataToShards(table, dt, rows)
}

// StartMetadataSync marks a node as holding the distributed metadata so it
// can coordinate queries itself (§3.2.1; the in-process catalog is shared,
// so flipping the flag is the sync).
func (n *Node) StartMetadataSync(nodeName string) error {
	// metadata.sync, keyed by target node name: a sync that fails here
	// leaves the node without metadata, exactly like a failed catalog ship.
	if err := fault.CheckKey(fault.PointMetaSync, nodeName); err != nil {
		return fmt.Errorf("metadata sync to %q failed: %w", nodeName, err)
	}
	for _, node := range n.Meta.Nodes() {
		if node.Name == nodeName {
			n.Meta.SetHasMetadata(node.ID, true)
			return nil
		}
	}
	return fmt.Errorf("node %q is not in pg_dist_node", nodeName)
}

// CreateRestorePoint writes a consistent restore point into every node's
// WAL while blocking 2PC commit-record writes (§3.9), so that restoring all
// nodes to the point yields a cluster where every multi-node transaction is
// either fully committed, fully aborted, or recoverable via 2PC records.
func (n *Node) CreateRestorePoint(name string) (types.Datum, error) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	lsn := n.Eng.WAL.RestorePoint(name)
	// standby WALs are stream mirrors of their primary's; writing a restore
	// point into them directly would break the LSN alignment the shipper
	// depends on, so the point is created on active nodes only
	for _, node := range n.Meta.ActiveNodes() {
		if node.ID == n.ID {
			continue
		}
		if _, err := n.callNode(node.ID, "citus_node_create_restore_point",
			"SELECT citus_node_create_restore_point($1)", name); err != nil {
			return nil, fmt.Errorf("restore point on node %d: %w", node.ID, err)
		}
	}
	return lsn, nil
}
