package citus

import (
	"fmt"
	"strings"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/expr"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/types"
	"citusgo/internal/wire"
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
//	SELECT citus_stat_counters()
//	SELECT citus_stat_activity()
//	SELECT citus_stat_ssi()
//	SELECT citus_trace(trace_id)
func (n *Node) matchUDF(s *engine.Session, stmt sql.Statement, params []types.Datum) (engine.Plan, bool, error) {
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok || len(sel.From) != 0 || len(sel.Columns) != 1 {
		return nil, false, nil
	}
	fc, ok := sel.Columns[0].Expr.(*sql.FuncCall)
	if !ok {
		return nil, false, nil
	}
	name := strings.ToLower(fc.Name)

	evalArg := func(i int) (types.Datum, error) {
		if i >= len(fc.Args) {
			return nil, fmt.Errorf("%s: missing argument %d", name, i+1)
		}
		arg := fc.Args[i]
		if na, isNamed := arg.(*sql.NamedArg); isNamed {
			arg = na.Value
		}
		ev, err := expr.Compile(arg, nil)
		if err != nil {
			return nil, err
		}
		return ev(&expr.Ctx{Params: params})
	}
	namedArg := func(argName string) (types.Datum, bool, error) {
		for _, a := range fc.Args {
			if na, isNamed := a.(*sql.NamedArg); isNamed && strings.EqualFold(na.Name, argName) {
				ev, err := expr.Compile(na.Value, nil)
				if err != nil {
					return nil, false, err
				}
				v, err := ev(&expr.Ctx{Params: params})
				return v, true, err
			}
		}
		return nil, false, nil
	}

	switch name {
	case "create_distributed_table":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			tableV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			colV, err := evalArg(1)
			if err != nil {
				return nil, err
			}
			colocate := ""
			if v, ok, err := namedArg("colocate_with"); err != nil {
				return nil, err
			} else if ok {
				colocate = types.Format(v)
			} else if len(fc.Args) >= 3 {
				if v, err := evalArg(2); err == nil && v != nil {
					colocate = types.Format(v)
				}
			}
			return nil, n.CreateDistributedTable(s, types.Format(tableV), types.Format(colV), colocate)
		}}, true, nil

	case "create_reference_table":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			tableV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			return nil, n.CreateReferenceTable(s, types.Format(tableV))
		}}, true, nil

	case "start_metadata_sync_to_node":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			nodeV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			return nil, n.StartMetadataSync(types.Format(nodeV))
		}}, true, nil

	case "rebalance_table_shards":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			moves, err := n.RebalanceTableShards(s)
			return int64(moves), err
		}}, true, nil

	case "citus_move_shard_placement":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			shardV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			fromV, err := evalArg(1)
			if err != nil {
				return nil, err
			}
			toV, err := evalArg(2)
			if err != nil {
				return nil, err
			}
			shardID, _ := types.CoerceTo(shardV, types.Int)
			from, _ := types.CoerceTo(fromV, types.Int)
			to, _ := types.CoerceTo(toV, types.Int)
			return nil, n.MoveShardPlacement(s, shardID.(int64), int(from.(int64)), int(to.(int64)))
		}}, true, nil

	case "create_restore_point":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			nameV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			return n.CreateRestorePoint(types.Format(nameV))
		}}, true, nil

	case "citus_node_create_restore_point":
		// node-local part of create_restore_point, invoked over the wire
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			nameV, err := evalArg(0)
			if err != nil {
				return nil, err
			}
			return n.Eng.WAL.RestorePoint(types.Format(nameV)), nil
		}}, true, nil

	case "citus_recover_prepared_transactions":
		return &udfPlan{name: name, fn: func(s *engine.Session) (types.Datum, error) {
			return int64(n.RecoverTwoPhaseCommits()), nil
		}}, true, nil

	case "citus_tables":
		// introspection: one row per citus table (the citus_tables view)
		return &tablesPlan{node: n}, true, nil

	case "citus_stat_counters":
		// observability: one row per metric in the global obs registry
		return &statCountersPlan{}, true, nil

	case "citus_plancache_stats":
		// observability: the coordinator distributed-plan cache
		return &planCacheStatsPlan{node: n}, true, nil

	case "citus_stat_ssi":
		// observability: per-session SSI state (locks, conflict edges,
		// doomed flags) across the cluster
		return &statSSIPlan{node: n, clusterWide: true}, true, nil

	case "citus_node_stat_ssi":
		// node-local part of citus_stat_ssi, invoked over the wire
		return &statSSIPlan{node: n}, true, nil

	case "citus_stat_activity":
		// observability: active/prepared transactions across the cluster
		return &statActivityPlan{node: n, clusterWide: true}, true, nil

	case "citus_node_stat_activity":
		// node-local part of citus_stat_activity, invoked over the wire
		return &statActivityPlan{node: n}, true, nil

	case "citus_trace":
		// observability: the reassembled distributed trace, one row per span
		return &tracePlan{node: n, arg: func() (types.Datum, error) { return evalArg(0) }}, true, nil
	}
	return nil, false, nil
}

// statCountersPlan renders the obs registry as a two-column relation — the
// SQL-queryable counterpart of the citus_stat_* views (§5–6 of the paper's
// operational story).
type statCountersPlan struct{}

func (p *statCountersPlan) Columns() []string      { return []string{"name", "value"} }
func (p *statCountersPlan) ExplainLines() []string { return []string{"Citus Stat Counters"} }

func (p *statCountersPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	snap := obs.Default().Snapshot()
	res := &engine.Result{Columns: p.Columns()}
	for _, k := range snap.Keys() {
		res.Rows = append(res.Rows, types.Row{k, snap[k]})
	}
	res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
	return res, nil
}

// planCacheStatsPlan renders this node's distributed-plan cache as a
// name/value relation: aggregate counters first, then one
// `shard_groups[<normalized sql>]` row per cached entry reporting how many
// per-shard-group deparses it has memoized.
type planCacheStatsPlan struct{ node *Node }

func (p *planCacheStatsPlan) Columns() []string      { return []string{"name", "value"} }
func (p *planCacheStatsPlan) ExplainLines() []string { return []string{"Citus Plan Cache Stats"} }

func (p *planCacheStatsPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	entries, hits, misses, invalidations := p.node.planCache.stats()
	res := &engine.Result{Columns: p.Columns()}
	add := func(name string, v int64) {
		res.Rows = append(res.Rows, types.Row{name, v})
	}
	add("entries", int64(len(entries)))
	add("hits", hits)
	add("misses", misses)
	add("invalidations", invalidations)
	for _, e := range entries {
		add(fmt.Sprintf("shard_groups[%s]", e.key), int64(e.shardGroups))
	}
	res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
	return res, nil
}

// statActivityPlan lists in-flight transactions: the local engine's active
// and prepared transactions, and — cluster-wide from a coordinator — every
// other node's, gathered over the wire via citus_node_stat_activity().
type statActivityPlan struct {
	node        *Node
	clusterWide bool
}

func (p *statActivityPlan) Columns() []string {
	return []string{"node_id", "xid", "dist_txn_id", "state", "trace_id", "span_kind"}
}
func (p *statActivityPlan) ExplainLines() []string { return []string{"Citus Stat Activity"} }

func (p *statActivityPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	res := &engine.Result{Columns: p.Columns()}
	for _, t := range p.node.Eng.Txns.ActiveTxns() {
		traceID, spanKind := t.TraceSpan()
		res.Rows = append(res.Rows, types.Row{int64(p.node.ID), int64(t.XID), t.DistID, "active", int64(traceID), spanKind})
	}
	for _, pi := range p.node.Eng.Txns.ListPrepared() {
		res.Rows = append(res.Rows, types.Row{int64(p.node.ID), int64(pi.XID), pi.DistID, "prepared", int64(0), ""})
	}
	if p.clusterWide {
		for _, node := range p.node.Meta.Nodes() {
			if node.ID == p.node.ID {
				continue
			}
			p.node.withNodeConn(node.ID, func(c *wire.Conn) error {
				remote, err := c.Query("SELECT citus_node_stat_activity()")
				if err != nil {
					return err
				}
				res.Rows = append(res.Rows, remote.Rows...)
				return nil
			})
		}
	}
	res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
	return res, nil
}

// statSSIPlan lists per-transaction SSI state the node's ssi.Manager
// tracks — pg_stat-style: one row per serializable transaction (including
// committed ones retained for conflict detection), with its conflict-edge
// counts, SIREAD lock count, and doomed flag. Cluster-wide from a
// coordinator it gathers every other node's rows over the wire via
// citus_node_stat_ssi().
type statSSIPlan struct {
	node        *Node
	clusterWide bool
}

func (p *statSSIPlan) Columns() []string {
	return []string{"node_id", "xid", "dist_txn_id", "state", "doomed",
		"in_conflicts", "out_conflicts", "siread_locks", "commit_seq"}
}
func (p *statSSIPlan) ExplainLines() []string { return []string{"Citus Stat SSI"} }

func (p *statSSIPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	res := &engine.Result{Columns: p.Columns()}
	for _, ss := range p.node.Eng.SSISessions() {
		res.Rows = append(res.Rows, types.Row{
			int64(p.node.ID), int64(ss.XID), ss.DistID, ss.State, ss.Doomed,
			int64(ss.InConflicts), int64(ss.OutConflicts), int64(ss.SIREADLocks),
			int64(ss.CommitSeq),
		})
	}
	if p.clusterWide {
		for _, node := range p.node.Meta.Nodes() {
			if node.ID == p.node.ID {
				continue
			}
			p.node.withNodeConn(node.ID, func(c *wire.Conn) error {
				remote, err := c.Query("SELECT citus_node_stat_ssi()")
				if err != nil {
					return err
				}
				res.Rows = append(res.Rows, remote.Rows...)
				return nil
			})
		}
	}
	res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
	return res, nil
}

// tablesPlan renders the citus_tables metadata view.
type tablesPlan struct{ node *Node }

func (p *tablesPlan) Columns() []string {
	return []string{"table_name", "citus_table_type", "distribution_column", "colocation_id", "shard_count"}
}
func (p *tablesPlan) ExplainLines() []string { return []string{"Citus Tables Metadata"} }

func (p *tablesPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	res := &engine.Result{Columns: p.Columns()}
	for _, dt := range p.node.Meta.Tables() {
		kind := "distributed"
		distCol := dt.DistColumn
		if dt.Type == metadata.ReferenceTable {
			kind = "reference"
			distCol = "<none>"
		}
		res.Rows = append(res.Rows, types.Row{
			dt.Name, kind, distCol, int64(dt.ColocationID), int64(dt.ShardCount),
		})
	}
	res.Tag = fmt.Sprintf("SELECT %d", len(res.Rows))
	return res, nil
}

// udfPlan runs a Citus UDF as a one-row plan.
type udfPlan struct {
	name string
	fn   func(s *engine.Session) (types.Datum, error)
}

func (p *udfPlan) Columns() []string      { return []string{p.name} }
func (p *udfPlan) ExplainLines() []string { return []string{"Citus UDF " + p.name} }

func (p *udfPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	v, err := p.fn(s)
	if err != nil {
		return nil, err
	}
	return &engine.Result{
		Columns: []string{p.name},
		Rows:    []types.Row{{v}},
		Tag:     "SELECT 1",
	}, nil
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
		var rerr error
		n.withNodeConn(node.ID, func(c *wire.Conn) error {
			_, rerr = c.Query(fmt.Sprintf("SELECT citus_node_create_restore_point(%s)", types.QuoteString(name)))
			return rerr
		})
		if rerr != nil {
			return nil, fmt.Errorf("restore point on node %d: %w", node.ID, rerr)
		}
	}
	return lsn, nil
}
