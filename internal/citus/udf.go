package citus

import (
	"fmt"
	"math"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/txn"
	"citusgo/internal/types"
)

// registerFunctions registers the Citus user-defined functions on the
// node's engine — the SQL-callable control plane the paper describes in §3.1
// ("UDFs ... are primarily used to manipulate the Citus metadata and
// implement remote procedure calls"), ordinary functions to the engine:
//
//	SELECT create_distributed_table('t', 'col' [, colocate_with := '...'])
//	SELECT create_reference_table('t')
//	SELECT start_metadata_sync_to_node('node-name')
//	SELECT rebalance_table_shards()
//	SELECT create_restore_point('name')
//	SELECT citus_recover_prepared_transactions()
//	SELECT citus_move_shard_placement(shard_id, from_node, to_node)
//	SELECT * FROM citus_tables()
//	SELECT * FROM citus_stat_counters()
//	SELECT * FROM citus_plancache_stats()
//	SELECT * FROM citus_stat_activity()
//	SELECT * FROM citus_stat_ssi()
//	SELECT * FROM citus_trace(trace_id)
//
// and the node functions (RegisterNodeFunctions), the remote procedure calls.
func (n *Node) registerFunctions() {
	RegisterNodeFunctions(n.Eng, n.ID)
	for _, f := range []engine.Function{
		textScalar("create_distributed_table", []string{"table_name", "distribution_column", "colocate_with"}, 1, func(s *engine.Session, args []string) (types.Datum, error) {
			return nil, n.CreateDistributedTable(s, args[0], args[1], args[2])
		}),
		textScalar("create_reference_table", []string{"table_name"}, 0, func(s *engine.Session, args []string) (types.Datum, error) {
			return nil, n.CreateReferenceTable(s, args[0])
		}),
		textScalar("start_metadata_sync_to_node", []string{"node_name"}, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			return nil, n.StartMetadataSync(args[0])
		}),
		scalar("rebalance_table_shards", nil, func(s *engine.Session, _ []types.Datum) (types.Datum, error) {
			moves, err := n.RebalanceTableShards(s)
			return int64(moves), err
		}),
		scalar("citus_move_shard_placement", []string{"shard_id", "source_node", "target_node"}, func(s *engine.Session, args []types.Datum) (types.Datum, error) {
			var ids [3]int64
			for i, what := range []string{"shard id", "source node", "target node"} {
				var err error
				if ids[i], err = intArg("citus_move_shard_placement", what, args[i]); err != nil {
					return nil, err
				}
			}
			return nil, n.MoveShardPlacement(s, ids[0], int(ids[1]), int(ids[2]))
		}),
		textScalar("create_restore_point", []string{"name"}, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			return n.CreateRestorePoint(args[0])
		}),
		scalar("citus_recover_prepared_transactions", nil, func(*engine.Session, []types.Datum) (types.Datum, error) {
			return int64(n.RecoverTwoPhaseCommits()), nil
		}),
		// introspection: one row per citus table (the citus_tables view)
		{Name: "citus_tables", Columns: tablesColumns, Call: n.tablesRows},
		// observability: one row per metric in the global obs registry — the
		// SQL-queryable counterpart of the citus_stat_* views (§5–6 of the
		// paper's operational story)
		{Name: "citus_stat_counters", Columns: nameValueColumns, Call: statCountersRows},
		// observability: the coordinator distributed-plan cache
		{Name: "citus_plancache_stats", Columns: nameValueColumns, Call: n.planCacheStatsRows},
		// observability: per-session SSI state (locks, conflict edges, doomed
		// flags) across the cluster
		{Name: "citus_stat_ssi", Columns: statSSIColumns, Call: n.clusterRows("citus_node_stat_ssi", func() []types.Row {
			return statSSIRows(n.Eng, n.ID)
		})},
		// observability: active/prepared transactions across the cluster
		{Name: "citus_stat_activity", Columns: statActivityColumns, Call: n.clusterRows("citus_node_stat_activity", func() []types.Row {
			return statActivityRows(n.Eng, n.ID, nil)
		})},
		// observability: the reassembled distributed trace, one row per span
		{Name: "citus_trace", Columns: traceColumns, Args: []string{"trace_id"}, Call: func(_ *engine.Session, args []types.Datum) ([]types.Row, error) {
			id, err := intArg("citus_trace", "trace id", args[0])
			if err != nil {
				return nil, err
			}
			return traceRows(n.CollectTrace(uint64(id))), nil
		}},
	} {
		n.Eng.RegisterFunction(f)
	}
}

// RegisterNodeFunctions registers the node functions on an engine: what one
// node answers about itself, and everything a coordinator asks another node.
// A coordinator sends them as ordinary statements (callNode); every node
// answers them, a standby running no Citus layer included.
//
//	SELECT * FROM citus_node_wait_edges()
//	SELECT citus_node_cancel_dist(dist_txn_id)
//	SELECT citus_node_doom_dist(dist_txn_id)
//	SELECT citus_node_drop_results(prefix, ...)
//	SELECT citus_node_table_rows(table, ...)
//	SELECT * FROM citus_node_list_prepared()
//	SELECT * FROM citus_node_trace_spans(trace_id)
//	SELECT citus_node_create_restore_point(name)
//	SELECT * FROM citus_node_stat_activity()
//	SELECT * FROM citus_node_stat_ssi()
func RegisterNodeFunctions(eng *engine.Engine, nodeID int) {
	for _, f := range []engine.Function{
		// the deadlock detector's poll and the SSI check's: the node's lock
		// waits and rw-antidependencies, in one statement
		{Name: "citus_node_wait_edges", Columns: waitEdgeColumns, Call: func(*engine.Session, []types.Datum) ([]types.Row, error) {
			return waitEdgeRows(eng.LockGraph(), eng.SSIWireEdges()), nil
		}},
		// a deadlock victim's member: its running statement is interrupted
		textScalar("citus_node_cancel_dist", []string{"dist_txn_id"}, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			return eng.CancelByDistID(args[0]), nil
		}),
		// a pivot's member: nothing is interrupted, its commit fails with a
		// serialization error
		textScalar("citus_node_doom_dist", []string{"dist_txn_id"}, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			return eng.DoomByDistID(args[0]), nil
		}),
		// drops every intermediate result whose name starts with one of the
		// prefixes
		textScalar("citus_node_drop_results", nil, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			for _, prefix := range args {
				eng.DropIntermediateResults(prefix)
			}
			return nil, nil
		}),
		// the summed row estimates of the named tables (a table's shards on
		// the node)
		textScalar("citus_node_table_rows", nil, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			var total int64
			for _, table := range args {
				total += eng.TableRows(table)
			}
			return total, nil
		}),
		// 2PC recovery's read of the node's prepared transactions
		{Name: "citus_node_list_prepared", Columns: preparedColumns, Call: func(*engine.Session, []types.Datum) ([]types.Row, error) {
			return preparedRows(eng), nil
		}},
		// the node-local part of citus_trace: the node's ring-buffered spans
		// of one trace
		{Name: "citus_node_trace_spans", Columns: spanColumns, Args: []string{"trace_id"}, Call: func(_ *engine.Session, args []types.Datum) ([]types.Row, error) {
			id, err := intArg("citus_node_trace_spans", "trace id", args[0])
			if err != nil {
				return nil, err
			}
			return spanRows(eng.Tracer.Collect(uint64(id))), nil
		}},
		// the node-local part of create_restore_point
		textScalar("citus_node_create_restore_point", []string{"name"}, 0, func(_ *engine.Session, args []string) (types.Datum, error) {
			return eng.WAL.RestorePoint(args[0]), nil
		}),
		{Name: "citus_node_stat_activity", Columns: statActivityColumns, Call: func(s *engine.Session, _ []types.Datum) ([]types.Row, error) {
			// the asking statement's own transaction is no activity of the node's
			return statActivityRows(eng, nodeID, s.Txn()), nil
		}},
		{Name: "citus_node_stat_ssi", Columns: statSSIColumns, Call: func(*engine.Session, []types.Datum) ([]types.Row, error) {
			return statSSIRows(eng, nodeID), nil
		}},
	} {
		eng.RegisterFunction(f)
	}
}

// scalar is a function that returns one value: one row of one column, named
// after the function.
func scalar(name string, args []string, fn func(s *engine.Session, args []types.Datum) (types.Datum, error)) engine.Function {
	return engine.Function{Name: name, Columns: []string{name}, Args: args, Call: func(s *engine.Session, args []types.Datum) ([]types.Row, error) {
		v, err := fn(s, args)
		if err != nil {
			return nil, err
		}
		return []types.Row{{v}}, nil
	}}
}

// textScalar is a scalar function of text arguments. Each one is required: a
// NULL argument, a left-out one included, fails. Only the last optional
// declared arguments may be NULL, and are then "".
func textScalar(name string, args []string, optional int, fn func(s *engine.Session, args []string) (types.Datum, error)) engine.Function {
	return scalar(name, args, func(s *engine.Session, vals []types.Datum) (types.Datum, error) {
		texts := make([]string, len(vals))
		for i, v := range vals {
			if v != nil {
				texts[i] = types.Format(v)
			} else if i < len(vals)-optional {
				what := fmt.Sprintf("argument %d", i+1)
				if i < len(args) {
					what = args[i]
				}
				return nil, fmt.Errorf("%s: missing %s", name, what)
			}
		}
		return fn(s, texts)
	})
}

// intArg is an argument of fn, what it is, as an integer.
func intArg(fn, what string, v types.Datum) (int64, error) {
	id, err := types.CoerceTo(v, types.Int)
	if err != nil || id == nil {
		return 0, fmt.Errorf("%s: %s must be an integer", fn, what)
	}
	return id.(int64), nil
}

// clusterRows makes the cluster-wide view of a node-local one: this node's
// rows, then every other node's, each gathered by calling fn there. A node
// that cannot be asked fails the view, naming the node.
func (n *Node) clusterRows(fn string, local func() []types.Row) func(*engine.Session, []types.Datum) ([]types.Row, error) {
	return func(*engine.Session, []types.Datum) ([]types.Row, error) {
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
func statCountersRows(*engine.Session, []types.Datum) ([]types.Row, error) {
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
func (n *Node) planCacheStatsRows(*engine.Session, []types.Datum) ([]types.Row, error) {
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

var statActivityColumns = []string{"node_id", "xid", "dist_txn_id", "state", "trace_id", "span_kind", "vid"}

// statActivityRows lists a node's in-flight transactions, active and
// prepared, but for skip (nil skips none). A transaction is named by its
// virtual ID (vid); xid is 0 until it writes.
func statActivityRows(eng *engine.Engine, nodeID int, skip *txn.Txn) []types.Row {
	var rows []types.Row
	for _, t := range eng.Txns.ActiveTxns() {
		if t == skip {
			continue
		}
		traceID, spanKind := t.TraceSpan()
		rows = append(rows, types.Row{int64(nodeID), int64(t.XID()), t.DistID(), "active", int64(traceID), spanKind, int64(t.VID)})
	}
	for _, pi := range eng.Txns.ListPrepared() {
		rows = append(rows, types.Row{int64(nodeID), int64(pi.XID), pi.DistID, "prepared", int64(0), "", int64(pi.VID)})
	}
	return rows
}

var statSSIColumns = []string{"node_id", "xid", "dist_txn_id", "state", "doomed",
	"in_conflicts", "out_conflicts", "siread_locks", "commit_seq", "vid"}

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
			int64(ss.CommitSeq), int64(ss.VID),
		})
	}
	return rows
}

var tablesColumns = []string{"table_name", "citus_table_type", "distribution_column", "colocation_id", "shard_count"}

// tablesRows renders the citus_tables metadata view.
func (n *Node) tablesRows(*engine.Session, []types.Datum) ([]types.Row, error) {
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
