package citus

import (
	"fmt"

	"citusgo/internal/catalog"
	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// utilityHook intercepts utility statements on Citus tables (§3.8: "Citus
// preserves [DDL as transactional, online operations] by taking the same
// locks as PostgreSQL and propagating the DDL commands to shards via the
// executor").
func (n *Node) utilityHook(s *engine.Session, stmt sql.Statement, params []types.Datum) (bool, *engine.Result, error) {
	switch st := stmt.(type) {
	case *sql.CreateIndexStmt:
		if !n.Meta.IsCitusTable(st.Table) {
			return false, nil, nil
		}
		// the name is checked on the shell before any shard gets the index,
		// which the shell would otherwise refuse after the shards took it
		if table, taken := s.Eng.Catalog.IndexTable(st.Name); taken {
			if st.IfNotExists {
				return true, &engine.Result{Tag: "CREATE INDEX"}, nil
			}
			return true, nil, fmt.Errorf("index %q already exists on %q", st.Name, table)
		}
		if err := n.propagateCreateIndex(s, st); err != nil {
			return true, nil, err
		}
		// apply to the local shell table too, so future shards (rebalancer
		// moves, new placements) inherit the index
		if _, err := s.ExecUtilityLocal(st); err != nil {
			return true, nil, err
		}
		n.Meta.BumpVersion()
		return true, &engine.Result{Tag: "CREATE INDEX"}, nil
	case *sql.DropIndexStmt:
		table, ok := s.Eng.Catalog.IndexTable(st.Name)
		if !ok || !n.Meta.IsCitusTable(table) || st.Name == table+"_pkey" {
			return false, nil, nil // the shell table's own answer, or its refusal
		}
		if err := n.forEachShardDDL(s, table, func(sh *metadata.Shard) sql.Statement {
			return &sql.DropIndexStmt{Name: shardIndexName(st.Name, sh), IfExists: true}
		}); err != nil {
			return true, nil, err
		}
		// and from the shell table, so that no shard made later has it
		if _, err := s.ExecUtilityLocal(st); err != nil {
			return true, nil, err
		}
		n.Meta.BumpVersion()
		return true, &engine.Result{Tag: "DROP INDEX"}, nil
	case *sql.TruncateStmt:
		if !n.Meta.IsCitusTable(st.Name) {
			return false, nil, nil
		}
		if err := n.forEachShardDDL(s, st.Name, func(sh *metadata.Shard) sql.Statement {
			return &sql.TruncateStmt{Name: sh.ShardName()}
		}); err != nil {
			return true, nil, err
		}
		n.Meta.BumpVersion()
		return true, &engine.Result{Tag: "TRUNCATE TABLE"}, nil
	case *sql.DropTableStmt:
		if !n.Meta.IsCitusTable(st.Name) {
			return false, nil, nil
		}
		if err := n.forEachShardDDL(s, st.Name, func(sh *metadata.Shard) sql.Statement {
			return &sql.DropTableStmt{Name: sh.ShardName(), IfExists: true}
		}); err != nil {
			return true, nil, err
		}
		n.Meta.RemoveTable(st.Name) // bumps the metadata version
		if _, err := s.ExecUtilityLocal(st); err != nil {
			return true, nil, err
		}
		return true, &engine.Result{Tag: "DROP TABLE"}, nil
	case *sql.AlterTableAddColumnStmt:
		if !n.Meta.IsCitusTable(st.Table) {
			return false, nil, nil
		}
		if err := n.forEachShardDDL(s, st.Table, func(sh *metadata.Shard) sql.Statement {
			clone := *st
			clone.Table = sh.ShardName()
			return &clone
		}); err != nil {
			return true, nil, err
		}
		if _, err := s.ExecUtilityLocal(st); err != nil {
			return true, nil, err
		}
		n.refreshSchemaSQL(st.Table)
		n.Meta.BumpVersion()
		return true, &engine.Result{Tag: "ALTER TABLE"}, nil
	case *sql.VacuumStmt:
		if st.Table == "" || !n.Meta.IsCitusTable(st.Table) {
			return false, nil, nil
		}
		// VACUUM on a distributed table runs on all shards in parallel —
		// the paper's point that sharding parallelizes auto-vacuum (§2.3)
		if err := n.forEachShardDDL(s, st.Table, func(sh *metadata.Shard) sql.Statement {
			return &sql.VacuumStmt{Table: sh.ShardName()}
		}); err != nil {
			return true, nil, err
		}
		return true, &engine.Result{Tag: "VACUUM"}, nil
	case *sql.CallStmt:
		return n.maybeDelegateCall(s, st, params)
	}
	return false, nil, nil
}

// forEachShardDDL fans a DDL statement out to every shard placement.
func (n *Node) forEachShardDDL(s *engine.Session, table string, build func(*metadata.Shard) sql.Statement) error {
	var tasks []task
	for _, sh := range n.Meta.Shards(table) {
		stmt := build(sh)
		for _, nodeID := range n.Meta.Placements(sh.ID) {
			tasks = append(tasks, task{
				nodeID:     nodeID,
				shardGroup: -1,
				sql:        stmt.String(),
				isDDL:      true,
			})
		}
	}
	_, err := n.executeTasks(s, tasks)
	return err
}

// propagateCreateIndex creates per-shard indexes (shard-suffixed names).
func (n *Node) propagateCreateIndex(s *engine.Session, st *sql.CreateIndexStmt) error {
	return n.forEachShardDDL(s, st.Table, func(sh *metadata.Shard) sql.Statement {
		clone := *st
		clone.Name, clone.Table = shardIndexName(st.Name, sh), sh.ShardName()
		return &clone
	})
}

// shardIndexName is what a distributed index is called on one of its shards.
func shardIndexName(name string, sh *metadata.Shard) string {
	return fmt.Sprintf("%s_%d", name, sh.ID)
}

// maybeDelegateCall implements stored-procedure delegation (§3.8): a
// procedure registered with a distribution argument is shipped, with the
// statement's parameters, to the worker owning the shard its bound value
// routes to, avoiding per-statement round trips.
func (n *Node) maybeDelegateCall(s *engine.Session, st *sql.CallStmt, params []types.Datum) (bool, *engine.Result, error) {
	spec, ok := n.distProcedure(st.Name)
	if !ok || !n.canCoordinate() {
		return false, nil, nil
	}
	if s.InTransaction() {
		// inside a transaction block the coordinator keeps control
		return false, nil, nil
	}
	// route on the bound parameters alone: an argument that needs a
	// subquery is evaluated by the local CALL, inside its transaction
	args, err := n.Eng.BindArgs(st.Name, st.Args, params)
	if err != nil || spec.ArgIndex >= len(args) || args[spec.ArgIndex] == nil {
		return false, nil, nil
	}
	sh, err := n.Meta.ShardForValue(spec.ColocatedWith, args[spec.ArgIndex])
	if err != nil {
		return true, nil, err
	}
	nodeID, err := n.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		return true, nil, err
	}
	if nodeID == n.ID {
		return false, nil, nil // local shard: run the procedure here
	}
	dt, _ := n.Meta.Table(spec.ColocatedWith)
	results, err := n.executeTasks(s, []task{{
		nodeID:     nodeID,
		shardGroup: metadata.ShardGroupID(dt.ColocationID, sh.Index),
		sql:        st.String(),
		params:     params,
		isWrite:    true,
	}})
	if err != nil {
		return true, nil, err
	}
	res := results[0]
	if res == nil {
		res = &engine.Result{Tag: "CALL"}
	}
	return true, res, nil
}

// ---------------------------------------------------------------------------
// Shard creation

// schemaStatements reconstructs a table's CREATE TABLE plus secondary
// CREATE INDEX statements from the local catalog.
func (n *Node) schemaStatements(table string) (*sql.CreateTableStmt, []*sql.CreateIndexStmt, error) {
	tbl, ok := n.Eng.Catalog.Get(table)
	if !ok {
		return nil, nil, fmt.Errorf("relation %q does not exist", table)
	}
	ct := &sql.CreateTableStmt{Name: tbl.Name, Using: tbl.Using}
	pk := map[int]bool{}
	for _, ord := range tbl.PrimaryKey {
		pk[ord] = true
	}
	for i, c := range tbl.Columns {
		ct.Columns = append(ct.Columns, sql.ColumnDef{
			Name:    c.Name,
			Type:    c.Type,
			NotNull: c.NotNull,
			Default: c.Default,
		})
		_ = i
	}
	for _, ord := range tbl.PrimaryKey {
		ct.PrimaryKey = append(ct.PrimaryKey, tbl.Columns[ord].Name)
	}
	var indexes []*sql.CreateIndexStmt
	for _, idx := range tbl.Indexes {
		if idx.Name == tbl.Name+"_pkey" {
			continue
		}
		indexes = append(indexes, &sql.CreateIndexStmt{
			Name:   idx.Name,
			Table:  idx.Table,
			Using:  idx.Using,
			Exprs:  idx.Exprs,
			Unique: idx.Unique,
		})
	}
	return ct, indexes, nil
}

// refreshSchemaSQL re-captures the shell table's schema into the metadata
// after ALTER TABLE.
func (n *Node) refreshSchemaSQL(table string) {
	if ct, _, err := n.schemaStatements(table); err == nil {
		if dt, ok := n.Meta.Table(table); ok {
			dt.SchemaSQL = ct.String()
		}
	}
}

// createShardOnNode creates one shard table (and its secondary indexes) on
// a node.
func (n *Node) createShardOnNode(s *engine.Session, nodeID int, shard *metadata.Shard, ct *sql.CreateTableStmt, indexes []*sql.CreateIndexStmt) error {
	shardCT := *ct
	shardCT.Name = shard.ShardName()
	stmts := []string{shardCT.String()}
	for _, idx := range indexes {
		shardIdx := *idx
		shardIdx.Name = fmt.Sprintf("%s_%d", idx.Name, shard.ID)
		shardIdx.Table = shard.ShardName()
		stmts = append(stmts, shardIdx.String())
	}
	var tasks []task
	for _, q := range stmts {
		tasks = append(tasks, task{nodeID: nodeID, shardGroup: -1, sql: q, isDDL: true})
	}
	// DDL tasks run sequentially on one connection: the index depends on
	// the table existing.
	for _, t := range tasks {
		if _, err := n.executeTasks(s, []task{t}); err != nil {
			return err
		}
	}
	return nil
}

// snapshotLocalRows captures the shell table's rows before the metadata is
// registered (afterwards a SELECT would route to the still-empty shards).
func (n *Node) snapshotLocalRows(s *engine.Session, table string) ([]types.Row, error) {
	res, err := s.Exec("SELECT * FROM " + table)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// moveLocalDataToShards copies the shell table's existing rows into the new
// shards (create_distributed_table preserves existing data). The copy is a
// transaction of its own, committed before the shell is emptied; if it
// fails, the metadata is removed again and the table is the local one it
// was, every row in place.
func (n *Node) moveLocalDataToShards(table string, dt *metadata.DistTable, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	tbl, _ := n.Eng.Catalog.Get(table)
	sess := n.Eng.NewSession()
	if _, err := n.writeRows(sess, dt, tbl.ColumnNames(), rows); err != nil {
		n.Meta.RemoveTable(table)
		return err
	}
	// the shell table stays empty from here on
	_, err := sess.ExecUtilityLocal(&sql.TruncateStmt{Name: table})
	return err
}

// localColumnType returns a column's type from the local catalog.
func (n *Node) localColumnType(table, column string) (types.Type, *catalog.Table, error) {
	tbl, ok := n.Eng.Catalog.Get(table)
	if !ok {
		return types.Unknown, nil, fmt.Errorf("relation %q does not exist", table)
	}
	ord := tbl.ColumnIndex(column)
	if ord == -1 {
		return types.Unknown, nil, fmt.Errorf("column %q of relation %q does not exist", column, table)
	}
	return tbl.Columns[ord].Type, tbl, nil
}
