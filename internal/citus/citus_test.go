package citus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/types"
)

func newCluster(t *testing.T, workers int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Workers:               workers,
		ShardCount:            8,
		SyncMetadata:          false,
		LocalDeadlockInterval: 20 * time.Millisecond,
		// Set before StartDaemons runs: the deadlock loop goroutine reads
		// Cfg, so mutating it after cluster.New is a data race.
		// RecoveryGrace is disabled: these tests hand-craft orphaned
		// prepared transactions and expect recovery to resolve them
		// immediately, without waiting out the anti-race grace period.
		Citus: citus.Config{DeadlockInterval: 50 * time.Millisecond, RecoveryGrace: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustExec(t *testing.T, s *engine.Session, q string, params ...types.Datum) *engine.Result {
	t.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func rowsText(res *engine.Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(types.Format(v))
		}
		sb.WriteByte('\n')
	}
	return strings.TrimSpace(sb.String())
}

func expectRows(t *testing.T, res *engine.Result, want string) {
	t.Helper()
	if got := rowsText(res); got != strings.TrimSpace(want) {
		t.Fatalf("rows mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCreateDistributedTable(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE items (id bigint PRIMARY KEY, name text)")
	mustExec(t, s, "INSERT INTO items (id, name) VALUES (1, 'pre-existing')")
	mustExec(t, s, "SELECT create_distributed_table('items', 'id')")

	// metadata recorded
	dt, ok := c.Meta.Table("items")
	if !ok || dt.DistColumn != "id" || dt.ShardCount != 8 {
		t.Fatalf("bad metadata: %+v", dt)
	}
	// shards spread across the two workers
	placements := map[int]int{}
	for _, sh := range c.Meta.Shards("items") {
		nodeID, err := c.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			t.Fatal(err)
		}
		placements[nodeID]++
	}
	if placements[2] != 4 || placements[3] != 4 {
		t.Fatalf("expected 4+4 round-robin placement, got %v", placements)
	}
	// pre-existing data survived the conversion
	expectRows(t, mustExec(t, s, "SELECT name FROM items WHERE id = 1"), "pre-existing")
}

func TestRouterAndFastPathQueries(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_distributed_table('kv', 'k')")

	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, 'v%d')", i, i))
	}
	// point reads route to single shards
	for i := 0; i < 50; i++ {
		expectRows(t, mustExec(t, s, "SELECT v FROM kv WHERE k = $1", int64(i)), fmt.Sprintf("v%d", i))
	}
	// router update / delete
	mustExec(t, s, "UPDATE kv SET v = 'changed' WHERE k = 7")
	expectRows(t, mustExec(t, s, "SELECT v FROM kv WHERE k = 7"), "changed")
	res := mustExec(t, s, "DELETE FROM kv WHERE k = 7")
	if res.Affected != 1 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	// explain shows the router
	res = mustExec(t, s, "EXPLAIN SELECT v FROM kv WHERE k = 3")
	if !strings.Contains(rowsText(res), "Citus Router") {
		t.Fatalf("expected router plan:\n%s", rowsText(res))
	}
}

func TestPushdownAggregation(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE events (id bigint PRIMARY KEY, kind text, amount bigint)")
	mustExec(t, s, "SELECT create_distributed_table('events', 'id')")
	for i := 0; i < 100; i++ {
		kind := "a"
		if i%3 == 0 {
			kind = "b"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO events (id, kind, amount) VALUES (%d, '%s', %d)", i, kind, i))
	}
	// cross-shard count
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM events"), "100")
	// group by non-distribution column forces partial aggregation + merge
	res := mustExec(t, s, "SELECT kind, count(*), sum(amount), avg(amount) FROM events GROUP BY kind ORDER BY kind")
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 groups, got %v", res.Rows)
	}
	// verify against a local computation: kind 'b' is i % 3 == 0 -> 34 rows
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM events WHERE kind = 'b'"), "34")
	// min / max across shards
	expectRows(t, mustExec(t, s, "SELECT min(amount), max(amount) FROM events"), "0|99")
	// ORDER BY + LIMIT across shards
	expectRows(t, mustExec(t, s, "SELECT amount FROM events ORDER BY amount DESC LIMIT 3"), "99\n98\n97")
	// HAVING over merged aggregates
	res = mustExec(t, s, "SELECT kind FROM events GROUP BY kind HAVING count(*) > 40 ORDER BY kind")
	expectRows(t, res, "a")
}

func TestGroupByDistributionColumnPushdown(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE m (device bigint, metric double precision)")
	mustExec(t, s, "SELECT create_distributed_table('m', 'device')")
	for d := 0; d < 10; d++ {
		for j := 0; j < 5; j++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO m (device, metric) VALUES (%d, %d)", d, j))
		}
	}
	res := mustExec(t, s, "SELECT device, avg(metric) FROM m GROUP BY device ORDER BY device")
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 devices, got %d", len(res.Rows))
	}
	if types.Format(res.Rows[0][1]) != "2.0" {
		t.Fatalf("avg wrong: %v", res.Rows[0])
	}
}

func TestVeniceDBQueryShape(t *testing.T) {
	// §5: nested subquery grouping by the distribution column is pushed
	// down; the outer aggregate is merged on the coordinator.
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE reports (deviceid bigint, build text, metric double precision)")
	mustExec(t, s, "SELECT create_distributed_table('reports', 'deviceid')")
	for d := 0; d < 20; d++ {
		for j := 0; j < 3; j++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO reports (deviceid, build, metric) VALUES (%d, 'b1', %d)", d, d+j))
		}
	}
	q := `SELECT avg(device_avg) FROM (
	        SELECT deviceid, avg(metric) AS device_avg
	        FROM reports WHERE build = 'b1'
	        GROUP BY deviceid) AS subq`
	res := mustExec(t, s, q)
	expectRows(t, res, "10.5")

	// and the plan confirms the pushdown
	res = mustExec(t, s, "EXPLAIN "+q)
	if !strings.Contains(rowsText(res), "pushdown") {
		t.Fatalf("expected logical pushdown:\n%s", rowsText(res))
	}
}

func TestReferenceTablesAndColocatedJoins(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE tenants (tenant_id bigint PRIMARY KEY, name text)")
	mustExec(t, s, "CREATE TABLE orders (tenant_id bigint, order_id bigint, item_id bigint, amount bigint)")
	mustExec(t, s, "CREATE TABLE order_lines (tenant_id bigint, order_id bigint, qty bigint)")
	mustExec(t, s, "CREATE TABLE items (item_id bigint PRIMARY KEY, label text)")

	mustExec(t, s, "SELECT create_distributed_table('tenants', 'tenant_id')")
	mustExec(t, s, "SELECT create_distributed_table('orders', 'tenant_id')")
	mustExec(t, s, "SELECT create_distributed_table('order_lines', 'tenant_id', colocate_with := 'orders')")
	mustExec(t, s, "SELECT create_reference_table('items')")

	// reference table write replicates everywhere
	mustExec(t, s, "INSERT INTO items (item_id, label) VALUES (1, 'widget'), (2, 'gadget')")
	for _, eng := range c.Engines {
		shardName := c.Meta.Shards("items")[0].ShardName()
		if rows := eng.TableRows(shardName); rows != 2 {
			t.Fatalf("reference replica on %s has %d rows, want 2", eng.Name, rows)
		}
	}

	for tenant := 1; tenant <= 6; tenant++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tenants (tenant_id, name) VALUES (%d, 'tenant%d')", tenant, tenant))
		for o := 0; o < 3; o++ {
			mustExec(t, s, fmt.Sprintf(
				"INSERT INTO orders (tenant_id, order_id, item_id, amount) VALUES (%d, %d, %d, %d)",
				tenant, o, o%2+1, o*10))
			mustExec(t, s, fmt.Sprintf(
				"INSERT INTO order_lines (tenant_id, order_id, qty) VALUES (%d, %d, 2)", tenant, o))
		}
	}

	// router: single-tenant join with reference table (multi-tenant SaaS
	// pattern, §2.1)
	res := mustExec(t, s, `SELECT o.order_id, i.label, l.qty
		FROM orders o
		JOIN items i ON o.item_id = i.item_id
		JOIN order_lines l ON l.tenant_id = o.tenant_id AND l.order_id = o.order_id
		WHERE o.tenant_id = 3 ORDER BY o.order_id`)
	expectRows(t, res, "0|widget|2\n1|gadget|2\n2|widget|2")

	// cross-tenant analytics: co-located distributed join, parallel
	res = mustExec(t, s, `SELECT count(*) FROM orders o JOIN order_lines l
		ON o.tenant_id = l.tenant_id AND o.order_id = l.order_id`)
	expectRows(t, res, "18")
}

func TestMultiShardDML(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('t', 'k')")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (k, v) VALUES (%d, %d)", i, i))
	}
	res := mustExec(t, s, "UPDATE t SET v = v + 1000")
	if res.Affected != 40 {
		t.Fatalf("multi-shard update affected %d", res.Affected)
	}
	expectRows(t, mustExec(t, s, "SELECT min(v), max(v) FROM t"), "1000|1039")
	res = mustExec(t, s, "DELETE FROM t WHERE v >= 1020")
	if res.Affected != 20 {
		t.Fatalf("multi-shard delete affected %d", res.Affected)
	}
}

func TestDistributedCopy(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE bulk (id bigint PRIMARY KEY, payload text)")
	mustExec(t, s, "SELECT create_distributed_table('bulk', 'id')")

	rows := make([]types.Row, 1000)
	for i := range rows {
		rows[i] = types.Row{int64(i), fmt.Sprintf("payload-%d", i)}
	}
	n, err := s.CopyFrom("bulk", []string{"id", "payload"}, rows)
	if err != nil || n != 1000 {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM bulk"), "1000")
	expectRows(t, mustExec(t, s, "SELECT payload FROM bulk WHERE id = 567"), "payload-567")
}

func TestInsertSelectStrategies(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE raw (key bigint, day text, n bigint)")
	mustExec(t, s, "CREATE TABLE rollup (key bigint, day text, total bigint)")
	mustExec(t, s, "SELECT create_distributed_table('raw', 'key')")
	mustExec(t, s, "SELECT create_distributed_table('rollup', 'key', colocate_with := 'raw')")
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO raw (key, day, n) VALUES (%d, 'd%d', 1)", i%10, i%3))
	}
	// co-located INSERT..SELECT (rollup pattern, §2.2 / Figure 2)
	res := mustExec(t, s, "EXPLAIN INSERT INTO rollup (key, day, total) SELECT key, day, count(*) FROM raw GROUP BY key, day")
	if !strings.Contains(rowsText(res), "pushdown (co-located)") {
		t.Fatalf("expected co-located insert..select:\n%s", rowsText(res))
	}
	mustExec(t, s, "INSERT INTO rollup (key, day, total) SELECT key, day, count(*) FROM raw GROUP BY key, day")
	expectRows(t, mustExec(t, s, "SELECT sum(total) FROM rollup"), "60")

	// via-coordinator strategy: merge step needed (group by non-dist col)
	mustExec(t, s, "CREATE TABLE byday (day text, total bigint)")
	mustExec(t, s, "SELECT create_distributed_table('byday', 'day')")
	mustExec(t, s, "INSERT INTO byday (day, total) SELECT day, count(*) FROM raw GROUP BY day")
	expectRows(t, mustExec(t, s, "SELECT sum(total) FROM byday"), "60")
}

func TestTwoPhaseCommitAtomicity(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE acc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('acc', 'k')")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO acc (k, v) VALUES (%d, 100)", i))
	}
	// find two keys on different nodes
	k1, k2 := int64(-1), int64(-1)
	for i := int64(0); i < 20 && k2 == -1; i++ {
		sh, err := c.Meta.ShardForValue("acc", i)
		if err != nil {
			t.Fatal(err)
		}
		nodeID, _ := c.Meta.PrimaryPlacement(sh.ID)
		if k1 == -1 {
			k1 = i
			continue
		}
		sh1, _ := c.Meta.ShardForValue("acc", k1)
		node1, _ := c.Meta.PrimaryPlacement(sh1.ID)
		if nodeID != node1 {
			k2 = i
		}
	}
	if k2 == -1 {
		t.Fatal("could not find keys on two nodes")
	}

	// committed multi-node transaction: both updates or neither
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE acc SET v = v - 10 WHERE k = $1", k1)
	mustExec(t, s, "UPDATE acc SET v = v + 10 WHERE k = $1", k2)
	mustExec(t, s, "COMMIT")
	expectRows(t, mustExec(t, s, "SELECT v FROM acc WHERE k = $1", k1), "90")
	expectRows(t, mustExec(t, s, "SELECT v FROM acc WHERE k = $1", k2), "110")

	// rolled-back multi-node transaction leaves no trace
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE acc SET v = 0 WHERE k = $1", k1)
	mustExec(t, s, "UPDATE acc SET v = 0 WHERE k = $1", k2)
	mustExec(t, s, "ROLLBACK")
	expectRows(t, mustExec(t, s, "SELECT v FROM acc WHERE k = $1", k1), "90")
	expectRows(t, mustExec(t, s, "SELECT v FROM acc WHERE k = $1", k2), "110")

	// no dangling prepared transactions
	for _, eng := range c.Engines {
		if p := eng.Txns.ListPrepared(); len(p) != 0 {
			t.Fatalf("dangling prepared transactions on %s: %v", eng.Name, p)
		}
	}
}

func TestDistributedDeadlockDetection(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE dl (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('dl', 'k')")
	// find two keys on different nodes
	k1, k2 := int64(-1), int64(-1)
	for i := int64(0); i < 50 && k2 == -1; i++ {
		sh, _ := c.Meta.ShardForValue("dl", i)
		nodeID, _ := c.Meta.PrimaryPlacement(sh.ID)
		if k1 == -1 {
			k1 = i
			continue
		}
		sh1, _ := c.Meta.ShardForValue("dl", k1)
		node1, _ := c.Meta.PrimaryPlacement(sh1.ID)
		if nodeID != node1 {
			k2 = i
		}
	}
	mustExec(t, s, "INSERT INTO dl (k, v) VALUES ($1, 0), ($2, 0)", k1, k2)

	s1 := c.Session()
	s2 := c.Session()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE dl SET v = 1 WHERE k = $1", k1)
	mustExec(t, s2, "UPDATE dl SET v = 2 WHERE k = $1", k2)

	done := make(chan error, 2)
	go func() {
		_, err := s1.Exec("UPDATE dl SET v = 1 WHERE k = $1", k2)
		done <- err
	}()
	go func() {
		_, err := s2.Exec("UPDATE dl SET v = 2 WHERE k = $1", k1)
		done <- err
	}()
	failures := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				failures++
			}
		case <-time.After(10 * time.Second):
			t.Fatal("distributed deadlock was not detected")
		}
	}
	if failures == 0 {
		t.Fatal("expected the deadlock detector to cancel one transaction")
	}
	s1.Exec("ROLLBACK")
	s2.Exec("ROLLBACK")
}

func TestTwoPhaseCommitRecovery(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE r2pc (k bigint PRIMARY KEY)")
	mustExec(t, s, "SELECT create_distributed_table('r2pc', 'k')")

	// Simulate a coordinator that prepared transactions on workers but
	// crashed before resolving them: create prepared transactions directly
	// on a worker using the coordinator's gid naming.
	w := c.ConnTo(1)
	defer w.Close()
	shard := c.Meta.Shards("r2pc")[0]
	nodeID, _ := c.Meta.PrimaryPlacement(shard.ID)
	w2 := c.ConnTo(nodeID - 1)
	defer w2.Close()

	gidCommit := "citus_1_999_0"
	if _, err := w2.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Query(fmt.Sprintf("INSERT INTO %s (k) VALUES (424242)", shard.ShardName())); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Query(fmt.Sprintf("PREPARE TRANSACTION '%s'", gidCommit)); err != nil {
		t.Fatal(err)
	}
	gidAbort := "citus_1_999_1"
	if _, err := w2.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Query(fmt.Sprintf("INSERT INTO %s (k) VALUES (434343)", shard.ShardName())); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Query(fmt.Sprintf("PREPARE TRANSACTION '%s'", gidAbort)); err != nil {
		t.Fatal(err)
	}

	// the coordinator has a commit record only for the first
	c.Coordinator().AddCommitRecordForTest(gidCommit)

	resolved := c.Coordinator().RecoverTwoPhaseCommits()
	if resolved != 2 {
		t.Fatalf("recovered %d transactions, want 2", resolved)
	}
	res := mustExec(t, s, "SELECT count(*) FROM r2pc")
	expectRows(t, res, "1") // committed one visible, aborted one gone
}

func TestDDLPropagation(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE docs (id bigint PRIMARY KEY, body text)")
	mustExec(t, s, "SELECT create_distributed_table('docs', 'id')")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO docs (id, body) VALUES (%d, 'doc body %d')", i, i))
	}
	// distributed CREATE INDEX
	mustExec(t, s, "CREATE INDEX docs_body_idx ON docs USING gin ((body) gin_trgm_ops)")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM docs WHERE body ILIKE '%body 7%'"), "1")

	// distributed ALTER TABLE ADD COLUMN
	mustExec(t, s, "ALTER TABLE docs ADD COLUMN extra bigint")
	mustExec(t, s, "UPDATE docs SET extra = id * 2 WHERE id = 3")
	expectRows(t, mustExec(t, s, "SELECT extra FROM docs WHERE id = 3"), "6")

	// distributed TRUNCATE
	mustExec(t, s, "TRUNCATE docs")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM docs"), "0")

	// distributed DROP
	mustExec(t, s, "DROP TABLE docs")
	if c.Meta.IsCitusTable("docs") {
		t.Fatal("metadata survived DROP TABLE")
	}
}

func TestShardRebalancer(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE reb (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_distributed_table('reb', 'k')")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO reb (k, v) VALUES (%d, 'x%d')", i, i))
	}
	// force an imbalance: move every shard from node 3 to node 2
	for _, sh := range c.Meta.Shards("reb") {
		nodeID, _ := c.Meta.PrimaryPlacement(sh.ID)
		if nodeID == 3 {
			if err := c.Coordinator().MoveShardPlacement(s, sh.ID, 3, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := placementCounts(c, "reb")
	if counts[3] != 0 {
		t.Fatalf("expected all shards on node 2, got %v", counts)
	}
	// data intact after the moves
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM reb"), "100")

	// now rebalance back to even
	res := mustExec(t, s, "SELECT rebalance_table_shards()")
	moves := res.Rows[0][0].(int64)
	if moves == 0 {
		t.Fatal("rebalancer made no moves")
	}
	counts = placementCounts(c, "reb")
	if counts[2] != 4 || counts[3] != 4 {
		t.Fatalf("expected 4+4 after rebalance, got %v", counts)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM reb"), "100")
	expectRows(t, mustExec(t, s, "SELECT v FROM reb WHERE k = 42"), "x42")
}

func placementCounts(c *cluster.Cluster, table string) map[int]int {
	counts := map[int]int{}
	for _, sh := range c.Meta.Shards(table) {
		nodeID, _ := c.Meta.PrimaryPlacement(sh.ID)
		counts[nodeID]++
	}
	return counts
}

func TestMetadataSyncMXMode(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8, SyncMetadata: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE mx (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('mx', 'k')")
	mustExec(t, s, "INSERT INTO mx (k, v) VALUES (1, 10), (2, 20), (3, 30)")

	// a worker can coordinate distributed queries itself
	ws := c.SessionOn(1)
	expectRows(t, mustExec(t, ws, "SELECT v FROM mx WHERE k = 2"), "20")
	expectRows(t, mustExec(t, ws, "SELECT count(*) FROM mx"), "3")
	mustExec(t, ws, "UPDATE mx SET v = 99 WHERE k = 3")
	expectRows(t, mustExec(t, s, "SELECT v FROM mx WHERE k = 3"), "99")
}

func TestBroadcastAndRepartitionJoins(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE big (id bigint PRIMARY KEY, small_id bigint, v bigint)")
	mustExec(t, s, "CREATE TABLE small (id bigint PRIMARY KEY, label text)")
	mustExec(t, s, "SELECT create_distributed_table('big', 'id')")
	mustExec(t, s, "SELECT create_distributed_table('small', 'id', colocate_with := 'none')")

	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO small (id, label) VALUES (%d, 'label%d')", i, i))
	}
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big (id, small_id, v) VALUES (%d, %d, %d)", i, i%10, i))
	}

	// a non-co-located join: joined on big.small_id = small.id (not both
	// distribution columns) — the join-order planner must move data
	res := mustExec(t, s, `SELECT s.label, count(*) FROM big b JOIN small s ON b.small_id = s.id GROUP BY s.label ORDER BY s.label`)
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 labels, got %d: %v", len(res.Rows), res.Rows)
	}
	expectRows(t, mustExec(t, s,
		"SELECT count(*) FROM big b JOIN small s ON b.small_id = s.id WHERE s.label = 'label3'"), "20")

	// explain names the strategy: shipping the 10 rows of small to both
	// workers (20) costs less than repartitioning both tables (210)
	res = mustExec(t, s, "EXPLAIN SELECT count(*) FROM big b JOIN small s ON b.small_id = s.id")
	txt := rowsText(res)
	if !strings.Contains(txt, "broadcast join, small") {
		t.Fatalf("expected a broadcast of small in the plan:\n%s", txt)
	}
}

func TestStoredProcedureDelegation(t *testing.T) {
	c := newCluster(t, 2)
	// register the procedure on every node (as an extension would)
	for _, eng := range c.Engines {
		eng.RegisterProcedure("add_payment", func(s *engine.Session, args []types.Datum) error {
			_, err := s.Exec("UPDATE wh SET total = total + $1 WHERE w_id = $2", args[1], args[0])
			return err
		})
	}
	s := c.Session()
	mustExec(t, s, "CREATE TABLE wh (w_id bigint PRIMARY KEY, total bigint)")
	mustExec(t, s, "SELECT create_distributed_table('wh', 'w_id')")
	mustExec(t, s, "INSERT INTO wh (w_id, total) VALUES (1, 0), (2, 0)")
	// metadata must be synced for workers to run distributed procedures
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker1')")
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker2')")
	for _, node := range c.Nodes {
		node.RegisterDistributedProcedure("add_payment", citus.DistProcedure{
			ArgIndex: 0, ColocatedWith: "wh",
		})
	}
	mustExec(t, s, "CALL add_payment(1, 50)")
	mustExec(t, s, "CALL add_payment(2, 70)")
	expectRows(t, mustExec(t, s, "SELECT total FROM wh WHERE w_id = 1"), "50")
	expectRows(t, mustExec(t, s, "SELECT total FROM wh WHERE w_id = 2"), "70")
}

// TestDelegatedCallBindsParams: a CALL whose distribution argument is a
// parameter routes on the bound value, and the worker that owns that value's
// shard runs it with the parameters shipped along.
func TestDelegatedCallBindsParams(t *testing.T) {
	c := newCluster(t, 2)
	var mu sync.Mutex
	ranOn := map[string]int{}
	for _, eng := range c.Engines {
		eng.RegisterProcedure("add_payment", func(s *engine.Session, args []types.Datum) error {
			mu.Lock()
			ranOn[s.Eng.Name]++
			mu.Unlock()
			_, err := s.Exec("UPDATE wh SET total = total + $1 WHERE w_id = $2", args[1], args[0])
			return err
		})
	}
	s := c.Session()
	mustExec(t, s, "CREATE TABLE wh (w_id bigint PRIMARY KEY, total bigint)")
	mustExec(t, s, "SELECT create_distributed_table('wh', 'w_id')")
	key := keysOnWorkers(t, c, "wh", 1)[0]
	mustExec(t, s, "INSERT INTO wh (w_id, total) VALUES ($1, 0)", key)
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker1')")
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker2')")
	for _, node := range c.Nodes {
		node.RegisterDistributedProcedure("add_payment", citus.DistProcedure{ArgIndex: 0, ColocatedWith: "wh"})
	}
	mustExec(t, s, "CALL add_payment($1, $2)", key, int64(50))
	expectRows(t, mustExec(t, s, "SELECT total FROM wh WHERE w_id = $1", key), "50")
	sh, err := c.Meta.ShardForValue("wh", key)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := c.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{c.Engines[owner-1].Name: 1}; fmt.Sprint(ranOn) != fmt.Sprint(want) {
		t.Fatalf("the procedure ran on %v, want once on the owner of key %d, %v", ranOn, key, want)
	}
	// a distribution argument that needs a subquery is not routed on: the
	// coordinator runs the CALL, the subquery in its transaction, which commits
	mustExec(t, s, "CALL add_payment((SELECT w_id FROM wh), 7)")
	if s.Txn() != nil {
		t.Fatal("an autocommit CALL left its transaction open")
	}
	expectRows(t, mustExec(t, c.Session(), "SELECT total FROM wh WHERE w_id = $1", key), "57")
	if got := ranOn[c.Engines[0].Name]; got != 1 {
		t.Fatalf("the procedure ran %d times on the coordinator, want once", got)
	}
}

// TestCallIsOneTransaction: the statements of a procedure run in its CALL's
// transaction, whether the coordinator runs the CALL or delegates it to the
// worker that owns its distribution argument: a procedure that writes two
// rows and then fails leaves neither, and one that succeeds leaves both.
func TestCallIsOneTransaction(t *testing.T) {
	c := newCluster(t, 2)
	for _, eng := range c.Engines {
		eng.RegisterProcedure("put_two", func(s *engine.Session, args []types.Datum) error {
			for i, k := range args[:2] {
				if _, err := s.Exec("INSERT INTO ct (k, v) VALUES ($1, $2)", k, int64(i)); err != nil {
					return err
				}
			}
			if args[2].(bool) {
				return fmt.Errorf("put_two fails after its inserts")
			}
			return nil
		})
	}
	s := c.Session()
	mustExec(t, s, "CREATE TABLE ct (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('ct', 'k')")
	keys := keysOnWorkers(t, c, "ct", 4)
	// the coordinator runs the CALL: two inserts, one per worker
	if _, err := s.Exec(fmt.Sprintf("CALL put_two(%d, %d, true)", keys[0], keys[1])); err == nil {
		t.Fatal("the failing procedure succeeded")
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ct"), "0")
	mustExec(t, s, fmt.Sprintf("CALL put_two(%d, %d, false)", keys[0], keys[1]))
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ct"), "2")

	// delegated: the worker that owns the first argument runs the CALL
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker1')")
	mustExec(t, s, "SELECT start_metadata_sync_to_node('worker2')")
	for _, node := range c.Nodes {
		node.RegisterDistributedProcedure("put_two", citus.DistProcedure{ArgIndex: 0, ColocatedWith: "ct"})
	}
	if _, err := s.Exec(fmt.Sprintf("CALL put_two(%d, %d, true)", keys[2], keys[3])); err == nil {
		t.Fatal("the failing delegated procedure succeeded")
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ct"), "2")
	mustExec(t, s, fmt.Sprintf("CALL put_two(%d, %d, false)", keys[2], keys[3]))
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM ct"), "4")
}

// keysOnWorkers returns n distinct keys of table, alternating between the
// cluster's two workers.
func keysOnWorkers(t *testing.T, c *cluster.Cluster, table string, n int) []int64 {
	t.Helper()
	var keys []int64
	for k := int64(1); len(keys) < n && k < 10000; k++ {
		sh, err := c.Meta.ShardForValue(table, k)
		if err != nil {
			t.Fatal(err)
		}
		if node, err := c.Meta.PrimaryPlacement(sh.ID); err == nil && node == 2+len(keys)%2 {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d keys of %s alternating between the workers", len(keys), table)
	}
	return keys
}

func TestSingleNodeCluster(t *testing.T) {
	// "the smallest possible Citus cluster is a single server" (§3.2)
	c := newCluster(t, 0)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE solo (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('solo', 'k')")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO solo (k, v) VALUES (%d, %d)", i, i))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM solo"), "30|435")
	expectRows(t, mustExec(t, s, "SELECT v FROM solo WHERE k = 11"), "11")
}

func TestClusterOverTCP(t *testing.T) {
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE tcp_t (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_distributed_table('tcp_t', 'k')")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tcp_t (k, v) VALUES (%d, 'v%d')", i, i))
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM tcp_t"), "20")
	expectRows(t, mustExec(t, s, "SELECT v FROM tcp_t WHERE k = 13"), "v13")

	// a real client connection over TCP
	conn := c.Conn()
	defer conn.Close()
	res, err := conn.Query("SELECT v FROM tcp_t WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if types.Format(res.Rows[0][0]) != "v7" {
		t.Fatalf("bad result over TCP: %v", res.Rows)
	}
}

func TestConsistentRestorePoint(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE rp (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('rp', 'k')")
	mustExec(t, s, "INSERT INTO rp (k, v) VALUES (1, 1), (2, 2), (3, 3)")
	c.Checkpoint()

	mustExec(t, s, "SELECT create_restore_point('before_disaster')")
	mustExec(t, s, "UPDATE rp SET v = v * 100")
	c.Checkpoint()

	// every node has the restore point in its WAL
	for _, eng := range c.Engines {
		if _, err := eng.WAL.FindRestorePoint("before_disaster"); err != nil {
			t.Fatalf("node %s: %v", eng.Name, err)
		}
	}
	// and the cluster as of the point comes back from base + tail
	restored, err := c.RestoreToPoint("before_disaster")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	expectRows(t, mustExec(t, restored.Session(), "SELECT sum(v) FROM rp"), "6")
}

// TestDistributedDropIndex: DROP INDEX of a distributed table's index drops
// it from every shard placement and from the shell table, and the next
// CREATE INDEX of the name builds it again everywhere.
func TestDistributedDropIndex(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE dd (id bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('dd', 'id')")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO dd VALUES (%d, %d)", i, i%4))
	}
	shardIndexes := func() int {
		n := 0
		for _, sh := range c.Meta.Shards("dd") {
			for _, nodeID := range c.Meta.Placements(sh.ID) {
				for _, node := range c.Nodes {
					if _, ok := node.Eng.Catalog.IndexTable(fmt.Sprintf("dd_v_%d", sh.ID)); ok && node.ID == nodeID {
						n++
					}
				}
			}
		}
		return n
	}
	mustExec(t, s, "CREATE INDEX dd_v ON dd (v)")
	if n := shardIndexes(); n != len(c.Meta.Shards("dd")) {
		t.Fatalf("%d shard placements have dd_v, want one per shard (%d)", n, len(c.Meta.Shards("dd")))
	}
	mustExec(t, s, "DROP INDEX dd_v")
	if n := shardIndexes(); n != 0 {
		t.Fatalf("%d shard placements still have dd_v", n)
	}
	if _, ok := c.Coordinator().Eng.Catalog.IndexTable("dd_v"); ok {
		t.Fatal("the shell table still has dd_v")
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM dd WHERE v = 1"), "10")
	mustExec(t, s, "DROP INDEX IF EXISTS dd_v")
	if _, err := s.Exec("DROP INDEX dd_v"); err == nil {
		t.Fatal("DROP INDEX of a dropped index succeeded")
	}
	mustExec(t, s, "CREATE INDEX dd_v ON dd (v)")
	if n := shardIndexes(); n != len(c.Meta.Shards("dd")) {
		t.Fatalf("after CREATE INDEX again, %d shard placements have dd_v", n)
	}

	// an index name in use on another table is refused before any shard of
	// the second table gets an index, so DROP INDEX dd_v names one table
	mustExec(t, s, "CREATE TABLE de (id bigint PRIMARY KEY, w bigint)")
	mustExec(t, s, "SELECT create_distributed_table('de', 'id')")
	if _, err := s.Exec("CREATE INDEX dd_v ON de (w)"); err == nil {
		t.Fatal("CREATE INDEX dd_v ON de succeeded beside dd's dd_v")
	}
	mustExec(t, s, "CREATE INDEX IF NOT EXISTS dd_v ON de (w)")
	for _, sh := range c.Meta.Shards("de") {
		for _, node := range c.Nodes {
			if _, ok := node.Eng.Catalog.IndexTable(fmt.Sprintf("dd_v_%d", sh.ID)); ok {
				t.Fatalf("node %d has dd_v on de's shard %d", node.ID, sh.ID)
			}
		}
	}
	if table, _ := c.Coordinator().Eng.Catalog.IndexTable("dd_v"); table != "dd" {
		t.Fatalf("dd_v is on %q, want dd", table)
	}
}
