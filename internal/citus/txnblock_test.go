package citus_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// blockCluster boots a cluster with the daemons off, so that every request
// a worker sees comes from the statements of the test.
func blockCluster(t *testing.T, workers int, cfg citus.Config) *cluster.Cluster {
	t.Helper()
	cfg.DeadlockInterval, cfg.RecoveryInterval = -1, -1
	c, err := cluster.New(cluster.Config{Workers: workers, ShardCount: 16, Citus: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// keysOnNodes returns, for each node ID asked for, a key of table whose shard
// is placed there.
func keysOnNodes(t *testing.T, c *cluster.Cluster, table string, nodeIDs ...int) []int64 {
	t.Helper()
	keys := make([]int64, len(nodeIDs))
	for i, want := range nodeIDs {
		found := false
		for k := int64(0); k < 10000 && !found; k++ {
			sh, err := c.Meta.ShardForValue(table, k)
			if err != nil {
				t.Fatal(err)
			}
			if node, err := c.Meta.PrimaryPlacement(sh.ID); err == nil && node == want {
				keys[i], found = k, true
			}
		}
		if !found {
			t.Fatalf("no key of %s lives on node %d", table, want)
		}
	}
	return keys
}

func counterDelta(before, after obs.Snapshot, key string) int64 {
	return after.Get(key) - before.Get(key)
}

// noConnCheckedOut fails the test if a statement's end left a connection to
// one of the nodes outside its pool.
func noConnCheckedOut(t *testing.T, c *cluster.Cluster, nodeIDs ...int) {
	t.Helper()
	for _, id := range nodeIDs {
		if total, idle := c.Coordinator().PoolStats(id); total != idle {
			t.Errorf("node %d: %d connections open, %d idle: one was neither pooled nor discarded", id, total, idle)
		}
	}
}

// TestBlockOpenFailureExecutesNothing: the transaction block opens inside
// the request that needs it, so a block that cannot be opened costs exactly
// the requests that asked for it — whatever the window, and with further
// tasks already on the wire behind the refused one. A multi-shard UPDATE puts
// eight tasks on each worker's one connection; the open is made to fail by a
// session that is already inside another block, and by a fault in the
// engine. No refused task changes a row, inside a block or outside one; the
// statement fails; the connection is discarded.
func TestBlockOpenFailureExecutesNothing(t *testing.T) {
	defer fault.Reset()
	const updates = `engine_statements_total{kind="update"}`
	for _, window := range []int{1, 8} {
		for _, tc := range []struct {
			name string
			// workerUpdates is how many tasks may execute (inside their block,
			// to be rolled back with it); -1 when that depends on the window
			workerUpdates int64
			discards      int64
			arrange       func(t *testing.T, c *cluster.Cluster)
		}{
			{"session inside another block", 8, 1, func(t *testing.T, c *cluster.Cluster) {
				p, err := c.Coordinator().PoolForTest(2)
				if err != nil {
					t.Fatal(err)
				}
				conn, err := p.Get()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Query("BEGIN"); err != nil {
					t.Fatal(err)
				}
				p.Put(conn)
			}},
			{"engine fault at every open", 0, 2, func(*testing.T, *cluster.Cluster) {
				fault.Arm(fault.Rule{Point: fault.PointEngineBlockOpen, Action: fault.ActError})
			}},
			// The request behind the refused one opens the block itself and
			// runs inside it: the statement still fails, and the rollback
			// takes that task's work with it.
			{"engine fault at the first open", -1, 1, func(*testing.T, *cluster.Cluster) {
				fault.Arm(fault.Rule{Point: fault.PointEngineBlockOpen, Action: fault.ActError, Count: 1})
			}},
		} {
			t.Run(fmt.Sprintf("window %d/%s", window, tc.name), func(t *testing.T) {
				fault.Reset()
				c := blockCluster(t, 2, citus.Config{MaxSharedPoolSize: 1, PipelineWindow: window})
				s := c.Session()
				mustExec(t, s, "CREATE TABLE bo (k bigint PRIMARY KEY, v bigint)")
				mustExec(t, s, "SELECT create_distributed_table('bo', 'k')")
				rows := make([]types.Row, 0, 64)
				for k := int64(0); k < 64; k++ {
					rows = append(rows, types.Row{k, k})
				}
				if _, err := s.CopyFrom("bo", []string{"k", "v"}, rows); err != nil {
					t.Fatal(err)
				}
				sum := func() string { return rowsText(mustExec(t, c.Session(), "SELECT sum(v) FROM bo")) }
				want := sum()

				tc.arrange(t, c)
				before := obs.Default().Snapshot()
				mustExec(t, s, "BEGIN")
				_, err := s.Exec("UPDATE bo SET v = v + 1")
				if !errors.Is(err, wire.ErrBlockRefused) {
					t.Fatalf("multi-shard UPDATE whose block cannot open: %v, want ErrBlockRefused", err)
				}
				fault.Reset()
				mustExec(t, s, "ROLLBACK")
				after := obs.Default().Snapshot()

				// one UPDATE is the coordinator's own statement
				if got := counterDelta(before, after, updates) - 1; tc.workerUpdates >= 0 && got != tc.workerUpdates {
					t.Errorf("%d tasks executed on the workers, want %d", got, tc.workerUpdates)
				}
				if got := sum(); got != want {
					t.Errorf("sum(v) = %s after the failed statement, want %s: a task ran outside the block", got, want)
				}
				if got := after.Sum("pool_discards_total") - before.Sum("pool_discards_total"); got != tc.discards {
					t.Errorf("pool_discards_total moved by %d, want %d", got, tc.discards)
				}
				noConnCheckedOut(t, c, 2, 3)

				// the next checkouts work, and the same statement commits
				mustExec(t, s, "BEGIN")
				mustExec(t, s, "UPDATE bo SET v = v + 1")
				mustExec(t, s, "COMMIT")
				if got := sum(); got == want {
					t.Error("the cluster did not take the same statement afterwards")
				}
			})
		}
	}
}

// ddlCluster boots one worker behind one pooled connection, in process or
// over TCP, with table name(k, v) holding (1, 10), and returns a session on
// the worker and the name of the row's shard there.
func ddlCluster(t *testing.T, tcp bool, name string) (c *cluster.Cluster, worker *engine.Session, shard string) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: 1, ShardCount: 4, UseTCP: tcp,
		Citus: citus.Config{MaxSharedPoolSize: 1, DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE "+name+" (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('"+name+"', 'k')")
	mustExec(t, s, "INSERT INTO "+name+" (k, v) VALUES (1, 10)")
	sh, err := c.Meta.ShardForValue(name, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	return c, c.SessionOn(1), sh.ShardName()
}

// TestDDLBetweenExecutions: a task travels as its text, and what keeps the
// worker from parsing a repeated text again is its session's statement cache
// alone. DDL on the worker between two executions of one text makes the
// cached tree stale; the session parses the text again where it finds it and
// executes it once, against the new schema: no error, no retry, no connection
// lost — in process and over TCP.
func TestDDLBetweenExecutions(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			c, worker, shard := ddlCluster(t, tcp, "dbe")
			s := c.Session()
			const read = "SELECT * FROM dbe WHERE k = $1"
			res := mustExec(t, s, read, int64(1)) // cached by the worker's one session
			if got := fmt.Sprint(res.Columns, " ", rowsText(res)); got != "[k v] 1|10" {
				t.Fatalf("before the DDL: %s", got)
			}
			for i, ddl := range []string{
				"ALTER TABLE " + shard + " ADD COLUMN w bigint",
				"CREATE INDEX dbe_v ON " + shard + " (v)",
			} {
				mustExec(t, worker, ddl)
				before := obs.Default().Snapshot()
				res = mustExec(t, s, read, int64(1))
				after := obs.Default().Snapshot()
				if got := fmt.Sprint(res.Columns, " ", rowsText(res)); got != "[k v w] 1|10|NULL" {
					t.Errorf("after DDL %d: %s, want the new column", i, got)
				}
				for name, want := range map[string]int64{
					"engine_plancache_invalidations":         1, // the worker's session; the coordinator's saw no DDL
					`engine_statements_total{kind="select"}`: 2, // the coordinator's statement and one execution of its task
					"executor_task_retries_total":            0,
					"pool_discards_total":                    0,
				} {
					if got := after.Sum(name) - before.Sum(name); got != want {
						t.Errorf("after DDL %d: %s moved by %d, want %d", i, name, got, want)
					}
				}
			}
			// what follows a re-parse is a hit again
			before := obs.Default().Snapshot()
			mustExec(t, s, read, int64(1))
			after := obs.Default().Snapshot()
			if got := counterDelta(before, after, "engine_plancache_hits"); got != 2 {
				t.Errorf("execution after the re-parse: engine_plancache_hits moved by %d, want 2 (coordinator and worker)", got)
			}
		})
	}
}

// TestStalePlanInsideBlock: DDL lands between a statement's first execution
// and its next, which is the first statement of a transaction. The worker's
// session finds its parse tree stale only after the request has entered the
// block, parses the text again there, and the write lands inside the block,
// once; the statement after it runs in the same block.
func TestStalePlanInsideBlock(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			c, worker, shard := ddlCluster(t, tcp, "spb")
			s := c.Session()
			const update = "UPDATE spb SET v = v + $1 WHERE k = $2"
			mustExec(t, s, update, int64(0), int64(1)) // cached by the worker's one session
			mustExec(t, worker, "CREATE TABLE spb_bump (x bigint)")
			committed := func() string { // what the worker shows a session outside the block
				return rowsText(mustExec(t, worker, "SELECT v FROM "+shard+" WHERE k = 1"))
			}

			// one execution on each side, of a text the worker parses again
			updateOnce := func() {
				t.Helper()
				before := obs.Default().Snapshot()
				mustExec(t, s, update, int64(5), int64(1))
				after := obs.Default().Snapshot()
				if inv, upd := counterDelta(before, after, "engine_plancache_invalidations"), counterDelta(before, after, `engine_statements_total{kind="update"}`); inv != 1 || upd != 2 {
					t.Errorf("UPDATE after DDL: %d stale trees parsed again, %d UPDATE statements executed; want 1 and 2", inv, upd)
				}
			}
			before := obs.Default().Snapshot()
			mustExec(t, s, "BEGIN")
			updateOnce()
			if got := committed(); got != "10" {
				t.Errorf("outside the block v = %s, want 10: the write after the DDL was autocommitted", got)
			}
			mustExec(t, worker, "CREATE TABLE spb_bump2 (x bigint)") // and once more, inside the block
			updateOnce()
			expectRows(t, mustExec(t, s, "SELECT v FROM spb WHERE k = 1"), "20") // inside the block
			if got := committed(); got != "10" {
				t.Errorf("outside the block v = %s, want 10: a statement after the DDL left the block", got)
			}
			mustExec(t, s, "COMMIT")
			if got := committed(); got != "20" {
				t.Errorf("after COMMIT v = %s, want 20: a write landed other than once", got)
			}
			after := obs.Default().Snapshot()
			for name, want := range map[string]int64{"dtxn_single_node_commits_total": 1, "pool_discards_total": 0} {
				if got := after.Sum(name) - before.Sum(name); got != want {
					t.Errorf("%s moved by %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestPooledConnCarriesNoTxnState: a distributed transaction's id and
// isolation level belong to its block on the worker, not to the worker
// session, so they are gone when the connection goes back to the pool —
// there is no reset to forget or to fail. After a serializable transaction,
// the same pooled connection serves another session's autocommit read: that
// read's transaction has no dist_txn_id in citus_stat_activity() and is not
// SSI-tracked.
func TestPooledConnCarriesNoTxnState(t *testing.T) {
	c := blockCluster(t, 1, citus.Config{MaxSharedPoolSize: 1})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pc', 'k')")
	mustExec(t, s, "INSERT INTO pc (k, v) VALUES (1, 10)")
	worker := c.SessionOn(1)
	// what the worker shows of its transactions (the asking statement's is
	// never among them)
	workerTxns := func() (distIDs []string, ssiActive int) {
		res := mustExec(t, worker, "SELECT citus_node_stat_activity()")
		for _, r := range res.Rows {
			if r[3].(string) == "active" {
				distIDs = append(distIDs, r[2].(string))
			}
		}
		for _, ss := range c.Engines[1].SSISessions() {
			if ss.State == "active" {
				ssiActive++
			}
		}
		return distIDs, ssiActive
	}

	mustExec(t, s, "SET transaction_isolation = 'serializable'")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE pc SET v = v + 1 WHERE k = 1")
	mustExec(t, worker, "BEGIN")
	ids, tracked := workerTxns()
	if len(ids) != 1 || ids[0] == "" || tracked != 1 {
		t.Fatalf("inside the serializable transaction the worker shows dist ids %q, %d SSI-tracked; want its one id, tracked", ids, tracked)
	}
	mustExec(t, s, "COMMIT")

	// A worker-local transaction holds the row's lock, so the locking read
	// below stops mid-statement, where it can be looked at.
	sh, err := c.Meta.ShardForValue("pc", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, worker, fmt.Sprintf("UPDATE %s SET v = v WHERE k = 1", sh.ShardName()))
	dials := obs.Default().Snapshot().Sum("pool_dials_total")
	done := make(chan error, 1)
	go func() {
		_, err := c.Session().Exec("SELECT v FROM pc WHERE k = 1 FOR UPDATE")
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ids, tracked = workerTxns()
		if len(ids) == 1 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("the locking read did not wait for the row lock: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the locking read never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	if ids[0] != "" || tracked != 0 {
		t.Errorf("autocommit read on the pooled connection: dist_txn_id %q, %d SSI-tracked; want none of either", ids[0], tracked)
	}
	mustExec(t, worker, "ROLLBACK")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Snapshot().Sum("pool_dials_total"); got != dials {
		t.Errorf("the read dialed %d new connections: it was to reuse the transaction's", got-dials)
	}
}

// TestImplicitTxnKeepsPinnedConns: a procedure the coordinator runs itself
// under an autocommit CALL is one implicit transaction of several statements.
// Its multi-shard write pins connections, and the reads behind it run on them
// outside transactional mode — the session is in no explicit block. The
// connections stay the transaction's until it commits: none goes back to the
// pool in between, where another session could be handed it inside this
// transaction, and each is handed back once.
func TestImplicitTxnKeepsPinnedConns(t *testing.T) {
	c := blockCluster(t, 2, citus.Config{MaxSharedPoolSize: 2})
	checkedOut := func() (out [2]int) {
		for i := range out {
			total, idle := c.Coordinator().PoolStats(i + 2) // the workers are nodes 2 and 3
			out[i] = total - idle
		}
		return out
	}
	var pinned, afterPoint, afterFanOut [2]int
	c.Engines[0].RegisterProcedure("bump_all", func(s *engine.Session, _ []types.Datum) error {
		if _, err := s.Exec("UPDATE ip SET v = v + 1"); err != nil {
			return err
		}
		pinned = checkedOut()
		if _, err := s.Exec("SELECT v FROM ip WHERE k = 1"); err != nil {
			return err
		}
		afterPoint = checkedOut()
		_, err := s.Exec("SELECT count(*) FROM ip")
		afterFanOut = checkedOut()
		return err
	})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE ip (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('ip', 'k')")
	for k := 0; k < 32; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ip (k, v) VALUES (%d, 0)", k))
	}
	mustExec(t, s, "CALL bump_all()")
	if pinned[0] == 0 || pinned[1] == 0 {
		t.Fatalf("the multi-shard UPDATE pinned %v connections per worker, want some on each", pinned)
	}
	if afterPoint != pinned || afterFanOut != pinned {
		t.Errorf("connections checked out per worker: %v after the UPDATE, %v after the point read, %v after the fan-out; the transaction is to keep its own", pinned, afterPoint, afterFanOut)
	}
	noConnCheckedOut(t, c, 2, 3)
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM ip"), "32|32")
	noConnCheckedOut(t, c, 2, 3)
}

// TestCommitFlightTransportErrorsDiscard: a participant whose request in a
// commit-protocol flight fails at transport level is discarded, never pooled
// — the COMMIT of a read-only participant and the ROLLBACK PREPARED after a
// failed prepare included, whose errors used to be dropped on the floor and
// their connections recycled with a response unread. Each loses exactly that
// response; afterwards pool_discards_total has moved and the next checkouts
// work.
func TestCommitFlightTransportErrorsDiscard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := blockCluster(t, 3, citus.Config{MaxSharedPoolSize: 1})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE cf (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('cf', 'k')")
	keys := keysOnNodes(t, c, "cf", 2, 3, 4)
	for _, k := range keys {
		mustExec(t, s, "INSERT INTO cf (k, v) VALUES ($1, 0)", k)
	}
	values := func() string {
		return rowsText(mustExec(t, c.Session(), "SELECT v FROM cf WHERE k = $1 OR k = $2 OR k = $3 ORDER BY v", keys[0], keys[1], keys[2]))
	}

	// Participants take their places in a flight in node order, and the only
	// requests of kind "query" between BEGIN and the end of COMMIT are the
	// commit protocol's: wire.recv counts them in flight order.
	t.Run("COMMIT of a read-only participant", func(t *testing.T) {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "SELECT v FROM cf WHERE k = $1", keys[0]) // node 2 only reads
		mustExec(t, s, "UPDATE cf SET v = 1 WHERE k = $1", keys[1])
		mustExec(t, s, "UPDATE cf SET v = 1 WHERE k = $1", keys[2])
		before := obs.Default().Snapshot()
		fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
		mustExec(t, s, "COMMIT") // the writers decide; the reader has nothing to lose
		if fault.Fired(fault.PointWireRecv) != 1 {
			t.Fatal("the drop never fired")
		}
		fault.Reset()
		after := obs.Default().Snapshot()
		if got := counterDelta(before, after, `pool_discards_total{node="node-2"}`); got != 1 {
			t.Errorf("the reader's connection was discarded %d times, want 1", got)
		}
		if got := counterDelta(before, after, "dtxn_2pc_commits_total"); got != 1 {
			t.Errorf("dtxn_2pc_commits_total moved by %d, want 1", got)
		}
		noConnCheckedOut(t, c, 2, 3, 4)
		if got := values(); got != "0\n1\n1" {
			t.Errorf("values after the commit: %q", got)
		}
	})

	t.Run("ROLLBACK PREPARED after a failed prepare", func(t *testing.T) {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "UPDATE cf SET v = 2 WHERE k = $1", keys[1])
		mustExec(t, s, "UPDATE cf SET v = 2 WHERE k = $1", keys[2])
		before := obs.Default().Snapshot()
		// node 4's prepare fails before it is sent; node 3 prepared, and the
		// response to its ROLLBACK PREPARED — the second "query" read — is lost
		fault.Arm(fault.Rule{Point: fault.Point2PCPrepare, Key: "4", Action: fault.ActError, Count: 1})
		fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, After: 1, Count: 1})
		if _, err := s.Exec("COMMIT"); err == nil {
			t.Fatal("COMMIT succeeded with a failed prepare")
		}
		if fault.Fired(fault.PointWireRecv) != 1 || fault.Fired(fault.Point2PCPrepare) != 1 {
			t.Fatalf("faults fired: recv %d, prepare %d; want 1 and 1", fault.Fired(fault.PointWireRecv), fault.Fired(fault.Point2PCPrepare))
		}
		fault.Reset()
		after := obs.Default().Snapshot()
		for _, node := range []string{"node-3", "node-4"} {
			if got := counterDelta(before, after, `pool_discards_total{node="`+node+`"}`); got != 1 {
				t.Errorf("%s: connection discarded %d times, want 1", node, got)
			}
		}
		if got := counterDelta(before, after, "dtxn_2pc_aborts_total"); got != 1 {
			t.Errorf("dtxn_2pc_aborts_total moved by %d, want 1", got)
		}
		noConnCheckedOut(t, c, 2, 3, 4)
		// node 3 did roll back (only the answer was lost), node 4's open
		// block died with its connection
		if got := values(); got != "0\n1\n1" {
			t.Errorf("values after the abort: %q", got)
		}
		for i, eng := range c.Engines {
			if n := len(eng.Txns.ListPrepared()); n != 0 {
				t.Errorf("engine %d: %d prepared transactions left", i, n)
			}
		}
	})

	// and the pools hand out working connections
	sess := c.Session()
	mustExec(t, sess, "BEGIN")
	for _, k := range keys {
		mustExec(t, sess, "UPDATE cf SET v = 3 WHERE k = $1", k)
	}
	mustExec(t, sess, "COMMIT")
	if got := values(); got != "3\n3\n3" {
		t.Errorf("values after a clean three-node commit: %q", got)
	}
}
