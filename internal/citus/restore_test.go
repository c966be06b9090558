package citus_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/fault"
)

// TestClusterRestoreToPoint exercises the full §3.9 flow: a consistent
// restore point is created across all nodes, more writes land after it,
// and restoring the cluster yields exactly the pre-point state — including
// resolving a transaction that was prepared (with a durable commit record)
// but not yet committed on the worker when the point was taken.
func TestClusterRestoreToPoint(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE facts (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('facts', 'k')")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO facts (k, v) VALUES (%d, %d)", i, i))
	}

	// a multi-node transaction fully committed before the point
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE facts SET v = 1000 WHERE k = 1")
	mustExec(t, s, "UPDATE facts SET v = 2000 WHERE k = 2")
	mustExec(t, s, "COMMIT")

	// an in-flight 2PC: prepared on a worker, commit record durable on the
	// coordinator, COMMIT PREPARED not yet delivered (the crash window)
	shard, err := c.Meta.ShardForValue("facts", int64(5))
	if err != nil {
		t.Fatal(err)
	}
	nodeID, _ := c.Meta.PrimaryPlacement(shard.ID)
	wc := c.ConnTo(nodeID - 1)
	defer wc.Close()
	gid := "citus_1_777_0"
	for _, q := range []string{
		"BEGIN",
		fmt.Sprintf("UPDATE %s SET v = 5555 WHERE k = 5", shard.ShardName()),
		fmt.Sprintf("PREPARE TRANSACTION '%s'", gid),
	} {
		if _, err := wc.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	c.Coordinator().AddCommitRecordForTest(gid)

	// A base under every node, with the 2PC in flight: the restore below is
	// base image + tail up to the point, the prepared transaction's records
	// and the commit record among what the cut had to leave.
	if n := c.Checkpoint(); n != len(c.Engines) {
		t.Fatalf("%d of %d nodes took the checkpoint", n, len(c.Engines))
	}
	mustExec(t, s, "SELECT create_restore_point('backup_2026_07')")

	// resolve the in-flight 2PC and write more data — all after the point
	if _, err := wc.Query(fmt.Sprintf("COMMIT PREPARED '%s'", gid)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE facts SET v = 9999 WHERE k = 9")
	mustExec(t, s, "INSERT INTO facts (k, v) VALUES (100, 100)")
	// Every node takes a newer base, whose image holds the writes above; the
	// restore point keeps the one it was made over and restores from that.
	if n := c.Checkpoint(); n != len(c.Engines) {
		t.Fatalf("%d of %d nodes took a base above the restore point", n, len(c.Engines))
	}

	restored, err := c.RestoreToPoint("backup_2026_07")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rs := restored.Session()

	// pre-point multi-node transaction: fully present
	expectRows(t, mustExec(t, rs, "SELECT v FROM facts WHERE k = 1"), "1000")
	expectRows(t, mustExec(t, rs, "SELECT v FROM facts WHERE k = 2"), "2000")
	// post-point writes: gone
	expectRows(t, mustExec(t, rs, "SELECT v FROM facts WHERE k = 9"), "9")
	expectRows(t, mustExec(t, rs, "SELECT count(*) FROM facts WHERE k = 100"), "0")
	// the prepared-at-point transaction was completed by 2PC recovery
	// using the durable commit record
	expectRows(t, mustExec(t, rs, "SELECT v FROM facts WHERE k = 5"), "5555")
	// no dangling prepared transactions anywhere
	for _, eng := range restored.Engines {
		if p := eng.Txns.ListPrepared(); len(p) != 0 {
			t.Fatalf("node %s still has prepared transactions: %v", eng.Name, p)
		}
	}
	expectRows(t, mustExec(t, rs, "SELECT count(*) FROM facts"), "30")
}

// TestRestorePointNeedsEveryNode: a restore point is consistent only if
// every active node has it, so a node the coordinator cannot get a
// connection to fails create_restore_point, naming the node.
func TestRestorePointNeedsEveryNode(t *testing.T) {
	defer fault.Reset()
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fault.Arm(fault.Rule{Point: fault.PointPoolCheckout, Key: "node-3", Action: fault.ActError, Count: 1})
	_, err = c.Session().Exec("SELECT create_restore_point('rp')")
	if err == nil || !strings.Contains(err.Error(), "node 3") {
		t.Fatalf("create_restore_point with node 3 unreachable: %v, want an error naming node 3", err)
	}
	if _, ferr := c.Engines[2].WAL.FindRestorePoint("rp"); ferr == nil {
		t.Fatal("node 3 has the restore point its checkout failed for")
	}
	// with every node reachable the point is made everywhere
	mustExec(t, c.Session(), "SELECT create_restore_point('rp2')")
	for _, eng := range c.Engines {
		if _, err := eng.WAL.FindRestorePoint("rp2"); err != nil {
			t.Fatalf("%s: %v", eng.Name, err)
		}
	}
}

// TestCloseWaitsForDaemons: Node.Close returns only once a deadlock poll
// already in flight has finished. Otherwise a closed cluster's poll goes on
// calling nodes, and can take a one-shot fault rule armed by the next test,
// as TestRestorePointNeedsEveryNode's pool.checkout rule.
func TestCloseWaitsForDaemons(t *testing.T) {
	defer fault.Reset()
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4,
		Citus: citus.Config{DeadlockInterval: 5 * time.Millisecond, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arrived, release := fault.ArmGate(fault.PointNodeCall, "citus_node_wait_edges")
	defer release(nil)
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("no deadlock poll reached node.call")
	}
	closed := make(chan struct{})
	go func() {
		for _, n := range c.Nodes {
			n.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a deadlock poll was parked")
	case <-time.After(100 * time.Millisecond):
	}
	release(nil)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the poll was released")
	}
}

func TestCitusTablesView(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE d1 (k bigint PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE r1 (k bigint PRIMARY KEY)")
	mustExec(t, s, "SELECT create_distributed_table('d1', 'k')")
	mustExec(t, s, "SELECT create_reference_table('r1')")
	res := mustExec(t, s, "SELECT citus_tables()")
	if len(res.Rows) != 2 {
		t.Fatalf("citus_tables rows: %v", res.Rows)
	}
	txt := rowsText(res)
	if !contains(txt, "d1|distributed|k") || !contains(txt, "r1|reference|<none>") {
		t.Fatalf("citus_tables content:\n%s", txt)
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && index(haystack, needle) >= 0
}

func index(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}
