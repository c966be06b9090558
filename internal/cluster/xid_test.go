package cluster

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/types"
)

// nodeXIDs reads txn_xids_assigned_total and txn_clog_bytes of each of the
// cluster's primaries, in engine order.
func nodeXIDs(c *Cluster) (xids, clog []int64) {
	snap := obs.Default().Snapshot()
	for _, e := range c.Engines {
		xids = append(xids, snap.Get(`txn_xids_assigned_total{node="`+e.Name+`"}`))
		clog = append(clog, snap.Get(`txn_clog_bytes{node="`+e.Name+`"}`))
	}
	return xids, clog
}

// quietXIDCluster boots an in-process 2-worker cluster with every daemon
// parked, so that only the statements a test runs take XIDs.
func quietXIDCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{Workers: 2, ShardCount: shards, AutoVacuumInterval: -1,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDeadlockPollTakesNoXID: on an idle 2-worker cluster, 50 polls of the
// distributed deadlock detector — each a citus_node_wait_edges() on every
// worker — leave every node's count of assigned XIDs where it was.
func TestDeadlockPollTakesNoXID(t *testing.T) {
	c := quietXIDCluster(t, 4)
	before, _ := nodeXIDs(c)
	for i := 0; i < 50; i++ {
		if victim := c.Coordinator().CheckDistributedDeadlock(); victim != "" {
			t.Fatalf("an idle cluster has a deadlock victim %q", victim)
		}
	}
	after, _ := nodeXIDs(c)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("50 deadlock polls took %d XIDs on %s", after[i]-before[i], c.Engines[i].Name)
		}
	}
}

// keysByNode returns, for each worker node ID, the keys of tb among 0..99
// that live on it.
func keysByNode(t *testing.T, c *Cluster, table string) map[int][]int64 {
	t.Helper()
	keys := map[int][]int64{}
	for k := int64(0); k < 100; k++ {
		sh, err := c.Meta.ShardForValue(table, k)
		if err != nil {
			t.Fatal(err)
		}
		node, err := c.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			t.Fatal(err)
		}
		keys[node] = append(keys[node], k)
	}
	return keys
}

// TestStatementXIDs counts the XIDs each statement shape takes on each node
// of an in-process 2-worker cluster with 16 shards, over runs of each, and
// pins them: reads take none anywhere; a write takes one on each worker it
// writes on and none on the coordinator, which writes nothing of its own.
// The commit log grows by at most a quarter byte an XID, plus one 8 KiB page
// per range of XIDs a node uses.
func TestStatementXIDs(t *testing.T) {
	const runs = 20
	c := quietXIDCluster(t, 16)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE tb (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('tb', 'k')")
	for k := 0; k < 100; k++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO tb (k, v) VALUES (%d, 0)", k))
	}
	keys := keysByNode(t, c, "tb")
	w1, w2 := keys[2], keys[3]
	if len(w1) < 2 || len(w2) < 1 {
		t.Fatalf("keys by node: %v", keys)
	}
	copyRows := make([]types.Row, 0, 64)
	next := int64(1000)

	shapes := []struct {
		name string
		run  func(*engine.Session)
		// want is the XIDs per run on the coordinator, worker 1 and worker 2
		want [3]int64
	}{
		{"point SELECT", func(s *engine.Session) {
			mustExec(t, s, fmt.Sprintf("SELECT v FROM tb WHERE k = %d", w1[0]))
		}, [3]int64{0, 0, 0}},
		{"point UPDATE", func(s *engine.Session) {
			mustExec(t, s, fmt.Sprintf("UPDATE tb SET v = v + 1 WHERE k = %d", w1[0]))
		}, [3]int64{0, 1, 0}},
		{"local BEGIN; UPDATE; UPDATE; COMMIT", func(s *engine.Session) {
			mustExec(t, s, "BEGIN")
			mustExec(t, s, fmt.Sprintf("UPDATE tb SET v = v + 1 WHERE k = %d", w1[0]))
			mustExec(t, s, fmt.Sprintf("UPDATE tb SET v = v + 1 WHERE k = %d", w1[1]))
			mustExec(t, s, "COMMIT")
		}, [3]int64{0, 1, 0}},
		{"cross-node BEGIN; UPDATE; UPDATE; COMMIT", func(s *engine.Session) {
			mustExec(t, s, "BEGIN")
			mustExec(t, s, fmt.Sprintf("UPDATE tb SET v = v + 1 WHERE k = %d", w1[0]))
			mustExec(t, s, fmt.Sprintf("UPDATE tb SET v = v + 1 WHERE k = %d", w2[0]))
			mustExec(t, s, "COMMIT")
		}, [3]int64{0, 1, 1}},
		{"16-task fan-out SELECT", func(s *engine.Session) {
			mustExec(t, s, "SELECT count(*), sum(v) FROM tb")
		}, [3]int64{0, 0, 0}},
		{"COPY batch", func(s *engine.Session) {
			copyRows = copyRows[:0]
			for i := 0; i < 64; i++ {
				copyRows = append(copyRows, types.Row{next, int64(0)})
				next++
			}
			if _, err := s.CopyFrom("tb", []string{"k", "v"}, copyRows); err != nil {
				t.Fatal(err)
			}
		}, [3]int64{0, 1, 1}},
	}
	var report []string
	for _, sh := range shapes {
		before, _ := nodeXIDs(c)
		for i := 0; i < runs; i++ {
			sh.run(s)
		}
		after, _ := nodeXIDs(c)
		var got [3]int64
		for i := range got {
			got[i] = (after[i] - before[i]) / runs
			if (after[i]-before[i])%runs != 0 {
				t.Errorf("%s: %d XIDs on %s over %d runs, not a whole number a run",
					sh.name, after[i]-before[i], c.Engines[i].Name, runs)
			}
		}
		report = append(report, fmt.Sprintf("%-40s coordinator %d, worker1 %d, worker2 %d", sh.name, got[0], got[1], got[2]))
		if got != sh.want {
			t.Errorf("%s: XIDs a run (coordinator, worker1, worker2) = %v, want %v", sh.name, got, sh.want)
		}
	}
	t.Logf("XIDs a run:\n%s", strings.Join(report, "\n"))

	xids, clog := nodeXIDs(c)
	for i, e := range c.Engines {
		// one range (the node's own, from XID 2): one page holds it until
		// 32 768 XIDs, and each page after that holds 32 768 more
		bound := xids[i]/4 + 8192
		if clog[i] != int64(e.Txns.ClogBytes()) || clog[i] > bound {
			t.Errorf("%s: commit log of %d bytes (gauge %d) after %d XIDs, bound %d",
				e.Name, e.Txns.ClogBytes(), clog[i], xids[i], bound)
		}
	}
}

// TestCoordinatorReaderHoldsVacuum: a REPEATABLE READ block of SELECTs run
// through the coordinator keeps its first snapshot on the worker, whose
// member transaction takes no XID, while another session updates the row and
// the worker vacuums: the block still reads the old version.
func TestCoordinatorReaderHoldsVacuum(t *testing.T) {
	c := quietXIDCluster(t, 4)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE hv (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_distributed_table('hv', 'k')")
	mustExec(t, s, "INSERT INTO hv (k, v) VALUES (1, 'old')")
	sh, err := c.Meta.ShardForValue("hv", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	node, _ := c.Meta.PrimaryPlacement(sh.ID)
	worker := c.Engines[node-1]

	reader := c.Session()
	read := func() string {
		t.Helper()
		res, err := reader.Exec("SELECT v FROM hv WHERE k = 1")
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("read: %v %v", res, err)
		}
		return res.Rows[0][0].(string)
	}
	mustExec(t, reader, "SET TRANSACTION ISOLATION LEVEL REPEATABLE READ")
	mustExec(t, reader, "BEGIN")
	if v := read(); v != "old" {
		t.Fatalf("first read %q", v)
	}
	before, _ := nodeXIDs(c)
	mustExec(t, s, "UPDATE hv SET v = 'new' WHERE k = 1")
	if n := worker.Vacuum(""); n != 0 {
		t.Fatalf("the worker's vacuum reclaimed %d versions an open block still reads", n)
	}
	if v := read(); v != "old" {
		t.Fatalf("the block read %q after the update and vacuum, want the old version", v)
	}
	after, _ := nodeXIDs(c)
	if d := after[node-1] - before[node-1]; d != 1 {
		t.Fatalf("%s took %d XIDs for one update beside a reading block, want 1", worker.Name, d)
	}
	mustExec(t, reader, "COMMIT")
	if n := worker.Vacuum(""); n != 1 {
		t.Fatalf("vacuum after the block ended reclaimed %d versions, want 1", n)
	}
	if v := read(); v != "new" {
		t.Fatalf("a read after the block read %q", v)
	}
}

// TestReplicaReadTakesNoXID: point reads routed to a standby take no XID
// there, from its own range or its primary's, and leave its commit log as
// replication made it.
func TestReplicaReadTakesNoXID(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 20)
	defer c.Close()
	var standbys []*engine.Engine
	for _, n := range c.Meta.Nodes() {
		if n.Standby {
			standbys = append(standbys, c.StandbyEngine(n.ID))
		}
	}
	if len(standbys) == 0 {
		t.Fatal("no standbys")
	}
	key := func(e *engine.Engine) string { return `txn_xids_assigned_total{node="` + e.Name + `"}` }
	snap := obs.Default().Snapshot()
	xids, clog := map[string]int64{}, map[string]int{}
	for _, e := range standbys {
		xids[e.Name], clog[e.Name] = snap.Get(key(e)), e.Txns.ClogBytes()
	}
	replicaReads := func() int64 {
		return obs.Default().Snapshot().Get(`executor_routed_reads_total{placement="standby"}`)
	}
	routed := replicaReads()
	s := c.Session()
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT v FROM r WHERE k = %d", i%20))
	}
	if replicaReads() == routed {
		t.Fatal("no read was routed to a standby")
	}
	snap = obs.Default().Snapshot()
	for _, e := range standbys {
		if got := snap.Get(key(e)); got != xids[e.Name] {
			t.Errorf("%s took %d XIDs serving reads", e.Name, got-xids[e.Name])
		}
		if got := e.Txns.ClogBytes(); got != clog[e.Name] {
			t.Errorf("%s's commit log grew from %d to %d bytes serving reads", e.Name, clog[e.Name], got)
		}
	}
}
