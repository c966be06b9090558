package cluster

import (
	"fmt"
	"testing"

	"citusgo/internal/repl"
	"citusgo/internal/wire"
)

// tcpCluster boots a 2-worker cluster whose nodes listen on loopback, with
// table r holding rows keys 0..rows-1.
func tcpCluster(t *testing.T, replication int, rows int) *Cluster {
	t.Helper()
	c, err := New(Config{Workers: 2, ShardCount: 4, UseTCP: true,
		ReplicationFactor: replication, ReplicationMode: repl.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	exec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v bigint)")
	exec(t, s, "SELECT create_distributed_table('r', 'k')")
	for k := 0; k < rows; k++ {
		exec(t, s, "INSERT INTO r (k, v) VALUES ($1, $2)", int64(k), int64(k))
	}
	return c
}

// countOverTCP counts r's rows through a TCP client of the coordinator.
func countOverTCP(t *testing.T, c *Cluster) (int64, error) {
	t.Helper()
	conn := c.Conn()
	defer conn.Close()
	res, err := conn.Query("SELECT count(*) FROM r")
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].(int64), nil
}

// TestTCPCrashAndRestart: a worker of a cluster whose nodes listen on TCP
// crashes — its server and every connection to it go — and restarts behind a
// new listener, which every node dials from then on.
func TestTCPCrashAndRestart(t *testing.T) {
	c := tcpCluster(t, 0, 20)
	before := c.server(2).Addr()
	if err := c.CrashWorker(1); err != nil {
		t.Fatal(err)
	}
	if _, err := countOverTCP(t, c); err == nil {
		t.Fatal("a fan-out over a crashed worker succeeded")
	}
	if _, err := c.ConnTo(1).Query("SELECT 1"); !wire.IsTransient(err) {
		t.Fatalf("a SELECT 1 on a crashed worker: %v, want the refusal as a ConnError", err)
	}
	if err := c.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	if after := c.server(2).Addr(); after == "" || after == before {
		t.Fatalf("restarted worker listens on %q (before the crash: %q)", after, before)
	}
	exec(t, c.Session(), "INSERT INTO r (k, v) SELECT k + 20, v FROM r")
	if n, err := countOverTCP(t, c); err != nil || n != 40 {
		t.Fatalf("after the restart: %d rows, %v; want 40", n, err)
	}
	if _, err := c.ConnTo(1).Query("SELECT 1"); err != nil {
		t.Fatalf("the restarted worker over TCP: %v", err)
	}
}

// TestTCPFailoverAndRejoin: with nodes on TCP and one standby per worker, a
// worker fails over to its standby, and the old primary comes back as the
// standby of the promoted node, behind a server of its own, caught up.
func TestTCPFailoverAndRejoin(t *testing.T) {
	c := tcpCluster(t, 1, 20)
	promoted, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Session()
	for k := 20; k < 30; k++ {
		exec(t, s, "INSERT INTO r (k, v) VALUES ($1, $2)", int64(k), int64(k))
	}
	if err := c.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	if node, ok := c.Meta.Node(2); !ok || !node.Standby || node.StandbyOf != promoted || node.Down {
		t.Fatalf("node 2 after the rejoin: %+v, want a live standby of node %d", node, promoted)
	}
	exec(t, s, "UPDATE r SET v = v + 1") // a sync commit: the rejoined standby acks it
	if n, err := countOverTCP(t, c); err != nil || n != 30 {
		t.Fatalf("after the rejoin: %d rows, %v; want 30", n, err)
	}
	standby, primary := c.ConnTo(1), c.server(promoted)
	if standby.Node() != c.Engines[1].Name || c.server(2).Addr() == "" {
		t.Fatalf("the rejoined standby is not served over TCP: %q at %q", standby.Node(), c.server(2).Addr())
	}
	defer standby.Close()
	for _, sh := range c.Meta.Shards("r") {
		q := fmt.Sprintf("SELECT count(*), sum(v) FROM %s", sh.ShardName())
		want, err := primary.Eng.NewSession().Exec(q)
		if err != nil {
			continue // a shard of the other worker
		}
		got, err := standby.Query(q)
		if err != nil || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s on the rejoined standby: %v, %v; on the promoted primary: %v", sh.ShardName(), got, err, want.Rows)
		}
	}
}
