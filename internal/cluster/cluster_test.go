package cluster

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/jsonb"
	"citusgo/internal/obs"
	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
)

func TestBootAndTopology(t *testing.T) {
	c, err := New(Config{Workers: 3, ShardCount: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumNodes() != 4 {
		t.Fatalf("nodes = %d", c.NumNodes())
	}
	nodes := c.Meta.Nodes()
	if len(nodes) != 4 || !nodes[0].IsCoordinator || nodes[1].IsCoordinator {
		t.Fatalf("topology: %+v", nodes)
	}
	if c.Coordinator().ID != 1 {
		t.Fatalf("coordinator id = %d", c.Coordinator().ID)
	}
	workers := c.Meta.WorkerNodes()
	if len(workers) != 3 {
		t.Fatalf("workers = %d", len(workers))
	}
}

func TestZeroWorkerClusterUsesCoordinatorAsWorker(t *testing.T) {
	c, err := New(Config{Workers: 0, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	workers := c.Meta.WorkerNodes()
	if len(workers) != 1 || workers[0].ID != 1 {
		t.Fatalf("0+1 cluster workers: %+v", workers)
	}
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE z (k bigint PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT create_distributed_table('z', 'k')"); err != nil {
		t.Fatal(err)
	}
	for _, sh := range c.Meta.Shards("z") {
		nodeID, _ := c.Meta.PrimaryPlacement(sh.ID)
		if nodeID != 1 {
			t.Fatalf("shard placed on node %d in a 0+1 cluster", nodeID)
		}
	}
}

func TestNetworkRTTOnlyBetweenDistinctNodes(t *testing.T) {
	c, err := New(Config{Workers: 1, ShardCount: 2, NetworkRTT: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// loopback (coordinator to itself) pays nothing: five statements in under
	// a millisecond, where one charged RTT alone is two. A charged RTT is a
	// sleep no attempt can beat, so the best of a few attempts keeps a
	// scheduler stall on a loaded host from reading as one.
	self := c.ConnTo(0)
	defer self.Close()
	best := time.Hour
	for attempt := 0; attempt < 10 && best >= time.Millisecond; attempt++ {
		start := time.Now()
		for i := 0; i < 5; i++ {
			if _, err := self.Query("SELECT 1"); err != nil {
				t.Fatal(err)
			}
		}
		best = min(best, time.Since(start))
	}
	if best >= time.Millisecond {
		t.Fatalf("loopback connection paid network RTT: 5 statements took %v at best", best)
	}
}

func TestSessionsAreIndependent(t *testing.T) {
	c, err := New(Config{Workers: 1, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s1 := c.Session()
	s2 := c.Session()
	if _, err := s1.Exec("CREATE TABLE i (k bigint PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if s2.InTransaction() {
		t.Fatal("transaction state leaked across sessions")
	}
	if _, err := s1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestConnSpeaksToCluster(t *testing.T) {
	c, err := New(Config{Workers: 2, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.Conn()
	defer conn.Close()
	if _, err := conn.Query("CREATE TABLE viaconn (k bigint PRIMARY KEY, v text)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT create_distributed_table('viaconn', 'k')"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("INSERT INTO viaconn (k, v) VALUES (5, 'five')"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT v FROM viaconn WHERE k = 5")
	if err != nil || types.Format(res.Rows[0][0]) != "five" {
		t.Fatalf("query via conn: %v %v", res, err)
	}
}

// TestRouterResultForwardedUndecoded: over TCP a one-task plan's rows reach
// the client as the worker encoded them. The coordinator reads the row count
// for the command tag and nothing else, so its row-decode counter stands
// still, while a fan-out that merges on the coordinator moves it by the rows
// it merged; and the client's rows are, byte for byte, the shard's.
func TestRouterResultForwardedUndecoded(t *testing.T) {
	c, err := New(Config{Workers: 2, ShardCount: 4, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := c.Conn()
	defer conn.Close()
	for _, q := range []string{
		"CREATE TABLE fw (k bigint PRIMARY KEY, v text, n double precision, at timestamp, d jsonb)",
		"SELECT create_distributed_table('fw', 'k')",
	} {
		if _, err := conn.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for k := int64(0); k < 16; k++ {
		if _, err := conn.Query("INSERT INTO fw (k, v, n, at, d) VALUES ($1, $2, $3, $4, $5)",
			k, "value", float64(k)/3, time.Date(2021, 1, 1, 0, 0, int(k), 0, time.UTC),
			jsonb.MustParse(`{"k": [1, 2, {"deep": true}]}`)); err != nil {
			t.Fatal(err)
		}
	}
	decoded := func() int64 { return obs.Default().Snapshot().Sum("engine_result_rows_decoded_total") }
	encode := func(res *engine.Result) []byte {
		b, err := rowbatch.Append(nil, res.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	const key = int64(7)
	before := decoded()
	viaCoordinator, err := conn.Query("SELECT * FROM fw WHERE k = $1", key) // warm: plans and prepares
	if err == nil {
		viaCoordinator, err = conn.Query("SELECT * FROM fw WHERE k = $1", key)
	}
	if err != nil || len(viaCoordinator.Rows) != 1 || viaCoordinator.Tag != "SELECT 1" || viaCoordinator.Rows[0][0] != types.Datum(key) {
		t.Fatalf("router SELECT: %+v %v", viaCoordinator, err)
	}
	if moved := decoded() - before; moved != 0 {
		t.Fatalf("two router SELECTs made the coordinator decode %d rows", moved)
	}
	// a write with RETURNING is a one-task plan too
	if res, err := conn.Query("UPDATE fw SET v = 'new' WHERE k = $1 RETURNING k, v", key); err != nil ||
		res.Affected != 1 || len(res.Rows) != 1 || res.Rows[0][1] != types.Datum("new") {
		t.Fatalf("UPDATE RETURNING: %+v %v", res, err)
	}

	shard, err := c.Meta.ShardForValue("fw", key)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := c.Meta.PrimaryPlacement(shard.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct := c.ConnTo(owner - 1)
	defer direct.Close()
	viaCoordinator, err = conn.Query("SELECT * FROM fw WHERE k = $1", key)
	if err != nil {
		t.Fatal(err)
	}
	fromShard, err := direct.Query("SELECT * FROM "+shard.ShardName()+" WHERE k = $1", key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(viaCoordinator), encode(fromShard)) || !reflect.DeepEqual(viaCoordinator.Columns, fromShard.Columns) {
		t.Fatalf("through the coordinator %v %v, from the shard %v %v", viaCoordinator.Columns, viaCoordinator.Rows, fromShard.Columns, fromShard.Rows)
	}

	// the in-process entry point decodes at its boundary: callers read Rows
	before = decoded()
	res, err := c.Session().Exec("SELECT * FROM fw WHERE k = $1", key)
	if err != nil || len(res.Rows) != 1 || !bytes.Equal(encode(res), encode(fromShard)) {
		t.Fatalf("Session.Exec: %+v %v", res, err)
	}
	if moved := decoded() - before; moved != 1 {
		t.Fatalf("Session.Exec of a router SELECT decoded %d rows, want 1", moved)
	}
	// and a multi-task plan decodes what it merges
	before = decoded()
	if res, err := conn.Query("SELECT k FROM fw ORDER BY k"); err != nil || len(res.Rows) != 16 {
		t.Fatalf("fan-out: %+v %v", res, err)
	}
	if moved := decoded() - before; moved != 16 {
		t.Fatalf("a 16-row fan-out decoded %d rows on the coordinator", moved)
	}
}

// TestSecondCrashOfARestartedWorker: a restarted worker's log carries on
// from what it recovered from — base image and tail — so a crash of the new
// incarnation, after checkpoints of its own, loses nothing from before the
// first.
func TestSecondCrashOfARestartedWorker(t *testing.T) {
	c, err := New(Config{Workers: 2, ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	exec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, v bigint)")
	exec(t, s, "SELECT create_distributed_table('kv', 'k')")
	exec(t, s, "CREATE TABLE ev (k bigint, v bigint) USING columnar")
	exec(t, s, "SELECT create_distributed_table('ev', 'k')")
	write := func(round int64) {
		t.Helper()
		for k := int64(0); k < 40; k++ {
			exec(t, s, "INSERT INTO kv (k, v) VALUES ($1, $2) ON CONFLICT (k) DO UPDATE SET v = $2", k, round)
			exec(t, s, "INSERT INTO ev (k, v) VALUES ($1, $2)", k, round)
		}
	}
	check := func(rounds int64) {
		t.Helper()
		res := exec(t, c.Session(), "SELECT count(*), sum(v) FROM kv")
		if res.Rows[0][0].(int64) != 40 || res.Rows[0][1].(int64) != 40*rounds {
			t.Fatalf("kv after round %d: %v", rounds, res.Rows)
		}
		res = exec(t, c.Session(), "SELECT count(*), sum(v) FROM ev")
		if res.Rows[0][0].(int64) != 40*rounds || res.Rows[0][1].(int64) != 40*rounds*(rounds+1)/2 {
			t.Fatalf("ev after round %d: %v", rounds, res.Rows)
		}
	}
	for round := int64(1); round <= 3; round++ {
		write(round)
		if round != 2 { // one incarnation crashes with a tail above its base, one without
			c.Checkpoint()
			exec(t, s, "UPDATE kv SET v = v WHERE k = 0")
		}
		for w := 1; w <= 2; w++ {
			if err := c.CrashWorker(w); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartWorker(w); err != nil {
				t.Fatal(err)
			}
		}
		s = c.Session()
		check(round)
	}
	if c.Engines[1].WAL.FirstLSN() == 1 {
		t.Fatal("no worker log was ever cut")
	}
}
