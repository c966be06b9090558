package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
)

// replCluster boots a replicated 2-worker cluster and creates a seeded
// distributed table.
func replCluster(t *testing.T, mode repl.Mode, rows int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Workers:           2,
		ShardCount:        4,
		ReplicationFactor: 1,
		ReplicationMode:   mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE r (k bigint PRIMARY KEY, v bigint)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT create_distributed_table('r', 'k')"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO r (k, v) VALUES (%d, %d)", i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestReplicatedClusterBootsStandbys(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 0)
	defer c.Close()
	// 1 coordinator + 2 workers + 2 standbys in the catalog; standbys are
	// not workers
	if got := len(c.Meta.Nodes()); got != 5 {
		t.Fatalf("catalog nodes = %d, want 5", got)
	}
	if got := len(c.Meta.WorkerNodes()); got != 2 {
		t.Fatalf("workers = %d, want 2", got)
	}
	for _, sh := range c.Meta.Shards("r") {
		rows := c.Meta.PlacementRows(sh.ID)
		if len(rows) != 2 {
			t.Fatalf("shard %d placements: %+v", sh.ID, rows)
		}
	}
}

// TestSyncReplicationShipsDDLAndRows proves the standby engines converge:
// after sync-mode writes, every standby holds the shard tables and rows its
// primary does.
func TestSyncReplicationShipsDDLAndRows(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 20)
	defer c.Close()
	var grandTotal int64
	for sbID, eng := range c.standbys {
		sess := eng.NewSession()
		for _, sh := range c.Meta.Shards("r") {
			var primaryID int
			onThisStandby := false
			for _, p := range c.Meta.PlacementRows(sh.ID) {
				if p.NodeID == sbID {
					onThisStandby = true
				}
				if p.Role == metadata.RolePrimary {
					primaryID = p.NodeID
				}
			}
			if !onThisStandby {
				continue
			}
			res, err := sess.Exec("SELECT count(*) FROM " + sh.ShardName())
			if err != nil {
				t.Fatalf("standby %d missing shard %s: %v", sbID, sh.ShardName(), err)
			}
			got := res.Rows[0][0].(int64)
			pres, err := c.Engines[primaryID-1].NewSession().Exec("SELECT count(*) FROM " + sh.ShardName())
			if err != nil {
				t.Fatal(err)
			}
			if want := pres.Rows[0][0].(int64); got != want {
				t.Fatalf("standby %d shard %s holds %d rows, primary holds %d", sbID, sh.ShardName(), got, want)
			}
			grandTotal += got
		}
	}
	if grandTotal != 20 {
		t.Fatalf("standbys hold %d rows total, want 20", grandTotal)
	}
	// LSN alignment: standby logs append the same records in the same order
	// as their primaries (replicated DDL must not self-log a second copy),
	// which is what lets a re-parented standby resume by position.
	for sbID, eng := range c.standbys {
		node, ok := c.Meta.Node(sbID)
		if !ok {
			t.Fatalf("standby %d missing from catalog", sbID)
		}
		primary := c.Engines[node.StandbyOf-1]
		if got, want := eng.WAL.LastLSN(), primary.WAL.LastLSN(); got != want {
			t.Fatalf("standby %d WAL at LSN %d, primary %s at %d — logs diverged", sbID, got, primary.Name, want)
		}
	}
}

// TestReplicaReadRouting proves reads fan out: with replica-aware routing,
// repeated single-shard reads split between the primary and its standby.
func TestReplicaReadRouting(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 10)
	defer c.Close()
	pre := obs.Default().Snapshot()
	s := c.Session()
	for i := 0; i < 40; i++ {
		res, err := s.Exec(fmt.Sprintf("SELECT v FROM r WHERE k = %d", i%10))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64((i%10)*10) {
			t.Fatalf("read %d returned %v", i, res.Rows)
		}
	}
	d := obs.Default().Snapshot().Delta(pre)
	primary := d.Get(`executor_routed_reads_total{placement="primary"}`)
	standby := d.Get(`executor_routed_reads_total{placement="standby"}`)
	if standby == 0 || primary == 0 {
		t.Fatalf("routed reads primary=%d standby=%d: reads did not fan out", primary, standby)
	}
}

// TestReadYourWritesInTransaction: reads inside an explicit transaction
// stay on the primary, so a session always sees its own uncommitted writes.
func TestReadYourWritesInTransaction(t *testing.T) {
	c := replCluster(t, repl.ModeAsync, 0)
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO r (k, v) VALUES (100, 1)")
	res, err := s.Exec("SELECT v FROM r WHERE k = 100")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read-your-writes failed: %v %v", res, err)
	}
	mustExec(t, s, "COMMIT")
}

// TestFailoverPromotesStandby: crash a worker, promote, and verify the
// promoted standby serves every committed row with the catalog flipped.
func TestFailoverPromotesStandby(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 20)
	defer c.Close()
	v := c.Meta.Version()
	newID, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.Version() == v {
		t.Fatal("failover did not bump the metadata version")
	}
	node, ok := c.Meta.Node(newID)
	if !ok || node.Standby || node.Down {
		t.Fatalf("promoted node %d not a healthy primary: %+v", newID, node)
	}
	// every row is still readable through the coordinator
	s := c.Session()
	for i := 0; i < 20; i++ {
		res, err := s.Exec(fmt.Sprintf("SELECT v FROM r WHERE k = %d", i))
		if err != nil {
			t.Fatalf("post-failover read k=%d: %v", i, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i*10) {
			t.Fatalf("post-failover read k=%d returned %v", i, res.Rows)
		}
	}
	// and writes to shards owned by the promoted node succeed
	for i := 20; i < 30; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO r (k, v) VALUES (%d, %d)", i, i*10)); err != nil {
			t.Fatalf("post-failover write k=%d: %v", i, err)
		}
	}
	res, err := s.Exec("SELECT count(*) FROM r")
	if err != nil || res.Rows[0][0].(int64) != 30 {
		t.Fatalf("post-failover count: %v %v", res, err)
	}
}

// TestHealthProbeAutoFailover: the health loop detects a crashed worker and
// fails over without an explicit Failover call.
func TestHealthProbeAutoFailover(t *testing.T) {
	c, err := New(Config{
		Workers:           2,
		ShardCount:        4,
		ReplicationFactor: 1,
		ReplicationMode:   repl.ModeSync,
		HealthInterval:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE h (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('h', 'k')")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO h (k, v) VALUES (%d, %d)", i, i))
	}
	if err := c.CrashWorker(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if node, ok := c.Meta.Node(2); ok && node.Standby && node.Down {
			break // old primary demoted: auto-failover ran
		}
		if time.Now().After(deadline) {
			t.Fatal("health prober never failed the crashed worker over")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		res, err := s.Exec(fmt.Sprintf("SELECT v FROM h WHERE k = %d", i))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("read k=%d after auto-failover: %v %v", i, res, err)
		}
	}
}

// TestPromotionRaceStress hammers replica-routed reads while the primary
// crashes and its standby is promoted mid-stream. Reads may fail
// transiently during the crash window, but every read that succeeds must
// return the correct committed value — a wrong value would mean a read
// executed against a stale plan after the role-flip version bump, or was
// served by a placement that lost a committed write. Run under -race this
// also shakes out catalog/executor data races on the promotion path.
func TestPromotionRaceStress(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 20)
	defer c.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var badRead atomic.Value
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.Session()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % 20
				res, err := s.Exec(fmt.Sprintf("SELECT v FROM r WHERE k = %d", k))
				if err != nil {
					continue // crash-window failures are expected
				}
				if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(k*10) {
					badRead.Store(fmt.Sprintf("k=%d returned %v", k, res.Rows))
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // readers in flight
	v := c.Meta.Version()
	if _, err := c.Failover(1); err != nil {
		t.Fatal(err)
	}
	if c.Meta.Version() == v {
		t.Fatal("promotion did not bump the metadata version")
	}
	time.Sleep(10 * time.Millisecond) // post-promotion reads under load
	close(stop)
	wg.Wait()
	if m := badRead.Load(); m != nil {
		t.Fatalf("read returned wrong data during promotion: %v", m)
	}
	s := c.Session()
	for i := 0; i < 20; i++ {
		res, err := s.Exec(fmt.Sprintf("SELECT v FROM r WHERE k = %d", i))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i*10) {
			t.Fatalf("post-promotion read k=%d: %v %v", i, res, err)
		}
	}
}

func mustExec(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	if _, err := s.Exec(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// TestStandbyTakesPrimaryBases: a standby never checkpoints itself. Its log
// is its primary's, record for record, so the primary's base goes under it
// too — the image shared, not copied — and its log is cut the same way. A
// failover then promotes an engine whose log is base + tail, and the
// promoted node takes its own checkpoints from there.
func TestStandbyTakesPrimaryBases(t *testing.T) {
	c := replCluster(t, repl.ModeSync, 40)
	defer c.Close()
	primary := c.Engines[1]
	sbID := c.Meta.StandbysOf(2)[0]
	standby := c.StandbyEngine(sbID)
	if standby.Checkpoint() {
		t.Fatal("a standby took a checkpoint of its own")
	}
	if !primary.Checkpoint() {
		t.Fatal("primary refused to checkpoint")
	}
	for deadline := time.Now().Add(5 * time.Second); standby.WAL.Base() != primary.WAL.Base(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the standby's log sits on base %p, the primary's on %p", standby.WAL.Base(), primary.WAL.Base())
		}
	}
	if standby.WAL.Len() != 0 || standby.WAL.FirstLSN() != primary.WAL.FirstLSN() {
		t.Fatalf("standby log: %d records from LSN %d; primary's starts at %d",
			standby.WAL.Len(), standby.WAL.FirstLSN(), primary.WAL.FirstLSN())
	}

	s := c.Session()
	mustExec(t, s, "UPDATE r SET v = v + 1")
	promoted, err := c.Failover(1)
	if err != nil || promoted != sbID {
		t.Fatalf("failover: node %d, %v", promoted, err)
	}
	mustExec(t, s, "UPDATE r SET v = v + 1")
	if !standby.Checkpoint() || standby.WAL.Len() != 0 {
		t.Fatalf("the promoted node's checkpoint left %d records", standby.WAL.Len())
	}
	res, err := c.Session().Exec("SELECT count(*), sum(v) FROM r")
	if err != nil || res.Rows[0][0].(int64) != 40 || res.Rows[0][1].(int64) != 39*40/2*10+80 {
		t.Fatalf("after failover: %v, %v", res, err)
	}
	// the old primary comes back under a primary that has cut past it
	if err := c.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE r SET v = v + 1")
	rejoined := c.StandbyEngine(2)
	for _, sh := range c.Meta.Shards("r") {
		if node, _ := c.Meta.PrimaryPlacement(sh.ID); node != sbID {
			continue
		}
		q := "SELECT count(*), sum(v) FROM " + sh.ShardName()
		want, err := standby.NewSession().Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rejoined.NewSession().Exec(q)
		if err != nil || got.Rows[0][0] != want.Rows[0][0] || got.Rows[0][1] != want.Rows[0][1] {
			t.Fatalf("%s on the rejoined standby: %v, %v; on its primary: %v", sh.ShardName(), got, err, want.Rows)
		}
	}
}

// TestSyncCommitLatency: on an idle replicated cluster a sync-mode commit
// costs the standby's apply time and nothing on top. The median single-row
// insert under sync replication, measured interleaved with async
// replication so both see the same host, stays under 300 µs or within twice
// the async median, whichever is larger: the second bound covers a loaded
// or instrumented (-race) run where every insert is slow. A sync wait that
// polled would pay the host's sleep floor, up to a millisecond, per commit.
func TestSyncCommitLatency(t *testing.T) {
	const n = 300
	modes := []repl.Mode{repl.ModeSync, repl.ModeAsync}
	sessions := make([]*engine.Session, len(modes))
	lat := make([][]time.Duration, len(modes))
	for i, mode := range modes {
		c := replCluster(t, mode, 0)
		defer c.Close()
		sessions[i] = c.Session()
	}
	for k := 0; k < n; k++ {
		for i, s := range sessions {
			start := time.Now()
			if _, err := s.Exec("INSERT INTO r (k, v) VALUES ($1, $1)", int64(k)); err != nil {
				t.Fatal(err)
			}
			lat[i] = append(lat[i], time.Since(start))
		}
	}
	med := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	syncMed, asyncMed := med(lat[0]), med(lat[1])
	t.Logf("median insert: sync %v, async %v", syncMed, asyncMed)
	if bound := max(300*time.Microsecond, 2*asyncMed); syncMed > bound {
		t.Fatalf("a sync-mode insert takes %v at the median, over %v (async-mode %v)", syncMed, bound, asyncMed)
	}
}
