package soak

import (
	"fmt"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/fault"
	"citusgo/internal/repl"
)

// TestQuiesce2PCCountsThePromotedPrimary: after a failover and rejoin, a
// transaction prepared on the promoted node, too young for the first
// recovery pass and not yet replicated to the rejoined standby that sits in
// the victim's slot of cluster.Engines, must hold the quiesce until recovery
// has resolved it.
func TestQuiesce2PCCountsThePromotedPrimary(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	c, err := cluster.New(cluster.Config{
		Workers: 2, ShardCount: 4,
		ReplicationFactor: 1, ReplicationMode: repl.ModeAsync, MaxAsyncLag: 64,
		Citus: citus.Config{RecoveryInterval: -1, RecoveryGrace: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE q (k bigint PRIMARY KEY, v bigint)",
		"SELECT create_distributed_table('q', 'k')",
		"INSERT INTO q (k, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4)",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	promoted, err := c.Failover(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	rejoined := c.Engines[1]
	fault.Arm(fault.Rule{Point: fault.PointReplShip, Key: rejoined.Name, Action: fault.ActDelay, Delay: 400 * time.Millisecond})

	// a participant the coordinator never resolved: prepared on the promoted
	// node, no commit record
	var shard string
	for k := int64(1); k <= 4 && shard == ""; k++ {
		sh, err := c.Meta.ShardForValue("q", k)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := c.Meta.PrimaryPlacement(sh.ID); n == promoted {
			shard = sh.ShardName()
		}
	}
	if shard == "" {
		t.Fatal("no shard of q on the promoted node")
	}
	eng := c.StandbyEngine(promoted)
	ps := eng.NewSession()
	for _, q := range []string{
		"BEGIN",
		fmt.Sprintf("UPDATE %s SET v = 0", shard),
		"PREPARE TRANSACTION 'citus_1_777_0'",
	} {
		if _, err := ps.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if n := len(rejoined.Txns.ListPrepared()); n != 0 {
		t.Fatalf("the rejoined standby already shows %d prepared: not the schedule under test", n)
	}

	r := &runner{cfg: Config{Logf: t.Logf}.withDefaults(), c: c}
	r.quiesce2PC("test")
	if left := eng.Txns.ListPrepared(); len(left) != 0 {
		t.Fatalf("quiesce returned with %v still prepared on the promoted primary", left)
	}
	if len(r.violations) != 0 {
		t.Fatalf("violations: %v", r.violations)
	}
}
