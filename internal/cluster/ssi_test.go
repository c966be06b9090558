package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/ssi"
)

// ssiCluster boots a 2-worker cluster with a distributed accounts table and
// returns two account keys whose shards live on *different* workers — the
// shape where no single node can see both halves of a write-skew cycle and
// only the coordinator's merged conflict graph can catch the pivot.
func ssiCluster(t *testing.T, cfg citus.Config) (*Cluster, int64, int64) {
	t.Helper()
	c, err := New(Config{
		Workers:    2,
		ShardCount: 4,
		Citus:      cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE accounts (k bigint PRIMARY KEY, balance bigint)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT create_distributed_table('accounts', 'k')"); err != nil {
		t.Fatal(err)
	}
	keyA, keyB := findCrossNodeKeys(t, c, "accounts")
	if _, err := s.Exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, 100), (%d, 100)", keyA, keyB)); err != nil {
		t.Fatal(err)
	}
	return c, keyA, keyB
}

// findCrossNodeKeys probes the hash ring for two keys placed on different
// worker nodes.
func findCrossNodeKeys(t *testing.T, c *Cluster, table string) (int64, int64) {
	t.Helper()
	nodeOf := func(k int64) int {
		sh, err := c.Meta.ShardForValue(table, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		nodeID, err := c.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			t.Fatal(err)
		}
		return nodeID
	}
	first := nodeOf(1)
	for k := int64(2); k < 1000; k++ {
		if nodeOf(k) != first {
			return 1, k
		}
	}
	t.Fatal("no cross-node key pair found in 1..1000")
	return 0, 0
}

// runDistWriteSkew drives the deterministic cross-shard write-skew
// interleaving through the coordinator: both sessions read both accounts
// (on both workers), then each withdraws 150 from a different account, s1
// committing first. Returns the second COMMIT's error (nil = anomaly
// committed).
func runDistWriteSkew(t *testing.T, s1, s2 *engine.Session, keyA, keyB int64) error {
	t.Helper()
	read := fmt.Sprintf("SELECT balance FROM accounts WHERE k = %d OR k = %d", keyA, keyB)
	execOK := func(s *engine.Session, q string) {
		t.Helper()
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	execOK(s1, "BEGIN")
	execOK(s2, "BEGIN")
	execOK(s1, read)
	execOK(s2, read)
	execOK(s1, fmt.Sprintf("UPDATE accounts SET balance = balance - 150 WHERE k = %d", keyA))
	execOK(s2, fmt.Sprintf("UPDATE accounts SET balance = balance - 150 WHERE k = %d", keyB))
	execOK(s1, "COMMIT")
	_, err := s2.Exec("COMMIT")
	if err != nil {
		_, _ = s2.Exec("ROLLBACK")
	}
	return err
}

func sumBalances(t *testing.T, c *Cluster) int64 {
	t.Helper()
	res, err := c.Session().Exec("SELECT sum(balance) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := res.Rows[0][0].(int64)
	if !ok {
		t.Fatalf("sum(balance) = %v (%T)", res.Rows[0][0], res.Rows[0][0])
	}
	return sum
}

// TestDistributedSSIPivotAbort is the golden multi-shard pivot abort: the
// two rw-antidependency edges of the cycle live on different workers, each
// worker's local check sees only one of them, and the coordinator's merged
// graph catches the pivot at the second COMMIT.
func TestDistributedSSIPivotAbort(t *testing.T) {
	c, keyA, keyB := ssiCluster(t, citus.Config{DeadlockInterval: -1, RecoveryInterval: -1})
	s1, s2 := c.Session(), c.Session()
	mustExec(t, s1, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, s2, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
	err := runDistWriteSkew(t, s1, s2, keyA, keyB)
	if err == nil {
		t.Fatal("cross-shard write-skew committed under SERIALIZABLE")
	}
	if !ssi.IsSerializationFailure(err) && !strings.Contains(err.Error(), "could not serialize") {
		t.Fatalf("want serialization failure, got: %v", err)
	}
	if got := sumBalances(t, c); got != 50 {
		t.Fatalf("sum(balance) = %d, want 50 (exactly one withdrawal)", got)
	}
}

// TestDistributedSIAllowsWriteSkew is the control: with SSI disabled the
// same interleaving commits on both sides and violates the invariant — the
// anomaly the merged-graph check exists to prevent.
func TestDistributedSIAllowsWriteSkew(t *testing.T) {
	c, keyA, keyB := ssiCluster(t, citus.Config{
		DeadlockInterval: -1, RecoveryInterval: -1,
	})
	for _, e := range c.Engines {
		e.SetFeatures(engine.Features{NoSSI: true})
	}
	s1, s2 := c.Session(), c.Session()
	mustExec(t, s1, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, s2, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
	if err := runDistWriteSkew(t, s1, s2, keyA, keyB); err != nil {
		t.Fatalf("write-skew should commit with SSI disabled, got: %v", err)
	}
	if got := sumBalances(t, c); got != -100 {
		t.Fatalf("sum(balance) = %d, want -100 (both withdrawals, anomaly)", got)
	}
}

// TestDistributedSSIStress races N write-skew pairs across shards under
// -race: every transaction reads its pair's two balances and withdraws 150
// only if the total covers it. Serial execution admits at most one
// withdrawal per pair, so any pair summing below zero is a serializability
// anomaly. Under SSI (with serialization-failure retries) there must be
// none.
func TestDistributedSSIStress(t *testing.T) {
	const pairs = 4
	const attempts = 6
	c, err := New(Config{Workers: 2, ShardCount: 4,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pairs (k bigint PRIMARY KEY, balance bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pairs', 'k')")
	for p := 0; p < pairs; p++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pairs VALUES (%d, 100), (%d, 100)", 2*p, 2*p+1))
	}

	withdraw := func(sess *engine.Session, mine, other int64) error {
		if _, err := sess.Exec("BEGIN"); err != nil {
			return err
		}
		res, err := sess.Exec(fmt.Sprintf(
			"SELECT sum(balance) FROM pairs WHERE k = %d OR k = %d", mine, other))
		if err != nil {
			_, _ = sess.Exec("ROLLBACK")
			return err
		}
		total, _ := res.Rows[0][0].(int64)
		if total >= 150 {
			if _, err := sess.Exec(fmt.Sprintf(
				"UPDATE pairs SET balance = balance - 150 WHERE k = %d", mine)); err != nil {
				_, _ = sess.Exec("ROLLBACK")
				return err
			}
		}
		if _, err := sess.Exec("COMMIT"); err != nil {
			_, _ = sess.Exec("ROLLBACK")
			return err
		}
		return nil
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		for side := 0; side < 2; side++ {
			mine := int64(2*p + side)
			other := int64(2*p + 1 - side)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := c.Session()
				if _, err := sess.Exec("SET transaction_isolation = 'serializable'"); err != nil {
					errCh <- err
					return
				}
				for i := 0; i < attempts; i++ {
					err := withdraw(sess, mine, other)
					if err == nil {
						continue
					}
					if strings.Contains(err.Error(), "could not serialize") ||
						strings.Contains(err.Error(), "deadlock") {
						continue // retryable: next attempt re-reads
					}
					errCh <- fmt.Errorf("pair %d/%d: %w", mine, other, err)
					return
				}
			}()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for p := 0; p < pairs; p++ {
		res, err := c.Session().Exec(fmt.Sprintf(
			"SELECT sum(balance) FROM pairs WHERE k = %d OR k = %d", 2*p, 2*p+1))
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := res.Rows[0][0].(int64)
		if sum < 0 {
			t.Fatalf("pair %d: sum(balance) = %d — write-skew anomaly under SSI", p, sum)
		}
	}
}

// TestSSIEdgePollFailsClosed: the merged check of a serializable cross-node
// commit cannot vouch for a participant whose edges it did not read. When
// the poll fails (node.call) or no connection to the participant can be had
// (pool.checkout), the commit fails with a serialization error and neither
// participant commits.
func TestSSIEdgePollFailsClosed(t *testing.T) {
	defer fault.Reset()
	c, keyA, keyB := ssiCluster(t, citus.Config{DeadlockInterval: -1, RecoveryInterval: -1})
	sh, err := c.Meta.ShardForValue("accounts", keyA)
	if err != nil {
		t.Fatal(err)
	}
	nodeA, _ := c.Meta.PrimaryPlacement(sh.ID)
	for _, rule := range []fault.Rule{
		{Point: fault.PointNodeCall, Key: "citus_node_wait_edges", Action: fault.ActError, Count: 1},
		{Point: fault.PointPoolCheckout, Key: fmt.Sprintf("node-%d", nodeA), Action: fault.ActError, Count: 1},
	} {
		t.Run(rule.Point, func(t *testing.T) {
			fault.Reset()
			s := c.Session()
			mustExec(t, s, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
			mustExec(t, s, "BEGIN")
			mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance - 10 WHERE k = %d", keyA))
			mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance + 10 WHERE k = %d", keyB))
			fault.Arm(rule)
			_, err := s.Exec("COMMIT")
			if !ssi.IsSerializationFailure(err) {
				t.Fatalf("commit with a failed edge poll: %v, want a serialization failure", err)
			}
			if fault.Fired(rule.Point) != 1 {
				t.Fatalf("%s fired %d times, want once", rule.Point, fault.Fired(rule.Point))
			}
			if s.InTransaction() {
				_, _ = s.Exec("ROLLBACK")
			}
			for _, k := range []int64{keyA, keyB} {
				res := exec(t, c.Session(), fmt.Sprintf("SELECT balance FROM accounts WHERE k = %d", k))
				if res.Rows[0][0] != int64(100) {
					t.Fatalf("account %d holds %v after the failed commit, want 100", k, res.Rows[0][0])
				}
			}
			for _, eng := range c.Engines {
				if p := eng.Txns.ListPrepared(); len(p) != 0 {
					t.Fatalf("%s kept prepared transactions: %v", eng.Name, p)
				}
			}
		})
	}
}
