package cluster

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"sync"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/wire"
)

// wireLog watches the coordinator's side of its worker connections: the
// requests it writes, by kind, and its waits. A wait is a read that follows
// a write, on whatever connection: a flight — requests written on several
// connections, then their responses read — is one wait, however many
// connections it spans. The commit protocol runs on the session's goroutine,
// so the order of writes and reads the log sees is the order of the program.
type wireLog struct {
	mu       sync.Mutex
	requests map[string]int
	waits    int
	written  bool // a request went out since the last read
}

func (l *wireLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests, l.waits, l.written = map[string]int{}, 0, false
}

func (l *wireLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.requests {
		n += c
	}
	return n
}

type loggedConn struct {
	net.Conn
	log *wireLog
}

// Write counts the frames in p. A client writes whole frames (a request
// under 64 KiB never straddles two writes); byte 5 of a frame is its kind.
func (c *loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	for b := p; len(b) >= 6; {
		c.log.requests[wire.RequestKind(b[5]).String()]++
		b = b[min(len(b), 4+int(binary.LittleEndian.Uint32(b))):]
	}
	c.log.written = true
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *loggedConn) Read(p []byte) (int, error) {
	c.log.mu.Lock()
	if c.log.written {
		c.log.waits++
		c.log.written = false
	}
	c.log.mu.Unlock()
	return c.Conn.Read(p)
}

// budgetCluster boots a 2-worker cluster over real TCP with the daemons off,
// the coordinator's worker connections logged, and table tb(k, v) holding two
// keys on worker node 2 and one on node 3.
func budgetCluster(tb testing.TB) (c *Cluster, log *wireLog, onNode2 [2]int64, onNode3 int64) {
	tb.Helper()
	c, err := New(Config{Workers: 2, ShardCount: 8, UseTCP: true,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	log = &wireLog{}
	log.reset()
	for id, srv := range c.servers {
		addr, name := srv.Addr(), srv.Eng.Name
		c.Coordinator().SetDialer(id, func() (*wire.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return wire.NewConn(&loggedConn{Conn: nc, log: log}, name), nil
		})
	}
	s := c.Session()
	exec(tb, s, "CREATE TABLE tb (k bigint PRIMARY KEY, v bigint)")
	exec(tb, s, "SELECT create_distributed_table('tb', 'k')")
	found2, found3 := 0, false
	for k := int64(0); k < 1000 && (found2 < 2 || !found3); k++ {
		sh, err := c.Meta.ShardForValue("tb", k)
		if err != nil {
			tb.Fatal(err)
		}
		switch node, _ := c.Meta.PrimaryPlacement(sh.ID); {
		case node == 2 && found2 < 2:
			onNode2[found2] = k
			found2++
		case node == 3 && !found3:
			onNode3, found3 = k, true
		default:
			continue
		}
		exec(tb, s, fmt.Sprintf("INSERT INTO tb (k, v) VALUES (%d, 0)", k))
	}
	if found2 < 2 || !found3 {
		tb.Fatal("keys 0..999 do not cover both workers")
	}
	return c, log, onNode2, onNode3
}

func exec(tb testing.TB, s *engine.Session, q string, params ...any) *engine.Result {
	tb.Helper()
	res, err := s.Exec(q, params...)
	if err != nil {
		tb.Fatalf("%s: %v", q, err)
	}
	return res
}

const (
	budgetUpdate = "UPDATE tb SET v = v + 1 WHERE k = $1"
	budgetSelect = "SELECT v FROM tb WHERE k = $1"
)

// txn runs BEGIN, the statements (each with its one key), COMMIT.
func txn(tb testing.TB, s *engine.Session, stmts []string, keys []int64) {
	tb.Helper()
	exec(tb, s, "BEGIN")
	for i, q := range stmts {
		exec(tb, s, q, keys[i])
	}
	exec(tb, s, "COMMIT")
}

// TestTxnRoundTripBudget pins, over real TCP, what a transaction costs in
// worker requests and in waits — by construction of the protocol, so in exact
// numbers. The block opens in its first task's request and leaves nothing to
// reset, so a local two-update transaction is 3 requests (it was 7, in 5
// waits); PREPARE TRANSACTION and COMMIT PREPARED each go to all participants
// in one flight, so a cross-node one is 6 requests in 4 waits (it was 14
// requests in 10). A serializable transaction costs the same: the isolation
// level rides the block. Its cross-node commit adds what the merged SSI check
// needs, one edge poll per participant node (a query: SELECT
// citus_node_wait_edges()), and nothing for the level. Tasks
// and transaction control are the same kind of request; executor_tasks_total
// says that two of each transaction's are its tasks.
func TestTxnRoundTripBudget(t *testing.T) {
	c, log, onNode2, onNode3 := budgetCluster(t)
	twoUpdates := []string{budgetUpdate, budgetUpdate}
	for _, tc := range []struct {
		name         string
		serializable bool
		stmts        []string
		keys         []int64
		requests     map[string]int
		waits        int
		counters     map[string]int64
	}{
		{"local two-update", false, twoUpdates, onNode2[:],
			map[string]int{"query": 3}, 3,
			map[string]int64{"dtxn_single_node_commits_total": 1, "dtxn_2pc_prepares_total": 0}},
		{"cross-node two-writer", false, twoUpdates, []int64{onNode2[0], onNode3},
			map[string]int{"query": 6}, 4,
			map[string]int64{"dtxn_2pc_commits_total": 1, "dtxn_2pc_prepares_total": 2}},
		// single-node delegation: both COMMITs in one flight
		{"one writer, one read-only participant", false, []string{budgetUpdate, budgetSelect}, []int64{onNode2[0], onNode3},
			map[string]int{"query": 4}, 3,
			map[string]int64{"dtxn_single_node_commits_total": 1, "dtxn_2pc_prepares_total": 0}},
		{"serializable local two-update", true, twoUpdates, onNode2[:],
			map[string]int{"query": 3}, 3,
			map[string]int64{"dtxn_single_node_commits_total": 1}},
		{"serializable cross-node two-writer", true, twoUpdates, []int64{onNode2[0], onNode3},
			map[string]int{"query": 6 + 2}, 4 + 2,
			map[string]int64{"dtxn_2pc_commits_total": 1, "ssi_dist_checks_total": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := c.Session()
			if tc.serializable {
				exec(t, s, "SET transaction_isolation = 'serializable'")
			}
			txn(t, s, tc.stmts, tc.keys) // connections dialed, statements parsed
			log.reset()
			before := obs.Default().Snapshot()
			txn(t, s, tc.stmts, tc.keys)
			after := obs.Default().Snapshot()
			log.mu.Lock()
			defer log.mu.Unlock()
			if !maps.Equal(log.requests, tc.requests) {
				t.Errorf("worker requests %v, want %v", log.requests, tc.requests)
			}
			if log.waits != tc.waits {
				t.Errorf("%d waits, want %d", log.waits, tc.waits)
			}
			tc.counters["executor_tasks_total"] = 2
			for name, want := range tc.counters {
				if got := after.Sum(name) - before.Sum(name); got != want {
					t.Errorf("%s moved by %d, want %d", name, got, want)
				}
			}
		})
	}
	res := exec(t, c.Session(), "SELECT sum(v) FROM tb")
	if got := res.Rows[0][0].(int64); got != 2*(2+2+1+2+2) {
		t.Errorf("sum(v) = %d after the transactions above, want %d", got, 2*(2+2+1+2+2))
	}
}

// BenchmarkTxnBlock is the pgbench two-update transaction over real TCP from
// an in-process coordinator session, single-node and cross-node, with the
// worker requests and waits of each counted and held to the budget
// (make bench-smoke).
func BenchmarkTxnBlock(b *testing.B) {
	c, log, onNode2, onNode3 := budgetCluster(b)
	twoUpdates := []string{budgetUpdate, budgetUpdate}
	for _, bc := range []struct {
		name            string
		keys            []int64
		requests, waits int
	}{
		{"local", onNode2[:], 3, 3},
		{"cross", []int64{onNode2[0], onNode3}, 6, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := c.Session()
			txn(b, s, twoUpdates, bc.keys)
			log.reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn(b, s, twoUpdates, bc.keys)
			}
			b.StopTimer()
			if got := log.total(); got != bc.requests*b.N {
				b.Fatalf("%d worker requests for %d transactions, want %d each", got, b.N, bc.requests)
			}
			if log.waits != bc.waits*b.N {
				b.Fatalf("%d waits for %d transactions, want %d each", log.waits, b.N, bc.waits)
			}
			b.ReportMetric(float64(bc.requests), "requests/txn")
			b.ReportMetric(float64(bc.waits), "waits/txn")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/txn")
		})
	}
}
