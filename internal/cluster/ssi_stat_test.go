package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/types"
)

// TestStatSSIGolden is the golden test for citus_stat_ssi(): it freezes the
// canonical cross-shard write-skew interleaving mid-flight — both
// serializable sessions have read both accounts and each has written a
// different one, neither has committed — and asserts the cluster-wide view
// the UDF reports at that instant.
//
// Volatile fields (xids, dist txn ids, begin/commit sequence numbers) are
// normalized away; what the golden pins down is the stable pg_stat-style
// shape: which node reports which sessions, their state, their doomed flag,
// and their rw-antidependency edge and SIREAD lock counts. At the freeze
// point each worker has seen exactly one half of the dangerous structure —
// the writer's member transaction carries the in-edge, the reader's the
// out-edge — and no node alone has grounds to doom anyone. That split view
// is precisely why the coordinator needs the merged graph, and precisely
// what this UDF exists to make observable.
func TestStatSSIGolden(t *testing.T) {
	c, keyA, keyB := ssiCluster(t, citus.Config{DeadlockInterval: -1, RecoveryInterval: -1})
	s1, s2 := c.Session(), c.Session()
	mustExec(t, s1, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")
	mustExec(t, s2, "SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")

	read := fmt.Sprintf("SELECT balance FROM accounts WHERE k = %d OR k = %d", keyA, keyB)
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, read)
	mustExec(t, s2, read)
	mustExec(t, s1, fmt.Sprintf("UPDATE accounts SET balance = balance - 150 WHERE k = %d", keyA))
	mustExec(t, s2, fmt.Sprintf("UPDATE accounts SET balance = balance - 150 WHERE k = %d", keyB))

	// Freeze point: query the cluster-wide SSI state from a third,
	// non-serializable session so the observer itself is not a row.
	res, err := c.Session().Exec("SELECT citus_stat_ssi()")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"node_id", "xid", "dist_txn_id", "state", "doomed",
		"in_conflicts", "out_conflicts", "siread_locks", "commit_seq", "vid"}
	if got := strings.Join(res.Columns, ","); got != strings.Join(wantCols, ",") {
		t.Fatalf("citus_stat_ssi columns = %s, want %s", got, strings.Join(wantCols, ","))
	}

	got := normalizeStatSSI(t, c, res.Rows, keyA, keyB)

	// The golden: the coordinator tracks both root transactions (no edges —
	// the cycle lives on the workers), and each worker tracks both member
	// transactions with exactly one rw-antidependency edge between them.
	// On worker(keyA) the s1 member is the writer (in-edge from s2's read);
	// on worker(keyB) the roles flip. Every member holds two SIREAD locks —
	// the OR-predicate scan touches both shards each worker hosts (4 shards
	// over 2 workers). Nobody is doomed and nobody has committed.
	want := []string{
		"coordinator: state=active doomed=false in=0 out=0 locks=0 cseq=unset",
		"coordinator: state=active doomed=false in=0 out=0 locks=0 cseq=unset",
		"worker(keyA): state=active doomed=false in=0 out=1 locks=2 cseq=unset",
		"worker(keyA): state=active doomed=false in=1 out=0 locks=2 cseq=unset",
		"worker(keyB): state=active doomed=false in=0 out=1 locks=2 cseq=unset",
		"worker(keyB): state=active doomed=false in=1 out=0 locks=2 cseq=unset",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("citus_stat_ssi mid-flight state:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	// Second freeze point: s1 commits while s2 stays open. s1's rows must
	// flip to committed *and remain visible* — PostgreSQL retains a
	// committed SERIALIZABLEXACT while a concurrent serializable
	// transaction is still running, because its edges are exactly what
	// convicts the pivot — with their conflict edges and locks intact and a
	// commit sequence assigned.
	mustExec(t, s1, "COMMIT")
	res, err = c.Session().Exec("SELECT citus_stat_ssi()")
	if err != nil {
		t.Fatal(err)
	}
	got = normalizeStatSSI(t, c, res.Rows, keyA, keyB)
	want = []string{
		"coordinator: state=active doomed=false in=0 out=0 locks=0 cseq=unset",
		"coordinator: state=committed doomed=false in=0 out=0 locks=0 cseq=set",
		"worker(keyA): state=active doomed=false in=0 out=1 locks=2 cseq=unset",
		"worker(keyA): state=committed doomed=false in=1 out=0 locks=2 cseq=set",
		"worker(keyB): state=active doomed=false in=1 out=0 locks=2 cseq=unset",
		"worker(keyB): state=committed doomed=false in=0 out=1 locks=2 cseq=set",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("citus_stat_ssi after first commit:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}

	// Resolve: s2's commit must be doomed by the coordinator's merged-graph
	// pivot check. Once no serializable transaction is in flight, every
	// node's tracking table must drain — the aborted transaction's state is
	// released immediately, and the committed one is garbage-collected as
	// soon as no concurrent serializable transaction overlaps it.
	if _, err := s2.Exec("COMMIT"); err == nil {
		t.Fatal("write-skew second COMMIT succeeded under SERIALIZABLE")
	}
	_, _ = s2.Exec("ROLLBACK")

	res, err = c.Session().Exec("SELECT citus_stat_ssi()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("after both transactions resolved, tracking tables should drain, still have %d row(s): %v",
			len(res.Rows), res.Rows)
	}
}

// normalizeStatSSI rewrites citus_stat_ssi rows into deterministic strings:
// node ids become role labels (coordinator / worker hosting keyA / worker
// hosting keyB), the volatile xid, dist_txn_id and vid columns are dropped, and
// commit_seq collapses to set/unset. Rows are sorted for a stable
// comparison.
func normalizeStatSSI(t *testing.T, c *Cluster, rows []types.Row, keyA, keyB int64) []string {
	t.Helper()
	label := map[int64]string{int64(c.Coordinator().ID): "coordinator"}
	for key, name := range map[int64]string{keyA: "worker(keyA)", keyB: "worker(keyB)"} {
		sh, err := c.Meta.ShardForValue("accounts", key)
		if err != nil {
			t.Fatal(err)
		}
		nodeID, err := c.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			t.Fatal(err)
		}
		label[int64(nodeID)] = name
	}
	var out []string
	for _, row := range rows {
		nodeID, _ := row[0].(int64)
		state, _ := row[3].(string)
		doomed, _ := row[4].(bool)
		in, _ := row[5].(int64)
		outEdges, _ := row[6].(int64)
		locks, _ := row[7].(int64)
		commitSeq, _ := row[8].(int64)
		cseq := "unset"
		if commitSeq != 0 {
			cseq = "set"
		}
		name, ok := label[nodeID]
		if !ok {
			name = fmt.Sprintf("node%d", nodeID)
		}
		out = append(out, fmt.Sprintf("%s: state=%s doomed=%t in=%d out=%d locks=%d cseq=%s",
			name, state, doomed, in, outEdges, locks, cseq))
	}
	sort.Strings(out)
	return out
}
