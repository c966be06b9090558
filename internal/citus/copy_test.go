package citus_test

import (
	"math"
	"strings"
	"testing"

	"citusgo/internal/fault"
	"citusgo/internal/types"
)

// copyRows returns rows (k, k) for k in [from, to).
func copyRows(from, to int64) []types.Row {
	rows := make([]types.Row, 0, to-from)
	for k := from; k < to; k++ {
		rows = append(rows, types.Row{k, k})
	}
	return rows
}

// TestFailedCopyLeavesNothing: a COPY over many shards is one distributed
// transaction, so a row one shard refuses takes the other shards' rows
// with it.
func TestFailedCopyLeavesNothing(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE cf (k bigint PRIMARY KEY, v bigint NOT NULL)")
	mustExec(t, s, "SELECT create_distributed_table('cf', 'k')")

	rows := copyRows(0, 64)
	rows[37][1] = nil // violates NOT NULL on its shard alone
	if _, err := s.CopyFrom("cf", []string{"k", "v"}, rows); err == nil || !strings.Contains(err.Error(), "not-null") {
		t.Fatalf("COPY with a NULL in a NOT NULL column: %v", err)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM cf"), "0")

	rows[37][1] = int64(37)
	n, err := s.CopyFrom("cf", []string{"k", "v"}, rows)
	if err != nil || n != 64 {
		t.Fatalf("COPY after the failed one: %d rows, %v", n, err)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM cf"), "64|2016")
}

// TestCopyInTransactionBlock: COPY joins the session's transaction block,
// sees its rows inside it, and keeps them only if the block commits.
func TestCopyInTransactionBlock(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE cb (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('cb', 'k')")

	mustExec(t, s, "BEGIN")
	if _, err := s.CopyFrom("cb", []string{"k", "v"}, copyRows(0, 40)); err != nil {
		t.Fatalf("COPY inside BEGIN: %v", err)
	}
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM cb"), "40")
	mustExec(t, s, "ROLLBACK")
	expectRows(t, mustExec(t, s, "SELECT count(*) FROM cb"), "0")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO cb (k, v) VALUES (1000, 1000)")
	if _, err := s.CopyFrom("cb", []string{"k", "v"}, copyRows(0, 40)); err != nil {
		t.Fatalf("COPY inside BEGIN: %v", err)
	}
	if _, err := s.CopyFrom("cb", []string{"k", "v"}, copyRows(40, 41)); err != nil {
		t.Fatalf("one-shard COPY inside BEGIN: %v", err)
	}
	mustExec(t, s, "COMMIT")
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM cb"), "42|1820")

	// a failed block refuses COPY like any other statement
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("SELECT from a missing table succeeded")
	}
	if _, err := s.CopyFrom("cb", []string{"k", "v"}, copyRows(100, 140)); err == nil || !strings.Contains(err.Error(), "current transaction is aborted") {
		t.Fatalf("COPY in an aborted block: %v", err)
	}
	mustExec(t, s, "ROLLBACK")
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM cb"), "42|1820")
}

// TestFailedDistributionKeepsRows: create_distributed_table and
// create_reference_table copy a table's existing rows into its shards as one
// distributed transaction; when it fails to prepare, the table stays the
// local table it was, every row readable, and can be distributed again.
func TestFailedDistributionKeepsRows(t *testing.T) {
	defer fault.Reset()
	c := newCluster(t, 2)
	s := c.Session()
	for _, tc := range []struct{ table, create string }{
		{"fd", "SELECT create_distributed_table('fd', 'k')"},
		{"fr", "SELECT create_reference_table('fr')"},
	} {
		t.Run(tc.table, func(t *testing.T) {
			mustExec(t, s, "CREATE TABLE "+tc.table+" (k bigint PRIMARY KEY, v bigint)")
			if _, err := s.CopyFrom(tc.table, []string{"k", "v"}, copyRows(0, 40)); err != nil {
				t.Fatal(err)
			}
			fault.Arm(fault.Rule{Point: fault.Point2PCPrepare, Action: fault.ActError, Count: 1})
			if _, err := s.Exec(tc.create); err == nil {
				t.Fatalf("%s succeeded with PREPARE failing", tc.create)
			}
			if fault.Fired(fault.Point2PCPrepare) == 0 {
				t.Fatal("PREPARE never ran")
			}
			fault.Reset()
			if c.Meta.IsCitusTable(tc.table) {
				t.Fatalf("%s is still registered after the failed copy", tc.table)
			}
			expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM "+tc.table), "40|780")

			mustExec(t, s, tc.create)
			expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM "+tc.table), "40|780")
		})
	}
}

// TestDistributionRefusesNullKeys: a row whose distribution value is NULL
// belongs to no shard, so create_distributed_table refuses the table before
// creating anything.
func TestDistributionRefusesNullKeys(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE fn (k bigint, v bigint)")
	mustExec(t, s, "INSERT INTO fn (k, v) VALUES (1, 1), (NULL, 2), (3, 3)")
	_, err := s.Exec("SELECT create_distributed_table('fn', 'k')")
	if err == nil || !strings.Contains(err.Error(), `cannot distribute table "fn": its distribution column "k" contains NULL values`) {
		t.Fatalf("create_distributed_table over a NULL key: %v", err)
	}
	if c.Meta.IsCitusTable("fn") {
		t.Fatal("fn is registered after the refusal")
	}
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM fn"), "3|6")

	mustExec(t, s, "DELETE FROM fn WHERE k IS NULL")
	mustExec(t, s, "SELECT create_distributed_table('fn', 'k')")
	expectRows(t, mustExec(t, s, "SELECT count(*), sum(v) FROM fn"), "2|4")
}

// TestInsertSelectKeepsFloats: rows an INSERT..SELECT moves through the
// coordinator reach the destination as the values they were, the floats
// SQL text has no bare literal for included.
func TestInsertSelectKeepsFloats(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE fsrc (k bigint PRIMARY KEY, f double precision)")
	mustExec(t, s, "SELECT create_distributed_table('fsrc', 'k')")
	mustExec(t, s, "CREATE TABLE fdst (k bigint, f double precision)")
	mustExec(t, s, "SELECT create_distributed_table('fdst', 'k', colocate_with := 'none')")
	want := []float64{math.NaN(), math.Copysign(0, -1), 1e300, math.Inf(1), math.Inf(-1)}
	var rows []types.Row
	for i, f := range want {
		rows = append(rows, types.Row{int64(i), f})
	}
	if _, err := s.CopyFrom("fsrc", []string{"k", "f"}, rows); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, q string }{
		{"pull to coordinator, no merge step", "INSERT INTO fdst (k, f) SELECT k, f FROM fsrc"},
		{"pull to coordinator", "INSERT INTO fdst (k, f) SELECT k, f FROM fsrc ORDER BY k LIMIT 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustExec(t, s, "TRUNCATE fdst")
			if plan := rowsText(mustExec(t, s, "EXPLAIN "+tc.q)); !strings.Contains(plan, "pull to coordinator") {
				t.Fatalf("plan is not pull to coordinator:\n%s", plan)
			}
			if res := mustExec(t, s, tc.q); res.Tag != "INSERT 0 5" {
				t.Fatalf("tag %q", res.Tag)
			}
			res := mustExec(t, s, "SELECT k, f FROM fdst ORDER BY k")
			if len(res.Rows) != len(want) {
				t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
			}
			for i, r := range res.Rows {
				got, ok := r[1].(float64)
				if !ok || math.Float64bits(got) != math.Float64bits(want[i]) && !(math.IsNaN(got) && math.IsNaN(want[i])) {
					t.Errorf("k=%d: %v, want %v", i, r[1], want[i])
				}
			}
		})
	}
}

// TestReferenceCopyReachesEveryReplica: a COPY into a reference table lands
// on every placement once and counts each row once.
func TestReferenceCopyReachesEveryReplica(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE rc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_reference_table('rc')")
	n, err := s.CopyFrom("rc", []string{"k", "v"}, copyRows(0, 25))
	if err != nil || n != 25 {
		t.Fatalf("COPY into a reference table: %d rows, %v", n, err)
	}
	shard := c.Meta.Shards("rc")[0].ShardName()
	for i := range c.Engines {
		expectRows(t, mustExec(t, c.SessionOn(i), "SELECT count(*), sum(v) FROM "+shard), "25|300")
	}
}
