package wire_test

// A coordinator asks another node for everything through ordinary
// statements: node functions (SELECT citus_node_wait_edges(), ...) that the
// citus planner hook answers on every node. These tests send them over the
// wire as any client would.

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// quietCluster is a two-worker cluster with its daemons off: nothing but the
// test talks to the nodes.
func quietCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func query(t *testing.T, c *wire.Conn, q string, params ...types.Datum) *engine.Result {
	t.Helper()
	res, err := c.Query(q, params...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// TestLockGraphOverWire: citus_node_wait_edges answers no rows on an idle
// node, and a "lock" row naming both transactions while one waits for the
// other's row lock.
func TestLockGraphOverWire(t *testing.T) {
	c := quietCluster(t)
	conn := c.ConnTo(1)
	defer conn.Close()
	res := query(t, conn, "SELECT citus_node_wait_edges()")
	if len(res.Rows) != 0 {
		t.Fatalf("edges of an idle node: %v", res.Rows)
	}
	want := []string{"kind", "from_xid", "to_xid", "from_dist", "to_dist", "from_commit_ns", "to_commit_ns"}
	if !reflect.DeepEqual(res.Columns, want) {
		t.Fatalf("columns %v, want %v", res.Columns, want)
	}

	query(t, conn, "CREATE TABLE lw (k bigint PRIMARY KEY, v bigint)")
	query(t, conn, "INSERT INTO lw (k, v) VALUES (1, 0)")
	holder, waiter := c.SessionOn(1), c.SessionOn(1)
	for _, q := range []string{"BEGIN", "UPDATE lw SET v = 1 WHERE k = 1"} {
		if _, err := holder.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	holderXID := holder.Txn().XID
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Exec("UPDATE lw SET v = 2 WHERE k = 1")
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(res.Rows) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiting update never showed as an edge")
		}
		res = query(t, conn, "SELECT citus_node_wait_edges()")
	}
	if r := res.Rows[0]; len(res.Rows) != 1 || r[0] != "lock" || r[2] != int64(holderXID) || r[1] == r[2] {
		t.Fatalf("edges %v, want one lock edge toward xid %d", res.Rows, holderXID)
	}
	if _, err := holder.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTraceSpansRequest: citus_node_trace_spans returns a node's spans of one
// trace, and every field of a span, awkward attributes included, arrives as
// the node recorded it. A node without a tracer answers no rows.
func TestTraceSpansRequest(t *testing.T) {
	c := quietCluster(t)
	conn := c.ConnTo(1)
	defer conn.Close()
	conn.SetTrace(99, 100)
	query(t, conn, "CREATE TABLE ts (k bigint)")
	query(t, conn, "INSERT INTO ts (k) VALUES (1)")
	conn.ClearTrace()
	res := query(t, conn, "SELECT citus_node_trace_spans(99)")
	if len(res.Rows) == 0 {
		t.Fatal("no spans returned for the propagated trace id")
	}
	for _, r := range res.Rows {
		if r[0] != int64(99) {
			t.Fatalf("span from wrong trace: %v", r)
		}
	}

	// a span whose attributes a key=value rendering would lose: empty key
	// and value, separators, quotes, NUL and invalid UTF-8, JSON text, keys
	// out of order
	const traceID = math.MaxUint64 - 1
	sp := c.Engines[1].Tracer.StartSpan(traceID, 1<<63, "awkward", "label with 'quotes'\n")
	for _, kv := range [][2]string{{"z", "last key first"}, {"", ""}, {"k=v", "a b=c, d"},
		{"nul", "x\x00y\xff\xfe"}, {"json", `{"a": [1, "b"]}`}, {"a", ""}} {
		sp.SetAttr(kv[0], kv[1])
	}
	sp.Finish()
	want := c.Engines[1].Tracer.Collect(traceID)
	got := c.Coordinator().CollectTrace(traceID)
	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("spans: recorded %d, fetched %d", len(want), len(got))
	}
	if !got[0].Start.Equal(want[0].Start) {
		t.Fatalf("start %v, recorded %v", got[0].Start, want[0].Start)
	}
	got[0].Start, want[0].Start = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got[0], want[0]) {
		t.Fatalf("span after the round trip\n got:  %+v\n want: %+v", got[0], want[0])
	}

	// a tracer-less node answers with an empty set, not an error
	c.Engines[2].Tracer = nil
	plain := c.ConnTo(2)
	defer plain.Close()
	if res := query(t, plain, "SELECT citus_node_trace_spans(99)"); len(res.Rows) != 0 {
		t.Fatalf("tracer-less node: %v", res.Rows)
	}
}

// TestNodeFunctionsOverWire: the rest of what a coordinator asks a node.
func TestNodeFunctionsOverWire(t *testing.T) {
	c := quietCluster(t)
	conn := c.ConnTo(1)
	defer conn.Close()

	// intermediate results go by prefix
	pl := conn.Pipeline(0)
	pd := pl.AppendResult("ir1", []string{"x"}, []types.Row{{int64(42)}})
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pd.Err(); err != nil {
		t.Fatal(err)
	}
	if res := query(t, conn, "SELECT x FROM ir1"); len(res.Rows) != 1 || res.Rows[0][0] != int64(42) {
		t.Fatalf("intermediate: %v", res.Rows)
	}
	query(t, conn, "SELECT citus_node_drop_results($1, $2)", "none_", "ir")
	if _, err := conn.Query("SELECT x FROM ir1"); err == nil {
		t.Fatal("dropped intermediate still queryable")
	}

	// row estimates, summed over the named tables
	query(t, conn, "CREATE TABLE t (k bigint PRIMARY KEY)")
	if _, err := conn.Copy("t", []string{"k"}, []types.Row{{int64(1)}, {int64(2)}, {int64(3)}}); err != nil {
		t.Fatal(err)
	}
	if res := query(t, conn, "SELECT citus_node_table_rows('t', 't', 'missing')"); res.Rows[0][0] != int64(6) {
		t.Fatalf("rows: %v", res.Rows)
	}

	// the prepared list, with each one's age
	for _, q := range []string{"BEGIN", "INSERT INTO t (k) VALUES (4)", "PREPARE TRANSACTION 'g1'"} {
		query(t, conn, q)
	}
	res := query(t, conn, "SELECT citus_node_list_prepared()")
	if len(res.Rows) != 1 || res.Rows[0][0] != "g1" {
		t.Fatalf("prepared: %v", res.Rows)
	}
	if age := res.Rows[0][2].(int64); age < 0 || age == math.MaxInt64 {
		t.Fatalf("age of a transaction prepared just now: %d ns", age)
	}
	query(t, conn, "ROLLBACK PREPARED 'g1'")

	// cancel and doom report whether the node had a member to act on
	for _, fn := range []string{"citus_node_cancel_dist", "citus_node_doom_dist"} {
		if res := query(t, conn, "SELECT "+fn+"('1:1:1')"); res.Rows[0][0] != false {
			t.Fatalf("%s of an unknown transaction: %v", fn, res.Rows)
		}
	}

	// a node function's errors are the statement's
	if _, err := conn.Query("SELECT citus_node_trace_spans('x')"); err == nil || !strings.Contains(err.Error(), "trace id") {
		t.Fatalf("a bad trace id: %v", err)
	}
}
