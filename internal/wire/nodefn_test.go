package wire_test

// A coordinator asks another node for everything through ordinary
// statements: node functions (SELECT citus_node_wait_edges(), ...) that every
// node registers in its engine, a standby's included. These tests send them
// over the wire as any client would.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
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
	want := []string{"kind", "from_vid", "to_vid", "from_dist", "to_dist", "from_commit_ns", "to_commit_ns"}
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
	holderVID := holder.Txn().VID
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
	if r := res.Rows[0]; len(res.Rows) != 1 || r[0] != "lock" || r[2] != int64(holderVID) || r[1] == r[2] {
		t.Fatalf("edges %v, want one lock edge toward vid %d", res.Rows, holderVID)
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

	// a standby runs no Citus layer, and answers every node function in both
	// forms alike
	rc, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 4, ReplicationFactor: 1,
		Citus: citus.Config{DeadlockInterval: -1, RecoveryInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	cases := functionCases(t, rc)
	const standbyID = 4 // worker1's
	sb := rc.StandbyEngine(standbyID)
	if sb == nil || sb.PlannerHook != nil {
		t.Fatalf("standby %d is missing, or has a planner hook", standbyID)
	}
	sbConn := rc.ConnTo(standbyID - 1)
	defer sbConn.Close()
	for name := range cases {
		if !strings.HasPrefix(name, "citus_node_") {
			delete(cases, name) // a Citus function, which a standby does not have
		}
	}
	checkFunctionParity(t, cases, sbConn.Query)

	// a node registers its functions again (a restart, a rejoin) while
	// they are being called
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			citus.RegisterNodeFunctions(sb, standbyID)
		}
	}()
	for i := 0; i < 50; i++ {
		query(t, sbConn, "SELECT * FROM citus_node_wait_edges()")
	}
	<-done
}

// functionCase calls a registered function in both of its forms, SELECT
// fn(args) and SELECT * FROM fn(args). args holds each form's argument list:
// a function that changes what it is called on gets two that it accepts in
// turn. volatile: the two calls may see different rows (an LSN, a counter,
// the caller's own transaction), so only the columns are compared.
type functionCase struct {
	args     [2]string
	volatile bool
}

// functionCases holds a case for every function a coordinator registers.
// The setup the Citus functions need: a distributed table pm, whose first
// shard citus_move_shard_placement moves to the other worker and back, and
// local tables pa, pb, ra and rb for create_distributed_table and
// create_reference_table to convert.
func functionCases(t *testing.T, c *cluster.Cluster) map[string]functionCase {
	t.Helper()
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE pm (k bigint PRIMARY KEY)", "SELECT create_distributed_table('pm', 'k')",
		"CREATE TABLE pa (k bigint PRIMARY KEY)", "CREATE TABLE pb (k bigint PRIMARY KEY)",
		"CREATE TABLE ra (k bigint PRIMARY KEY)", "CREATE TABLE rb (k bigint PRIMARY KEY)",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	shard := c.Meta.Shards("pm")[0].ID
	from, err := c.Meta.PrimaryPlacement(shard)
	if err != nil {
		t.Fatal(err)
	}
	to := 5 - from // the other of workers 2 and 3
	both := func(args string) [2]string { return [2]string{args, args} }
	return map[string]functionCase{
		"citus_move_shard_placement":          {args: [2]string{fmt.Sprintf("%d, %d, %d", shard, from, to), fmt.Sprintf("%d, %d, %d", shard, to, from)}},
		"citus_node_cancel_dist":              {args: both("'1:1:1'")},
		"citus_node_create_restore_point":     {args: [2]string{"'np1'", "'np2'"}, volatile: true},
		"citus_node_doom_dist":                {args: both("'1:1:1'")},
		"citus_node_drop_results":             {args: both("'none_', 'nor_'")},
		"citus_node_list_prepared":            {},
		"citus_node_stat_activity":            {},
		"citus_node_stat_ssi":                 {},
		"citus_node_table_rows":               {args: both("'pm', 'missing'")},
		"citus_node_trace_spans":              {args: both("0")},
		"citus_node_wait_edges":               {},
		"citus_plancache_stats":               {},
		"citus_recover_prepared_transactions": {},
		"citus_stat_activity":                 {volatile: true},
		"citus_stat_counters":                 {volatile: true},
		"citus_stat_ssi":                      {},
		"citus_tables":                        {},
		"citus_trace":                         {args: both("0")},
		"create_distributed_table":            {args: [2]string{"'pa', 'k'", "'pb', 'k', colocate_with := 'pa'"}},
		"create_reference_table":              {args: [2]string{"'ra'", "'rb'"}},
		"create_restore_point":                {args: [2]string{"'p1'", "'p2'"}, volatile: true},
		"rebalance_table_shards":              {},
		"start_metadata_sync_to_node":         {args: both("'worker1'")},
	}
}

// checkFunctionParity runs the function of every case in both forms through
// run, and checks that the forms agree.
func checkFunctionParity(t *testing.T, cases map[string]functionCase,
	run func(q string, params ...types.Datum) (*engine.Result, error)) {
	t.Helper()
	for name, fc := range cases {
		var res [2]*engine.Result
		for i, q := range []string{"SELECT %s(%s)", "SELECT * FROM %s(%s)"} {
			q = fmt.Sprintf(q, name, fc.args[i])
			var err error
			if res[i], err = run(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		if !reflect.DeepEqual(res[0].Columns, res[1].Columns) {
			t.Errorf("%s: columns %v, and %v from FROM", name, res[0].Columns, res[1].Columns)
		}
		if !fc.volatile && !reflect.DeepEqual(res[0].Rows, res[1].Rows) {
			t.Errorf("%s: rows %v, and %v from FROM", name, res[0].Rows, res[1].Rows)
		}
	}
}

// TestFunctionParity: every function a coordinator registers, the Citus
// functions and the node functions, answers the same columns and rows in its
// SELECT fn(args) form as in its SELECT * FROM fn(args) form. A function is a
// relation: it is filtered, grouped and joined with a local table, and a
// plan kept of it calls it again with each execution's parameters. Calling a
// function with an argument name it does not declare, CALL of a function,
// SELECT of a procedure and a function beside a distributed table all fail.
func TestFunctionParity(t *testing.T) {
	c := quietCluster(t)
	cases := functionCases(t, c)
	s := c.Session()
	checkFunctionParity(t, cases, s.Exec)

	rows := func(q string, params ...types.Datum) string {
		t.Helper()
		res, err := s.Exec(q, params...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return fmt.Sprint(res.Rows)
	}
	if got := rows("SELECT state, count(*) FROM citus_stat_activity() GROUP BY state"); got != "[[active 1]]" {
		t.Fatalf("activity by state: %s, want the caller's own", got)
	}
	if got := rows("SELECT table_name FROM citus_tables() t WHERE t.citus_table_type = 'reference' ORDER BY 1"); got != "[[ra] [rb]]" {
		t.Fatalf("reference tables: %s", got)
	}
	rows("CREATE TABLE lt (name text)")
	rows("INSERT INTO lt (name) VALUES ('pm'), ('nosuch')")
	if got := rows("SELECT lt.name, t.shard_count FROM lt JOIN citus_tables() AS t ON t.table_name = lt.name"); got != "[[pm 4]]" {
		t.Fatalf("joined with a local table: %s", got)
	}

	// a kept plan calls its function again, with each execution's parameters
	const selects = `SELECT value FROM citus_stat_counters() WHERE name = 'engine_statements_total{kind="select"}'`
	hits := func() int64 { return obs.Default().Snapshot().Sum("engine_plancache_hits") }
	before, first := hits(), rows(selects)
	if second := rows(selects); second == first || hits() == before {
		t.Fatalf("the kept plan read %s twice (plan cache hits %d, then %d)", first, before, hits())
	}
	var traces [2]uint64
	for i, q := range []string{"SELECT count(*) FROM pm", "INSERT INTO pm (k) VALUES (1)"} {
		rows(q)
		traces[i] = s.LastTraceID
	}
	for _, id := range traces {
		if got, want := rows("SELECT trace_id, count(*) > 0 FROM citus_trace($1) GROUP BY trace_id", int64(id)), fmt.Sprintf("[[%d true]]", id); got != want {
			t.Fatalf("trace %d: %s, want %s", id, got, want)
		}
	}
	if got := rows("SELECT kind, count(*) FROM citus_trace($1) GROUP BY kind ORDER BY kind", int64(traces[1])); !strings.Contains(got, "[statement 1]") {
		t.Fatalf("spans by kind: %s", got)
	}

	c.Engines[0].RegisterProcedure("noop", func(*engine.Session, []types.Datum) error { return nil })
	for q, want := range map[string]string{
		"SELECT create_distributed_table('pz', 'k', colocate := 'pa')":              `no argument named "colocate"`,
		"SELECT create_restore_point()":                                             `missing name`,
		"SELECT * FROM create_reference_table(NULL)":                                `missing table_name`,
		"SELECT create_distributed_table('pz')":                                     `missing distribution_column`,
		"SELECT citus_node_cancel_dist()":                                           `missing dist_txn_id`,
		"SELECT citus_node_table_rows('pm', NULL)":                                  `missing argument 2`,
		"CALL citus_tables()":                                                       "not a procedure",
		"SELECT noop()":                                                             "is a procedure",
		"SELECT * FROM noop()":                                                      "is a procedure",
		"SELECT t.table_name FROM citus_tables() t JOIN pm ON pm.k = t.shard_count": "not supported",
		"SELECT k FROM pm WHERE k IN (SELECT shard_count FROM citus_tables())":      "not supported",
	} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error saying %q", q, err, want)
		}
	}
	// the planner refuses a function beside a distributed table with the
	// plan cache off too
	c.Engines[0].SetFeatures(engine.Features{NoPlanCache: true})
	if _, err := s.Exec("SELECT t.table_name FROM citus_tables() t JOIN pm ON pm.k = t.shard_count"); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("a function beside a distributed table, plan cache off: %v", err)
	}
}
