package wire

import (
	"errors"
	"strings"
	"testing"
	"time"

	"citusgo/internal/fault"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

func testPipelineBehavior(t *testing.T, conn *Conn) {
	t.Helper()
	mustQ(t, conn, "CREATE TABLE p (k bigint PRIMARY KEY, v text)")

	// A batch of writes followed by reads, resolved in order.
	pl := conn.Pipeline(0)
	var ins []*Pending
	for i := 0; i < 8; i++ {
		ins = append(ins, pl.Query("INSERT INTO p (k, v) VALUES ($1, $2)",
			int64(i), "v"))
	}
	sel := pl.Query("SELECT count(*) FROM p")
	if err := pl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, pd := range ins {
		res, err := pd.Result()
		if err != nil || res.Affected != 1 {
			t.Fatalf("insert %d: %v %v", i, res, err)
		}
	}
	res, err := sel.Result()
	if err != nil || res.Rows[0][0].(int64) != 8 {
		t.Fatalf("pipelined count: %v %v", res, err)
	}

	// Results come back correlated per request, not shuffled.
	pl = conn.Pipeline(3) // window smaller than the batch forces mid-batch drains
	var sels []*Pending
	for i := 0; i < 8; i++ {
		sels = append(sels, pl.Query("SELECT v, k FROM p WHERE k = $1", int64(i)))
	}
	if err := pl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i, pd := range sels {
		res, err := pd.Result()
		if err != nil || len(res.Rows) != 1 || res.Rows[0][1].(int64) != int64(i) {
			t.Fatalf("select %d got wrong row: %v %v", i, res, err)
		}
	}

	// A semantic error fails its own request and leaves the rest healthy.
	pl = conn.Pipeline(0)
	ok1 := pl.Query("SELECT count(*) FROM p")
	bad := pl.Query("SELECT * FROM missing_table")
	ok2 := pl.Query("SELECT count(*) FROM p")
	if err := pl.Flush(); err != nil {
		t.Fatalf("semantic error must not poison the batch: %v", err)
	}
	if _, err := ok1.Result(); err != nil {
		t.Fatalf("request before the failing one: %v", err)
	}
	if err := bad.Err(); err == nil || IsTransient(err) {
		t.Fatalf("semantic error lost or misclassified: %v", err)
	}
	if res, err := ok2.Result(); err != nil || res.Rows[0][0].(int64) != 8 {
		t.Fatalf("request after the failing one: %v %v", res, err)
	}

	// COPY rides the pipeline too.
	pl = conn.Pipeline(0)
	cp := pl.Copy("p", []string{"k", "v"}, []types.Row{{int64(100), "x"}, {int64(101), "y"}})
	if err := pl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if res, err := cp.Result(); err != nil || res.Affected != 2 {
		t.Fatalf("pipelined copy: %v %v", res, err)
	}
}

func TestPipelineLocal(t *testing.T) {
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	testPipelineBehavior(t, conn)
}

func TestPipelineTCP(t *testing.T) {
	e := newEngine(t)
	srv, err := Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	testPipelineBehavior(t, conn)
}

// TestPipelineOneRTTPerBatch is the point of the feature: a batch of k
// requests on a high-latency link pays ~1 round trip, not k.
func TestPipelineOneRTTPerBatch(t *testing.T) {
	e := newEngine(t)
	const rtt = 3 * time.Millisecond
	conn := connect(t, e, rtt)
	defer conn.Close()

	start := time.Now()
	pl := conn.Pipeline(0)
	var pds []*Pending
	for i := 0; i < 5; i++ {
		pds = append(pds, pl.Query("SELECT 1"))
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for _, pd := range pds {
		if err := pd.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed < rtt {
		t.Fatalf("RTT not charged at all: %v", elapsed)
	}
	if elapsed > 3*rtt {
		t.Fatalf("batch of 5 paid serial round trips: %v (rtt %v)", elapsed, rtt)
	}
}

// TestPipelineTransportFaultPoisonsBatch exercises the error semantics: a
// transport-level failure surfaces on the request that hit it, every later
// request in the batch fails with the same ConnError without touching the
// wire, and the connection is left desynced-and-detectable (a later plain
// round trip trips the correlation check instead of delivering another
// request's response).
func TestPipelineTransportFaultPoisonsBatch(t *testing.T) {
	defer fault.Reset()
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	mustQ(t, conn, "CREATE TABLE f (k bigint PRIMARY KEY)")

	fault.Reset()
	// Lose the first response of the batch after the server executed it.
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActError, Count: 1})

	pl := conn.Pipeline(0)
	a := pl.Query("INSERT INTO f (k) VALUES (1)")
	b := pl.Query("INSERT INTO f (k) VALUES (2)")
	c := pl.Query("INSERT INTO f (k) VALUES (3)")
	err := pl.Flush()
	if !IsTransient(err) {
		t.Fatalf("flush must report the transport failure: %v", err)
	}
	for i, pd := range []*Pending{a, b, c} {
		if perr := pd.Err(); !IsTransient(perr) {
			t.Fatalf("pending %d: want poisoning ConnError, got %v", i, perr)
		}
	}

	// The two undrained responses are still queued in the transport: a
	// plain round trip must detect the desync via correlation ids rather
	// than deliver INSERT 2's response to the new request.
	fault.Reset()
	_, err = conn.Query("SELECT count(*) FROM f")
	if !IsTransient(err) || !strings.Contains(err.Error(), "misdelivery") {
		t.Fatalf("desynced connection not detected: %v", err)
	}
	if !conn.closed {
		t.Fatal("misdelivery must close the connection")
	}
}

// TestPipelineDropConnMidBatch: a dropped connection mid-pipeline fails
// the batch cleanly (no hang, no misdelivery) and closes the conn.
func TestPipelineDropConnMidBatch(t *testing.T) {
	defer fault.Reset()
	e := newEngine(t)
	conn := connect(t, e, 0)
	mustQ(t, conn, "CREATE TABLE d (k bigint PRIMARY KEY)")

	fault.Reset()
	fault.Arm(fault.Rule{Point: fault.PointWireSend, Key: "query", Action: fault.ActDropConn, After: 1, Count: 1})

	pl := conn.Pipeline(0)
	a := pl.Query("INSERT INTO d (k) VALUES (1)")
	b := pl.Query("INSERT INTO d (k) VALUES (2)") // send fault drops the conn here
	c := pl.Query("INSERT INTO d (k) VALUES (3)")
	err := pl.Flush()
	if !errors.Is(err, fault.ErrDropConn) {
		t.Fatalf("flush: want injected drop, got %v", err)
	}
	// The pre-drop request's fate is indeterminate at the client (its
	// response was never drained) — it must fail as transient, like the
	// rest of the batch.
	for i, pd := range []*Pending{a, b, c} {
		if perr := pd.Err(); !IsTransient(perr) {
			t.Fatalf("pending %d after drop: %v", i, perr)
		}
	}
	if !conn.closed {
		t.Fatal("drop-conn fault must close the connection")
	}
}

// TestPipelinePendingBeforeFlush: reading a future before its response is
// drained is a protocol-misuse error, not a bogus result.
func TestPipelinePendingBeforeFlush(t *testing.T) {
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	pl := conn.Pipeline(0)
	pd := pl.Query("SELECT 1")
	if err := pd.Err(); !errors.Is(err, errNotDrained) {
		t.Fatalf("undrained pending: %v", err)
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pd.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSeqCorrelationOnSingleRoundTrips(t *testing.T) {
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Query("SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	if conn.seq != 3 {
		t.Fatalf("sequence not advancing: %d", conn.seq)
	}
}

// TestCrashLosesTheWindow: the engine crashes while the middle request of a
// pipelined window is parked at wal.fsync, inside its commit. A dead node
// answers nothing: not the request it was handling, and not the one before it
// in the window, whose response was still unwritten. Every request of the
// window fails with a ConnError.
func TestCrashLosesTheWindow(t *testing.T) {
	defer fault.Reset()
	e := newEngine(t)
	conn := connect(t, e, 0)
	defer conn.Close()
	mustQ(t, conn, "CREATE TABLE w (k bigint PRIMARY KEY)")

	arrived, release := fault.ArmGate(fault.PointWALFsync, wal.RecCommit.String()+"@"+e.Name)
	pl := conn.Pipeline(0)
	window := []*Pending{
		pl.Query("SELECT count(*) FROM w"),
		pl.Query("INSERT INTO w (k) VALUES (1)"),
		pl.Query("SELECT count(*) FROM w"),
	}
	flushed := make(chan error, 1)
	go func() { flushed <- pl.Flush() }()
	<-arrived
	e.Crash()
	release(nil)
	if err := <-flushed; !IsTransient(err) {
		t.Fatalf("flush after the crash: %v, want a ConnError", err)
	}
	for i, pd := range window {
		if err := pd.Err(); !IsTransient(err) {
			t.Errorf("request %d of the window: %v, want a ConnError", i, err)
		}
	}
}
