package citus_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/types"
)

// pipelineCluster boots a cluster whose shared connection limit forces
// several tasks per connection, so multi-shard fan-out actually exercises
// pipelined windows.
func pipelineCluster(t *testing.T, cfg citus.Config) *cluster.Cluster {
	t.Helper()
	cfg.DeadlockInterval = -1
	cfg.RecoveryInterval = -1
	c, err := cluster.New(cluster.Config{
		Workers:    2,
		ShardCount: 16,
		Citus:      cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestPipelineStressMisdelivery is the -race stress test for the pipelined
// wire protocol: concurrent multi-shard fan-out queries and point reads
// run over connections that carry ≥4 tasks per pipelined window (shared
// connection limit 2 against 8 shards per worker), while a DDL loop keeps
// bumping the worker schema versions (stale parse trees mid-window) and
// injected drop-conn faults kill connections mid-pipeline. Correctness
// conditions: every response lands on the request that issued it (a point
// read must see exactly its own key's value — a misdelivered response
// fails this), no stale plan executes, and teardown is clean.
func TestPipelineStressMisdelivery(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{MaxSharedPoolSize: 2, PipelineWindow: 8})
	s := c.Session()

	mustExec(t, s, "CREATE TABLE ps (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('ps', 'k')")
	mustExec(t, s, "CREATE TABLE ps_ddl (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('ps_ddl', 'k')")

	const keys = 160
	rows := make([]types.Row, 0, keys)
	wantSum := int64(0)
	for k := int64(0); k < keys; k++ {
		rows = append(rows, types.Row{k, k * 7})
		wantSum += k * 7
	}
	if _, err := s.CopyFrom("ps", []string{"k", "v"}, rows); err != nil {
		t.Fatal(err)
	}

	batchesBefore := obs.Default().Snapshot().Sum("wire_pipeline_batches_total")

	const readers = 6
	const minIters = 40
	const maxIters = 5000
	var loopDone, readerGone atomic.Bool
	var pointReads [readers]atomic.Int64 // point reads completed, per reader
	var wg sync.WaitGroup
	errCh := make(chan error, readers+2)

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer readerGone.Store(true)
			sess := c.Session()
			for i := 1; i <= maxIters; i++ {
				// Full fan-out: 16 shard tasks over ≤2 connections per
				// worker — each connection's queue rides pipelined windows.
				res, err := sess.Exec("SELECT count(*), sum(v) FROM ps")
				if err != nil {
					errCh <- fmt.Errorf("reader %d iter %d fan-out: %w", id, i, err)
					return
				}
				if cnt := res.Rows[0][0].(int64); cnt != keys {
					errCh <- fmt.Errorf("reader %d iter %d: count %d, want %d", id, i, cnt, keys)
					return
				}
				if sum := res.Rows[0][1].(int64); sum != wantSum {
					errCh <- fmt.Errorf("reader %d iter %d: sum %d, want %d", id, i, sum, wantSum)
					return
				}
				// Point read with a per-reader key: the answer is a pure
				// function of the key, so a response delivered to the wrong
				// request is caught immediately.
				k := int64((i*readers + id) % keys)
				res, err = sess.Exec("SELECT v FROM ps WHERE k = $1", k)
				if err != nil {
					errCh <- fmt.Errorf("reader %d iter %d point: %w", id, i, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].(int64) != k*7 {
					errCh <- fmt.Errorf("reader %d iter %d: key %d read %v, want %d (response misdelivery?)",
						id, i, k, res.Rows, k*7)
					return
				}
				pointReads[id].Add(1)
				if i >= minIters && loopDone.Load() {
					return
				}
			}
		}(w)
	}

	// DDL and fault loop. Each CREATE INDEX bumps worker schema versions, so
	// the sessions behind in-flight pipelined windows find their cached parse
	// trees stale and parse again in place, never run stale. Between two DDL
	// statements one connection is killed mid-pipeline (recv of a task's
	// response): every task on the wire then is a reader's, which must absorb
	// the drop through the refresh-and-retry path — a task is a task on the
	// wire, so what keeps the DDL writes out of the blast radius (writes are
	// never retried) is that no drop is armed while one runs. That makes this
	// test narrower than it was while the two loops ran side by side: a
	// connection killed while a DDL statement is bumping schema versions is no
	// longer exercised here. There are 8 drops, and the readers stay until the
	// last has fired. The next one is armed only once the previous one has
	// fired and every reader has since completed a point read, so no read
	// meets two drops. Armed on the wall clock they pile up behind a slow first
	// fan-out (-race), and even one at a time the first reader out of that
	// fan-out is alone on the wire long enough to meet four in a row — its
	// whole retry budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer loopDone.Store(true)
		sess := c.Session()
		wait := func(cond func() bool) {
			for !cond() && !readerGone.Load() {
				time.Sleep(200 * time.Microsecond)
			}
		}
		for i := int64(0); i < 12 && !readerGone.Load(); i++ {
			if _, err := sess.Exec(fmt.Sprintf("CREATE INDEX ps_stress_%d ON ps_ddl (v)", i)); err != nil {
				errCh <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
			if i >= 8 {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			fault.Arm(fault.Rule{
				Point: fault.PointWireRecv, Key: "query",
				Action: fault.ActDropConn, Count: 1,
			})
			wait(func() bool { return fault.Fired(fault.PointWireRecv) > i })
			for r := range pointReads {
				seen := pointReads[r].Load()
				wait(func() bool { return pointReads[r].Load() > seen })
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if n := fault.Fired(fault.PointWireRecv); n != 8 {
		t.Errorf("%d connection drops injected, want 8", n)
	}
	if batchesAfter := obs.Default().Snapshot().Sum("wire_pipeline_batches_total"); batchesAfter <= batchesBefore {
		t.Fatalf("stress run never flushed a pipelined batch (%d -> %d)", batchesBefore, batchesAfter)
	}
}

// TestTransientRetryBound pins the bounded retry the stress test above no
// longer drives past its second attempt: a point read whose response is
// dropped k times in a row succeeds after k retries while k < maxTaskAttempts
// (4), and at k = 4 fails with the budget spent — three retries, no more.
func TestTransientRetryBound(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE rb (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('rb', 'k')")
	mustExec(t, s, "INSERT INTO rb (k, v) VALUES (1, 7)")

	for _, tc := range []struct {
		drops       int
		wantRetries int64
		wantErr     bool
	}{{1, 1, false}, {2, 2, false}, {3, 3, false}, {4, 3, true}} {
		before := obs.Default().Snapshot()
		fault.Arm(fault.Rule{
			Point: fault.PointWireRecv, Key: "query",
			Action: fault.ActDropConn, Count: tc.drops,
		})
		start := time.Now()
		res, err := s.Exec("SELECT v FROM rb WHERE k = $1", int64(1))
		elapsed := time.Since(start)
		fired := fault.Fired(fault.PointWireRecv)
		fault.Reset()
		after := obs.Default().Snapshot()
		if fired != int64(tc.drops) {
			t.Errorf("%d drops armed, %d fired", tc.drops, fired)
		}
		if got := after.Sum("executor_task_retries_total") - before.Sum("executor_task_retries_total"); got != tc.wantRetries {
			t.Errorf("%d drops: %d retries, want %d", tc.drops, got, tc.wantRetries)
		}
		if got := after.Sum("pool_discards_total") - before.Sum("pool_discards_total"); got != int64(tc.drops) {
			t.Errorf("%d drops: %d connections discarded, want %d", tc.drops, got, tc.drops)
		}
		// Doubling backoff: 500µs before the first retry, 1ms, then 2ms.
		if min := 500 * time.Microsecond * time.Duration(1<<tc.wantRetries-1); elapsed < min {
			t.Errorf("%d drops: took %v, less than the %v of backoff", tc.drops, elapsed, min)
		}
		switch {
		case tc.wantErr && err == nil:
			t.Errorf("%d drops: read succeeded, want the retry budget spent", tc.drops)
		case !tc.wantErr && err != nil:
			t.Errorf("%d drops: %v", tc.drops, err)
		case !tc.wantErr && rowsText(res) != "7":
			t.Errorf("%d drops: read %q, want 7", tc.drops, rowsText(res))
		}
	}
	if rowsText(mustExec(t, s, "SELECT v FROM rb WHERE k = $1", int64(1))) != "7" {
		t.Error("cluster unusable after the exhausted retry")
	}
}

// TestBrokenConnNeverReturnsToPool is the regression test for the
// transportFailure audit: any task that fails with a transport-level
// ConnError — read retries exhausted, a failed write, or a poisoned
// pipelined window — must leave its connection marked broken so every
// disposition path discards it. Recycling it would hand later checkouts a
// closed or desynced connection.
func TestBrokenConnNeverReturnsToPool(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{})
	for _, e := range c.Engines {
		e.SetFeatures(engine.Features{NoPlanCache: true})
	}
	s := c.Session()
	mustExec(t, s, "CREATE TABLE bc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('bc', 'k')")
	for i := 0; i < 8; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO bc (k, v) VALUES (%d, 0)", i))
	}

	// A write task whose response is lost: not retryable, and the
	// connection is no longer trustworthy.
	discardsBefore := obs.Default().Snapshot().Sum("pool_discards_total")
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActError, Count: 1})
	if _, err := s.Exec("UPDATE bc SET v = 1 WHERE k = 0"); err == nil {
		t.Fatal("write with injected recv failure must error")
	}
	fault.Reset()
	discardsAfter := obs.Default().Snapshot().Sum("pool_discards_total")
	if discardsAfter <= discardsBefore {
		t.Fatalf("broken connection was not discarded (discards %d -> %d)", discardsBefore, discardsAfter)
	}
	for nodeID := 2; nodeID <= 3; nodeID++ {
		total, idle := c.Coordinator().PoolStats(nodeID)
		if total != idle {
			t.Fatalf("node %d: %d connections checked out after statement end (total %d, idle %d)",
				nodeID, total-idle, total, idle)
		}
	}
	// The pool must hand out working connections afterwards.
	res := mustExec(t, s, "SELECT count(*) FROM bc")
	if res.Rows[0][0].(int64) != 8 {
		t.Fatalf("rows after discard: %v", res.Rows)
	}

	// Same audit for the COPY path: a stream whose COPY hits a transport
	// failure must discard its connection, not Put it back.
	discardsBefore = obs.Default().Snapshot().Sum("pool_discards_total")
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "copy", Action: fault.ActError, Count: 1})
	rows := make([]types.Row, 0, 16)
	for k := int64(100); k < 116; k++ {
		rows = append(rows, types.Row{k, k})
	}
	if _, err := s.CopyFrom("bc", []string{"k", "v"}, rows); err == nil {
		t.Fatal("COPY with injected recv failure must error")
	}
	fault.Reset()
	discardsAfter = obs.Default().Snapshot().Sum("pool_discards_total")
	if discardsAfter <= discardsBefore {
		t.Fatalf("COPY stream's broken connection was not discarded (discards %d -> %d)", discardsBefore, discardsAfter)
	}
	if !strings.Contains(mustExec(t, s, "SELECT count(*) FROM bc").Tag, "SELECT") {
		t.Fatal("cluster unusable after COPY failure")
	}
}

// TestRefreshUnderLimitGetsItsSlotBack: a fan-out window loses its connection
// while the statement holds every slot of the shared connection limit, again
// and again, with the statement's own slow-start ramp — which ticks far more
// often here than a retry backs off — asking the pool for more. The retry
// dials again inside the dead connection's slot; every round answers, and no
// connection is left checked out.
func TestRefreshUnderLimitGetsItsSlotBack(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{MaxSharedPoolSize: 2, PipelineWindow: 8, SlowStartInterval: 50 * time.Microsecond})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE rl (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('rl', 'k')")
	rows := make([]types.Row, 0, 64)
	for k := int64(0); k < 64; k++ {
		rows = append(rows, types.Row{k, k})
	}
	if _, err := s.CopyFrom("rl", []string{"k", "v"}, rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, After: i % 8, Count: 1})
		done := make(chan string, 1)
		go func() {
			res, err := s.Exec("SELECT count(*), sum(v) FROM rl")
			if err != nil {
				done <- err.Error()
				return
			}
			done <- rowsText(res)
		}()
		select {
		case got := <-done:
			if got != "64|2016" {
				t.Fatalf("round %d: %s, want 64|2016", i, got)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: the statement never finished", i)
		}
		fault.Reset()
		noConnCheckedOut(t, c, 2, 3)
	}
}

// TestParkedSessionProceedsOnPutOrDiscard: a session parked on a saturated
// shared connection limit proceeds when the session holding the slot gives
// its connection back — to the pool at COMMIT (Put), or closed after it died
// inside the block (Discard).
func TestParkedSessionProceedsOnPutOrDiscard(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{MaxSharedPoolSize: 1})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE pk (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('pk', 'k')")
	key := keysOnNodes(t, c, "pk", 2)[0]
	mustExec(t, s, "INSERT INTO pk (k, v) VALUES ($1, 0)", key)
	for _, end := range []string{"put", "discard"} {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "UPDATE pk SET v = v + 1 WHERE k = $1", key) // worker 2's only slot
		waitsFrom := obs.Default().Snapshot().Sum("executor_conn_waits_total")
		parked := make(chan error, 1)
		go func() {
			_, err := c.Session().Exec("SELECT v FROM pk WHERE k = $1", key)
			parked <- err
		}()
		for obs.Default().Snapshot().Sum("executor_conn_waits_total") == waitsFrom {
			time.Sleep(100 * time.Microsecond) // until the second session is turned away at the limit
		}
		select {
		case err := <-parked:
			t.Fatalf("%s: the second session ran (%v) while the slot was held", end, err)
		case <-time.After(20 * time.Millisecond):
		}
		if end == "put" {
			mustExec(t, s, "COMMIT")
		} else {
			fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
			if _, err := s.Exec("UPDATE pk SET v = v + 1 WHERE k = $1", key); err == nil {
				t.Fatal("discard: the UPDATE on a dropped connection succeeded")
			}
			fault.Reset()
			mustExec(t, s, "ROLLBACK")
		}
		select {
		case err := <-parked:
			if err != nil {
				t.Fatalf("%s: the parked session: %v", end, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the parked session never proceeded", end)
		}
	}
	expectRows(t, mustExec(t, s, "SELECT v FROM pk WHERE k = $1", key), "1")
	noConnCheckedOut(t, c, 2, 3)
}

// TestRetryRedialsInsideItsSlot: at a shared limit of one connection per
// worker, a read whose connection dies re-dials inside the slot that
// connection held (pool.Replace). Alone, the retrying session never waits for
// a connection: executor_conn_waits_total stands still. And with a second
// session parked on the limit — waiting for the very slot the dead connection
// holds — the retry still succeeds, and so then does the parked session.
func TestRetryRedialsInsideItsSlot(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	c := pipelineCluster(t, citus.Config{MaxSharedPoolSize: 1, PipelineWindow: 8})
	s := c.Session()
	mustExec(t, s, "CREATE TABLE rs (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('rs', 'k')")
	rows := make([]types.Row, 0, 64)
	for k := int64(0); k < 64; k++ {
		rows = append(rows, types.Row{k, k})
	}
	if _, err := s.CopyFrom("rs", []string{"k", "v"}, rows); err != nil {
		t.Fatal(err)
	}
	const q, want = "SELECT count(*), sum(v) FROM rs", "64|2016"

	before := obs.Default().Snapshot()
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
	if got := rowsText(mustExec(t, s, q)); got != want {
		t.Fatalf("alone: %s, want %s", got, want)
	}
	fault.Reset()
	after := obs.Default().Snapshot()
	if counterDelta(before, after, "executor_task_retries_total") == 0 {
		t.Fatal("alone: the dropped connection caused no retry")
	}
	if waits := counterDelta(before, after, "executor_conn_waits_total"); waits != 0 {
		t.Errorf("alone: the retrying session waited for a connection %d times, want 0: it holds a slot", waits)
	}
	noConnCheckedOut(t, c, 2, 3)

	// The first session stops where it is about to read a response; the
	// second one starts and parks on the limit of the worker whose slot the
	// first holds; then the first's connection dies.
	arrived, release := fault.ArmGate(fault.PointWireRecv, "query")
	first := make(chan string, 1)
	go func() {
		res, err := s.Exec(q)
		if err != nil {
			first <- err.Error()
			return
		}
		first <- rowsText(res)
	}()
	<-arrived
	parkedFrom := obs.Default().Snapshot().Sum("executor_conn_waits_total")
	second := make(chan string, 1)
	s2 := c.Session()
	go func() {
		res, err := s2.Exec(q)
		if err != nil {
			second <- err.Error()
			return
		}
		second <- rowsText(res)
	}()
	for obs.Default().Snapshot().Sum("executor_conn_waits_total") == parkedFrom {
		time.Sleep(100 * time.Microsecond) // until the second session is turned away at the limit
	}
	release(fault.ErrDropConn)
	for name, done := range map[string]chan string{"retrying": first, "parked": second} {
		select {
		case got := <-done:
			if got != want {
				t.Errorf("%s session: %s, want %s", name, got, want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s session never finished", name)
		}
	}
	fault.Reset()
	noConnCheckedOut(t, c, 2, 3)
}
