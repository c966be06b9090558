package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"citusgo/internal/fault"
	"citusgo/internal/repl"
)

// soakMaxLag is the async-mode lag bound every soak scenario runs under:
// small enough that a violation is visible within a 20-batch run.
const soakMaxLag = 8

func modeName(m repl.Mode) string {
	if m == repl.ModeSync {
		return "sync"
	}
	return "async"
}

// soakRun is one replicated chaos scenario end to end: writes under
// ship/apply/commit faults, a primary crash, promotion, and the two
// invariants the replication substrate promises —
//
//   - sync: no acknowledged write is lost across primary crash → promotion;
//   - async: staleness after failover is bounded by MaxAsyncLag records;
//
// plus all-or-none atomicity of every batch and a working promoted primary.
func soakRun(t *testing.T, seed int64, mode repl.Mode) {
	// The recovery daemon runs throughout: a faulted COMMIT PREPARED leaves
	// an acked transaction prepared on a worker, holding its row locks — the
	// daemon must resolve it or the next batch blocks on those locks forever.
	h := New(t, Options{
		Seed:              seed,
		ReplicationFactor: 1,
		ReplicationMode:   mode,
		MaxAsyncLag:       soakMaxLag,
		RecoveryInterval:  5 * time.Millisecond,
		RecoveryGrace:     100 * time.Millisecond,
	})
	dumpArtifactOnFailure(t, h)
	h.CreateTable("soak")
	keys, nodeIDs := h.KeysOnDistinctWorkers("soak", 2)
	h.SeedRows("soak", keys)

	// The fault brew: probabilistic delays at the ship and apply seams so
	// replication runs behind the executor, plus COMMIT PREPARED failures —
	// an acked-by-commit-record transaction whose COMMIT PREPARED never ran
	// on the victim is exactly the write a broken failover would lose.
	fault.Arm(fault.Rule{Point: fault.PointReplShip, Action: fault.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.3})
	fault.Arm(fault.Rule{Point: fault.PointReplApply, Action: fault.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.3})
	fault.Arm(fault.Rule{Point: fault.Point2PCCommit, Action: fault.ActError, Prob: 0.15})

	s := h.C.Session()
	var lastAcked int64
	for b := int64(1); b <= 20; b++ {
		if err := h.UpdateAll(s, "soak", keys, b); err == nil {
			lastAcked = b
		}
	}
	if lastAcked == 0 {
		t.Fatalf("chaos soak: no batch ever committed (seed %d)", h.Seed)
	}

	victim := nodeIDs[0]
	fault.Reset() // the crash window is over; drain and recovery run clean
	newID, err := h.C.Failover(victim - 1)
	if err != nil {
		t.Fatalf("chaos soak: failover of node %d: %v (seed %d)", victim, err, h.Seed)
	}
	if h.C.StandbyEngine(newID) == nil {
		t.Fatalf("chaos soak: promoted node %d has no engine (seed %d)", newID, h.Seed)
	}
	// Resolve transactions whose COMMIT PREPARED was faulted: the promoted
	// standby inherited them as prepared via the WAL stream, and recovery
	// must commit them there from the coordinator's commit records.
	h.Quiesce(5 * time.Second)
	// Replica reads are allowed bounded staleness in async mode; drain the
	// surviving shippers so the all-or-none check sees the settled state,
	// not a standby mid-apply.
	drainRepl(t, h)

	vals := h.ValuesAt("soak", keys)
	for _, v := range vals[1:] {
		if v != vals[0] {
			t.Fatalf("chaos soak: torn state after failover: %v (seed %d)", vals, h.Seed)
		}
	}
	floor := lastAcked
	if mode == repl.ModeAsync {
		floor = lastAcked - soakMaxLag
	}
	if vals[0] < floor {
		t.Fatalf("chaos soak: acked batch %d lost after failover: visible %d < floor %d (seed %d)",
			lastAcked, vals[0], floor, h.Seed)
	}
	// The promoted primary serves writes, and they commit atomically.
	if err := h.UpdateAll(s, "soak", keys, 1000); err != nil {
		t.Fatalf("chaos soak: post-failover write: %v (seed %d)", err, h.Seed)
	}
	drainRepl(t, h)
	if !h.CheckAtomic("soak", keys, 1000) {
		t.Fatalf("chaos soak: post-failover batch not visible (seed %d)", h.Seed)
	}
}

// drainRepl waits until no active primary's standby lags — the point where
// replica reads are current and convergence assertions are meaningful.
func drainRepl(t *testing.T, h *Harness) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, w := range h.C.Meta.WorkerNodes() {
			if h.C.Repl.Lag(w.ID) != 0 {
				settled = false
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos: replication never drained (seed %d)", h.Seed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosSyncFailoverNoAckedWriteLost is the standalone sync-mode proof
// (the soak matrix runs the same scenario across many seeds).
func TestChaosSyncFailoverNoAckedWriteLost(t *testing.T) {
	soakRun(t, 0, repl.ModeSync)
}

// TestChaosSoakMatrix is the CI soak: the same crash/promotion scenario
// under every seed in the matrix, sync and async. The default seed list is
// the short PR-gating variant; the nightly job widens it via
// CHAOS_SOAK_SEEDS (comma-separated). On failure each scenario writes its
// seed and the per-node trace rings to CHAOS_ARTIFACT_DIR for upload.
func TestChaosSoakMatrix(t *testing.T) {
	for _, mode := range []repl.Mode{repl.ModeSync, repl.ModeAsync} {
		for _, seed := range soakSeeds() {
			t.Run(fmt.Sprintf("%s/seed%d", modeName(mode), seed), func(t *testing.T) {
				soakRun(t, seed, mode)
			})
		}
	}
}

// soakSeeds returns the seed matrix: CHAOS_SOAK_SEEDS if set, else a short
// fixed pair that keeps the PR-gating run fast.
func soakSeeds() []int64 {
	env := os.Getenv("CHAOS_SOAK_SEEDS")
	if env == "" {
		return []int64{1, 2}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			panic("CHAOS_SOAK_SEEDS: bad seed " + f)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// dumpArtifactOnFailure registers a cleanup that, if the test failed and
// CHAOS_ARTIFACT_DIR is set, writes the failing seed plus every node's
// trace ring — the post-mortem bundle the soak workflow uploads.
func dumpArtifactOnFailure(t *testing.T, h *Harness) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chaos: artifact dir: %v", err)
			return
		}
		name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name())
		path := filepath.Join(dir, name+".txt")
		var b strings.Builder
		fmt.Fprintf(&b, "test: %s\nseed: %d\nreproduce: FAULT_SEED=%d go test ./internal/fault/chaos -run '%s'\n",
			t.Name(), h.Seed, h.Seed, t.Name())
		for _, eng := range h.C.Engines {
			fmt.Fprintf(&b, "\n--- trace ring: %s ---\n", eng.Name)
			for _, sp := range eng.Tracer.Dump() {
				fmt.Fprintf(&b, "%+v\n", sp)
			}
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Logf("chaos: writing artifact: %v", err)
			return
		}
		t.Logf("chaos: artifact written to %s", path)
	})
}

// TestChaosAsyncBoundedStaleness proves the async-mode lag contract: with
// every standby apply throttled, the commit path still never lets a
// standby fall more than MaxAsyncLag records behind, standbys converge
// once the throttle lifts, and failover loses nothing the sealed log holds.
func TestChaosAsyncBoundedStaleness(t *testing.T) {
	const maxLag = 8
	h := New(t, Options{
		ReplicationFactor: 1,
		ReplicationMode:   repl.ModeAsync,
		MaxAsyncLag:       maxLag,
	})
	h.CreateTable("st")

	fault.Arm(fault.Rule{Point: fault.PointReplApply, Action: fault.ActDelay, Delay: 300 * time.Microsecond})
	s := h.C.Session()
	const rows = 60
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO st (k, v) VALUES (%d, %d)", i, i)); err != nil {
			t.Fatalf("insert %d: %v (seed %d)", i, err, h.Seed)
		}
		for _, w := range h.C.Meta.WorkerNodes() {
			if lag := h.C.Repl.Lag(w.ID); lag > maxLag {
				t.Fatalf("async lag %d exceeds bound %d on node %d after insert %d (seed %d)",
					lag, maxLag, w.ID, i, h.Seed)
			}
		}
	}
	if fault.Fired(fault.PointReplApply) == 0 {
		t.Fatal("apply throttle never fired — the test exercised nothing")
	}
	fault.Reset()

	// With the throttle lifted the shippers drain: lag reaches zero.
	workers := h.C.Meta.WorkerNodes()
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, w := range workers {
			if h.C.Repl.Lag(w.ID) != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standbys never converged after throttle removal (seed %d)", h.Seed)
		}
		time.Sleep(time.Millisecond)
	}

	// Failover: promotion drains the sealed log to its tip, so the
	// in-process crash loses nothing — and certainly no more than the bound.
	victim := workers[0].ID
	if _, err := h.C.Failover(victim - 1); err != nil {
		t.Fatalf("failover: %v (seed %d)", err, h.Seed)
	}
	res := h.MustExec("SELECT count(*) FROM st")
	if got := res.Rows[0][0].(int64); got != rows {
		t.Fatalf("post-failover count = %d, want %d (seed %d)", got, rows, h.Seed)
	}
}

// TestChaosPromoteCrashPoints crashes the promotion at its two seams: a
// failure before the drain or before the catalog flip must leave the
// catalog untouched — same roles, same metadata version, no torn
// promotion for cached plans to trip over.
func TestChaosPromoteCrashPoints(t *testing.T) {
	for _, stage := range []string{"drain", "flip"} {
		t.Run(stage, func(t *testing.T) {
			h := New(t, Options{ReplicationFactor: 1, ReplicationMode: repl.ModeSync})
			h.CreateTable("pc")
			keys, nodeIDs := h.KeysOnDistinctWorkers("pc", 2)
			h.SeedRows("pc", keys)

			victim := nodeIDs[0]
			if err := h.C.CrashWorker(victim - 1); err != nil {
				t.Fatal(err)
			}
			fault.Arm(fault.Rule{Point: fault.PointReplPromote, Key: stage, Action: fault.ActError, Count: 1})
			v := h.C.Meta.Version()
			if _, err := h.C.Failover(victim - 1); err == nil {
				t.Fatalf("promotion succeeded despite %s fault (seed %d)", stage, h.Seed)
			}
			if got := fault.Fired(fault.PointReplPromote); got != 1 {
				t.Fatalf("promote fault fired %d times, want 1", got)
			}
			if h.C.Meta.Version() != v {
				t.Fatalf("failed promotion bumped the metadata version (seed %d)", h.Seed)
			}
			node, ok := h.C.Meta.Node(victim)
			if !ok || node.Standby {
				t.Fatalf("failed promotion flipped node %d's role: %+v (seed %d)", victim, node, h.Seed)
			}
		})
	}
}

// TestRestartFailedOverPrimaryRejoinsAsStandby is the regression test for
// restarting a replicated primary that has already been failed over: the
// catalog says the node is a standby of the promoted winner, so the restart
// must NOT rebuild it as a second primary (split-brain: two engines both
// accepting writes for the same placements). Instead it replays its sealed
// WAL, rejoins the promoted primary's replication group at its own tip,
// streams the post-failover history it missed, and re-enters read rotation.
func TestRestartFailedOverPrimaryRejoinsAsStandby(t *testing.T) {
	rejoinAfterFailover(t, false)
}

// TestRejoinBelowTheNewPrimarysBase is the same schedule with one step
// more: before the crashed node comes back, the promoted primary checkpoints
// and cuts its log past the crashed node's last LSN. There is no position
// left to resume the stream from, so the node starts empty and takes a base
// backup — the new primary's image and tail — and streams from where that
// copy stopped.
func TestRejoinBelowTheNewPrimarysBase(t *testing.T) {
	rejoinAfterFailover(t, true)
}

func rejoinAfterFailover(t *testing.T, cutPast bool) {
	h := New(t, Options{
		ReplicationFactor: 1,
		ReplicationMode:   repl.ModeSync,
		RecoveryInterval:  5 * time.Millisecond,
	})
	dumpArtifactOnFailure(t, h)
	h.CreateTable("rj")
	keys, nodeIDs := h.KeysOnDistinctWorkers("rj", 2)
	h.SeedRows("rj", keys)
	s := h.C.Session()
	if err := h.UpdateAll(s, "rj", keys, 1); err != nil {
		t.Fatalf("pre-failover batch: %v (seed %d)", err, h.Seed)
	}

	victim := nodeIDs[0]
	newID, err := h.C.Failover(victim - 1)
	if err != nil {
		t.Fatalf("failover of node %d: %v (seed %d)", victim, err, h.Seed)
	}
	// History the crashed node missed: committed only after the promotion.
	if err := h.UpdateAll(s, "rj", keys, 2); err != nil {
		t.Fatalf("post-failover batch: %v (seed %d)", err, h.Seed)
	}
	if cutPast {
		crashedAt := h.C.Engines[victim-1].WAL.LastLSN()
		primary := h.C.StandbyEngine(newID)
		if !primary.Checkpoint() {
			t.Fatalf("promoted node %d refused to checkpoint (seed %d)", newID, h.Seed)
		}
		if first := primary.WAL.FirstLSN(); first <= crashedAt+1 {
			t.Fatalf("promoted node's log starts at %d, not past the crashed node's last LSN %d (seed %d)",
				first, crashedAt, h.Seed)
		}
	}

	if err := h.C.RestartWorker(victim - 1); err != nil {
		t.Fatalf("restart of failed-over node %d: %v (seed %d)", victim, err, h.Seed)
	}
	if cutPast {
		if got, want := h.C.StandbyEngine(victim).WAL.Base(), h.C.StandbyEngine(newID).WAL.Base(); got == nil || got != want {
			t.Fatalf("rejoined standby's log sits on base %p, want the new primary's %p (seed %d)", got, want, h.Seed)
		}
	}
	node, ok := h.C.Meta.Node(victim)
	if !ok || !node.Standby || node.StandbyOf != newID {
		t.Fatalf("restarted node %d did not rejoin as standby of %d: %+v (seed %d)",
			victim, newID, node, h.Seed)
	}
	if h.C.Meta.NodeDown(victim) {
		t.Fatalf("rejoined standby %d still marked down (seed %d)", victim, h.Seed)
	}

	// Sync-mode commits wait for the rejoined standby's ack again: this
	// batch cannot commit unless the restarted engine applies it.
	if err := h.UpdateAll(s, "rj", keys, 3); err != nil {
		t.Fatalf("post-rejoin batch: %v (seed %d)", err, h.Seed)
	}
	drainRepl(t, h)

	// Read the restarted engine directly: it must hold the pre-failover
	// history it replayed from its own WAL AND everything streamed after the
	// rejoin — including the batch committed while it was down.
	sb := h.C.StandbyEngine(victim)
	if sb == nil {
		t.Fatalf("rejoined standby %d has no engine (seed %d)", victim, h.Seed)
	}
	sh, err := h.C.Meta.ShardForValue("rj", keys[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.NewSession().Exec(fmt.Sprintf("SELECT v FROM %s WHERE k = %d", sh.ShardName(), keys[0]))
	if err != nil {
		t.Fatalf("reading rejoined standby: %v (seed %d)", err, h.Seed)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 3 {
		t.Fatalf("rejoined standby holds %v for key %d, want batch 3 (seed %d)",
			res.Rows, keys[0], h.Seed)
	}
	if !h.CheckAtomic("rj", keys, 3) {
		t.Fatalf("post-rejoin batch not atomically visible (seed %d)", h.Seed)
	}
}

// TestRestartWorkerDuringRetryBackoff is the regression test for the
// restart-vs-retry race: readers sit in transient-retry backoff against a
// crashed worker while RestartWorker rewires the mesh. The quiesce gate in
// RestartWorker must keep the swap off the retry path — no panic, no
// misrouted read, and a consistent cluster afterwards.
func TestRestartWorkerDuringRetryBackoff(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("rw")
	keys, nodeIDs := h.KeysOnDistinctWorkers("rw", 2)
	h.SeedRows("rw", keys)
	for i, k := range keys {
		h.MustExec("UPDATE rw SET v = $1 WHERE k = $2", int64(i+1), k)
	}

	// Sprinkle transport drops so reads regularly enter the retry loop.
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Prob: 0.1})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := h.C.Session()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Reads may fail while a worker is down; they must never
				// panic or return the wrong row once they succeed.
				res, err := s.Exec("SELECT v FROM rw WHERE k = $1", keys[i%len(keys)])
				if err == nil && len(res.Rows) == 1 {
					if v := res.Rows[0][0].(int64); v != int64(i%len(keys)+1) {
						panic(fmt.Sprintf("misrouted read: k=%d v=%d", keys[i%len(keys)], v))
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		idx := nodeIDs[r%len(nodeIDs)] - 1
		if err := h.C.CrashWorker(idx); err != nil {
			t.Fatalf("crash %d: %v (seed %d)", idx, err, h.Seed)
		}
		time.Sleep(2 * time.Millisecond) // let readers pile into retry backoff
		if err := h.C.RestartWorker(idx); err != nil {
			t.Fatalf("restart %d: %v (seed %d)", idx, err, h.Seed)
		}
	}
	close(done)
	wg.Wait()
	fault.Reset()

	for i, k := range keys {
		res := h.MustExec("SELECT v FROM rw WHERE k = $1", k)
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(i+1) {
			t.Fatalf("post-restart read k=%d: %v (seed %d)", k, res.Rows, h.Seed)
		}
	}
}
