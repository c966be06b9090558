package chaos

import (
	"sync"
	"testing"
	"time"

	"citusgo/internal/fault"
)

// TestChaosSmoke is the CI chaos run (`make chaos-smoke`): concurrent
// multi-shard writers under probabilistic wire faults while a worker is
// killed and restarted mid-workload, with the recovery and deadlock
// daemons running. After the cluster quiesces it checks the §3.7.2
// invariants:
//
//   - every transaction that reported commit is fully visible (its writer's
//     keys all reached at least that batch);
//   - no transaction is torn: each writer's keys — on different workers —
//     always hold the same batch value (all-or-none);
//   - recovery leaves no dangling prepared transactions.
//
// It ends with one cell of the shard-move matrix.
//
// The seed is logged on every run; failures reproduce with FAULT_SEED=<n>.
func TestChaosSmoke(t *testing.T) {
	h := New(t, Options{
		Workers:          3,
		RecoveryInterval: 25 * time.Millisecond,
		RecoveryGrace:    300 * time.Millisecond,
		DeadlockInterval: 50 * time.Millisecond,
	})
	h.CreateTable("smoke")

	// Disjoint key sets per writer, each spanning two distinct workers, so
	// every transaction needs 2PC and writers never lock-conflict.
	const writers = 4
	perWriter := make([][]int64, writers)
	used := map[int64]bool{}
	for w := 0; w < writers; w++ {
		seen := map[int]bool{}
		for k := int64(0); k < 10000 && len(perWriter[w]) < 2; k++ {
			if used[k] {
				continue
			}
			sh, err := h.C.Meta.ShardForValue("smoke", k)
			if err != nil {
				t.Fatal(err)
			}
			nodeID, err := h.C.Meta.PrimaryPlacement(sh.ID)
			if err != nil {
				t.Fatal(err)
			}
			if nodeID == 1 || seen[nodeID] {
				continue
			}
			seen[nodeID] = true
			used[k] = true
			perWriter[w] = append(perWriter[w], k)
		}
		if len(perWriter[w]) < 2 {
			t.Fatalf("writer %d: not enough keys on distinct workers", w)
		}
		h.SeedRows("smoke", perWriter[w])
	}

	// Background noise: occasional wire delays everywhere, and a small
	// chance of losing any query response (dropped responses during 2PC
	// leave dangling prepared transactions for the recovery daemon).
	fault.Arm(fault.Rule{Point: fault.PointWireSend, Action: fault.ActDelay, Delay: 200 * time.Microsecond, Prob: 0.05})
	fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Prob: 0.02})

	const txnsPerWriter = 30
	lastCommitted := make([]int64, writers)
	attempts := make([]int64, writers)
	// underway closes at the first commit of any writer: the crashes come
	// mid-workload, not before it, however slow the host is to get there —
	// with worker 1 down every attempt fails at once, and a writer can spend
	// all its attempts inside one outage.
	underway := make(chan struct{})
	var firstCommit sync.Once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := h.C.Session()
			for i := 1; i <= txnsPerWriter; i++ {
				batch := int64(w*1000 + i)
				attempts[w] = batch
				if err := h.UpdateAll(s, "smoke", perWriter[w], batch); err == nil {
					lastCommitted[w] = batch
					firstCommit.Do(func() { close(underway) })
				}
			}
		}(w)
	}

	// Checkpoints land wherever they land in the workload, far more often
	// than a node's own maintenance pass would take them.
	stopCheckpoints := make(chan struct{})
	checkpointsDone := make(chan struct{})
	go func() {
		defer close(checkpointsDone)
		for {
			select {
			case <-stopCheckpoints:
				return
			case <-time.After(3 * time.Millisecond):
				h.C.Checkpoint()
			}
		}
	}()

	// Kill worker 1 mid-workload and bring it back from its WAL — base image
	// and tail — and then once more: the second incarnation's log must carry
	// everything the first recovered.
	select {
	case <-underway:
	case <-time.After(10 * time.Second): // the progress check below fails
	}
	for crash := 0; crash < 2; crash++ {
		time.Sleep(30 * time.Millisecond)
		if err := h.C.CrashWorker(1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		if err := h.C.RestartWorker(1); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stopCheckpoints)
	<-checkpointsDone

	// Stop injecting and let recovery settle every dangling prepared txn.
	fired := fault.Fired(fault.PointWireSend) + fault.Fired(fault.PointWireRecv)
	fault.Reset()
	h.Quiesce(10 * time.Second)

	committed := 0
	for w := 0; w < writers; w++ {
		vals := h.ValuesAt("smoke", perWriter[w])
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("writer %d: torn transaction: values %v across workers (seed %d)", w, vals, h.Seed)
			}
		}
		if vals[0] < lastCommitted[w] {
			t.Fatalf("writer %d: reported commit of batch %d but keys hold %d (seed %d)",
				w, lastCommitted[w], vals[0], h.Seed)
		}
		if vals[0] > attempts[w] {
			t.Fatalf("writer %d: keys hold %d, beyond any attempted batch %d (seed %d)",
				w, vals[0], attempts[w], h.Seed)
		}
		if lastCommitted[w] > 0 {
			committed++
		}
	}
	if got := h.DanglingPrepared(); got != 0 {
		t.Fatalf("dangling prepared = %d after quiesce (seed %d)", got, h.Seed)
	}
	t.Logf("chaos smoke: %d/%d writers committed work; %d wire faults fired (seed %d)",
		committed, writers, fired, h.Seed)
	if committed == 0 {
		t.Fatalf("no writer ever committed — cluster never made progress (seed %d)", h.Seed)
	}

	// One cell of the shard-move matrix (TestRebalanceMoveMatrix): a 2PC
	// writer held off by a move's write block, the move failing at its flip,
	// then a retried move with a writer planned again behind it.
	t.Run("move", func(t *testing.T) { runMoveCell(t, "metadata_flip", "2pc") })
}
