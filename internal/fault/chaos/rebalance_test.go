package chaos

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/fault"
	"citusgo/internal/types"
)

// rebalanceStages are the seams inside a shard move, in execution order
// (see moveOneShard). Interrupting at any stage before metadata_flip must
// leave the placement on the source; the flip is the commit point.
var preFlipStages = []string{"create_shard", "snapshot_copy", "catchup", "metadata_flip"}

// TestRebalanceMoveInterrupted drives a shard move into an injected
// failure at every pre-flip stage and checks the §3.4 promises: the
// placement metadata still routes to the source, no rows are lost or
// duplicated, writes to the moving shard unblock (the fence is released),
// and the interrupted move is retryable — including after an interruption
// that left an orphan shard table on the target.
func TestRebalanceMoveInterrupted(t *testing.T) {
	h := New(t, Options{Workers: 2, ShardCount: 4})
	coord := h.C.Coordinator()
	h.CreateTable("rb")

	const rows = 200
	load := make([]types.Row, 0, rows)
	for k := int64(0); k < rows; k++ {
		load = append(load, types.Row{k, k * 10})
	}
	if _, err := h.S.CopyFrom("rb", []string{"k", "v"}, load); err != nil {
		t.Fatalf("chaos: loading rb: %v (seed %d)", err, h.Seed)
	}

	countAll := func() int64 {
		res := h.MustExec("SELECT count(*) FROM rb")
		return res.Rows[0][0].(int64)
	}
	if got := countAll(); got != rows {
		t.Fatalf("chaos: loaded %d rows, want %d", got, rows)
	}

	// otherWorker maps a worker node ID to the other worker's ID.
	workers := h.C.Meta.WorkerNodes()
	if len(workers) != 2 {
		t.Fatalf("chaos: want 2 workers, got %d", len(workers))
	}
	otherWorker := func(id int) int {
		for _, w := range workers {
			if w.ID != id {
				return w.ID
			}
		}
		t.Fatalf("chaos: no worker other than %d", id)
		return 0
	}
	// keyOnShard finds a key routing to the given shard so we can probe
	// that writes to the moving shard work after the dust settles.
	keyOnShard := func(sh *metadata.Shard) int64 {
		for k := int64(0); k < 100000; k++ {
			got, err := h.C.Meta.ShardForValue("rb", k)
			if err != nil {
				t.Fatalf("chaos: shard for %d: %v", k, err)
			}
			if got.ID == sh.ID {
				return k
			}
		}
		t.Fatalf("chaos: no key found for shard %d", sh.ID)
		return 0
	}

	shards := h.C.Meta.Shards("rb")
	if len(shards) < len(preFlipStages) {
		t.Fatalf("chaos: need %d shards, got %d", len(preFlipStages), len(shards))
	}

	for i, stage := range preFlipStages {
		sh := shards[i]
		from, err := h.C.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			t.Fatalf("chaos: placement of shard %d: %v", sh.ID, err)
		}
		to := otherWorker(from)

		fault.Arm(fault.Rule{Point: fault.PointRebalanceMove, Key: stage, Action: fault.ActError, Count: 1})
		err = coord.MoveShardPlacement(h.S, sh.ID, from, to)
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("chaos: stage %s: move did not fail with the injected fault: %v (seed %d)", stage, err, h.Seed)
		}

		// The placement metadata must be untouched — queries keep routing
		// to the source placement and see every row.
		if cur, _ := h.C.Meta.PrimaryPlacement(sh.ID); cur != from {
			t.Fatalf("chaos: stage %s: placement flipped to %d despite failed move (seed %d)", stage, cur, h.Seed)
		}
		if got := countAll(); got != rows {
			t.Fatalf("chaos: stage %s: %d rows visible after failed move, want %d (seed %d)", stage, got, rows, h.Seed)
		}
		// Writes to the moving shard must not stay blocked: the move's
		// write fence has to be released on the failure path.
		probe := keyOnShard(sh)
		h.MustExec("UPDATE rb SET v = v + 1 WHERE k = $1", probe)

		// The interrupted move is retryable — even when the failure left an
		// orphan shard table (with a partial snapshot) on the target.
		if err := coord.MoveShardPlacement(h.S, sh.ID, from, to); err != nil {
			t.Fatalf("chaos: stage %s: retrying interrupted move: %v (seed %d)", stage, err, h.Seed)
		}
		if cur, _ := h.C.Meta.PrimaryPlacement(sh.ID); cur != to {
			t.Fatalf("chaos: stage %s: retried move did not flip placement (on %d, want %d, seed %d)", stage, cur, to, h.Seed)
		}
		if got := countAll(); got != rows {
			t.Fatalf("chaos: stage %s: %d rows after retried move, want %d — rows lost or duplicated (seed %d)", stage, got, rows, h.Seed)
		}
		h.MustExec("UPDATE rb SET v = v + 1 WHERE k = $1", probe)
	}
}

// TestRebalanceMoveDropSourceFailure interrupts a move after the metadata
// flip (while dropping the source shard): the move must count as done —
// placement on the target, all rows visible — and the orphan source table
// must not break a later move back to that node.
func TestRebalanceMoveDropSourceFailure(t *testing.T) {
	h := New(t, Options{Workers: 2, ShardCount: 2})
	coord := h.C.Coordinator()
	h.CreateTable("rbd")

	const rows = 100
	load := make([]types.Row, 0, rows)
	for k := int64(0); k < rows; k++ {
		load = append(load, types.Row{k, k})
	}
	if _, err := h.S.CopyFrom("rbd", []string{"k", "v"}, load); err != nil {
		t.Fatalf("chaos: loading rbd: %v (seed %d)", err, h.Seed)
	}
	countAll := func() int64 {
		return h.MustExec("SELECT count(*) FROM rbd").Rows[0][0].(int64)
	}

	sh := h.C.Meta.Shards("rbd")[0]
	from, err := h.C.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		t.Fatal(err)
	}
	var to int
	for _, w := range h.C.Meta.WorkerNodes() {
		if w.ID != from {
			to = w.ID
		}
	}

	fault.Arm(fault.Rule{Point: fault.PointRebalanceMove, Key: "drop_source", Action: fault.ActError, Count: 1})
	if err := coord.MoveShardPlacement(h.S, sh.ID, from, to); err == nil {
		t.Fatalf("chaos: move did not surface the injected drop_source failure (seed %d)", h.Seed)
	}
	// The flip already happened: the cluster routes to the new placement.
	if cur, _ := h.C.Meta.PrimaryPlacement(sh.ID); cur != to {
		t.Fatalf("chaos: placement on %d after post-flip failure, want %d (seed %d)", cur, to, h.Seed)
	}
	if got := countAll(); got != rows {
		t.Fatalf("chaos: %d rows after post-flip failure, want %d (seed %d)", got, rows, h.Seed)
	}

	// Moving the shard back lands on the node still holding the orphan
	// source table; create_shard's cleanup must clear it, not duplicate
	// rows into it.
	if err := coord.MoveShardPlacement(h.S, sh.ID, to, from); err != nil {
		t.Fatalf("chaos: moving shard back onto orphaned node: %v (seed %d)", err, h.Seed)
	}
	if cur, _ := h.C.Meta.PrimaryPlacement(sh.ID); cur != from {
		t.Fatalf("chaos: move-back did not flip placement (seed %d)", h.Seed)
	}
	if got := countAll(); got != rows {
		t.Fatalf("chaos: %d rows after move-back, want %d — orphan table corrupted the move (seed %d)", got, rows, h.Seed)
	}
	h.MustExec(fmt.Sprintf("UPDATE rbd SET v = v + 1 WHERE k = %d", int64(0)))
}

// TestRebalanceMoveDeltaSurvivesCheckpoint stops a shard move between its
// snapshot copy and its catch-up, writes to the source shard behind the
// coordinator's back — the writes a move's delta exists for — and has the
// source checkpoint. The move holds the source's log from its start
// position, so the cut leaves the delta and the target ends with every row.
// Then the same with the hold gone: the source restarts under the move, and
// its new log, which nobody holds, is cut. Catching up from what is left
// would drop the writes; the move fails and the placement stays.
func TestRebalanceMoveDeltaSurvivesCheckpoint(t *testing.T) {
	for _, restartSource := range []bool{false, true} {
		name := "held"
		if restartSource {
			name = "source restarted"
		}
		t.Run(name, func(t *testing.T) {
			h := New(t, Options{Workers: 2, ShardCount: 4})
			h.CreateTable("mv")
			for k := int64(0); k < 40; k++ {
				h.MustExec("INSERT INTO mv (k, v) VALUES ($1, $2)", k, k)
			}
			sh := h.C.Meta.Shards("mv")[0]
			from, _ := h.C.Meta.PrimaryPlacement(sh.ID)
			to := 5 - from // workers are nodes 2 and 3
			var onShard []int64
			for k := int64(0); k < 40; k++ {
				if got, _ := h.C.Meta.ShardForValue("mv", k); got.ID == sh.ID {
					onShard = append(onShard, k)
				}
			}
			if len(onShard) < 2 {
				t.Fatalf("shard %d holds %v", sh.ID, onShard)
			}

			arrived, release := fault.ArmGate(fault.PointRebalanceMove, "catchup")
			moved := make(chan error, 1)
			go func() { moved <- h.C.Coordinator().MoveShardPlacement(h.C.Session(), sh.ID, from, to) }()
			<-arrived
			if restartSource {
				if err := h.C.CrashWorker(from - 1); err != nil {
					t.Fatal(err)
				}
				if err := h.C.RestartWorker(from - 1); err != nil {
					t.Fatal(err)
				}
			}
			src := h.C.ConnTo(from - 1)
			defer src.Close()
			for _, q := range []string{
				fmt.Sprintf("UPDATE %s SET v = 1000 WHERE k = %d", sh.ShardName(), onShard[0]),
				fmt.Sprintf("DELETE FROM %s WHERE k = %d", sh.ShardName(), onShard[1]),
			} {
				if _, err := src.Query(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			if !h.C.Engines[from-1].Checkpoint() {
				t.Fatal("source refused to checkpoint")
			}
			release(nil)
			err := <-moved

			cur, _ := h.C.Meta.PrimaryPlacement(sh.ID)
			if restartSource {
				if err == nil || !strings.Contains(err.Error(), "are gone") || cur != from {
					t.Fatalf("move over a cut delta: err %v, placement on %d (want an error, and %d)", err, cur, from)
				}
				return
			}
			if err != nil || cur != to {
				t.Fatalf("move: %v, placement on %d, want %d (seed %d)", err, cur, to, h.Seed)
			}
			if held := h.C.Engines[from-1].WAL.Len(); held == 0 {
				t.Fatal("the source's checkpoint cut the move's delta")
			}
			res := h.MustExec("SELECT v FROM mv WHERE k = $1", onShard[0])
			if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 1000 {
				t.Fatalf("the update made during the move is lost: %v", res.Rows)
			}
			if res := h.MustExec("SELECT count(*) FROM mv"); res.Rows[0][0].(int64) != 39 {
				t.Fatalf("%v rows after the move, want 39", res.Rows[0][0])
			}
			// the move over, nothing holds the source's log
			h.C.Engines[from-1].Checkpoint()
			if held := h.C.Engines[from-1].WAL.Len(); held != 0 {
				t.Fatalf("the source still holds %d records after the move", held)
			}
		})
	}
}
