package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/citus/metadata"
	"citusgo/internal/fault"
	"citusgo/internal/types"
)

// preFlipStages are the seams inside a shard move before its flip, in
// execution order (see moveGroup). Interrupting at any of them must leave
// the placement on the source; the flip is the commit point.
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

// moveSetup is a cluster of two workers with table mv — 40 rows, v = k —
// and the group of its first shard, about to move.
type moveSetup struct {
	h        *Harness
	sh       *metadata.Shard
	from, to int
	onShard  []int64 // keys of 0..39 on the moving shard
}

func newMoveSetup(t *testing.T, opts Options) *moveSetup {
	opts.Workers, opts.ShardCount = 2, 4
	h := New(t, opts)
	h.CreateTable("mv")
	for k := int64(0); k < 40; k++ {
		h.MustExec("INSERT INTO mv (k, v) VALUES ($1, $2)", k, k)
	}
	m := &moveSetup{h: h, sh: h.C.Meta.Shards("mv")[0]}
	m.from, _ = h.C.Meta.PrimaryPlacement(m.sh.ID)
	m.to = 5 - m.from // workers are nodes 2 and 3
	m.onShard = m.keysOnShard("mv", 0, 40)
	if len(m.onShard) < 2 {
		t.Fatalf("shard %d holds %v", m.sh.ID, m.onShard)
	}
	return m
}

// keysOnShard lists the keys in [lo, hi) that route to the moving shard's
// group in table.
func (m *moveSetup) keysOnShard(table string, lo, hi int64) []int64 {
	var keys []int64
	for k := lo; k < hi; k++ {
		if got, _ := m.h.C.Meta.ShardForValue(table, k); got.Index == m.sh.Index {
			keys = append(keys, k)
		}
	}
	return keys
}

// start runs the move in the background.
func (m *moveSetup) start() <-chan error {
	moved := make(chan error, 1)
	go func() { moved <- m.h.C.Coordinator().MoveShardPlacement(m.h.C.Session(), m.sh.ID, m.from, m.to) }()
	return moved
}

// moved checks the move's outcome: no error, the group on the target.
func (m *moveSetup) moved(err error) {
	m.h.T.Helper()
	if cur, _ := m.h.C.Meta.PrimaryPlacement(m.sh.ID); err != nil || cur != m.to {
		m.h.T.Fatalf("move: %v, placement on %d, want %d (seed %d)", err, cur, m.to, m.h.Seed)
	}
}

// onSource runs a statement on the moving shard's source copy directly —
// table names the shard's table as {} — as the writes behind any
// coordinator's back that a move's catch-up exists for.
func (m *moveSetup) onSource(q string, args ...any) {
	m.h.T.Helper()
	c := m.h.C.ConnTo(m.from - 1)
	defer c.Close()
	q = strings.ReplaceAll(q, "{}", m.sh.ShardName())
	if _, err := c.Query(fmt.Sprintf(q, args...)); err != nil {
		m.h.T.Fatalf("%s: %v", q, err)
	}
}

func (m *moveSetup) value(table string, k int64) int64 {
	m.h.T.Helper()
	return m.h.ValuesAt(table, []int64{k})[0]
}

func (m *moveSetup) count(table string) int64 {
	return m.h.MustExec("SELECT count(*) FROM " + table).Rows[0][0].(int64)
}

// TestMoveHotRowUpdatedTwice: a row updated again and again while the move
// copies and catches up — each update a delete and an insert of its image —
// arrives once, at its last value.
func TestMoveHotRowUpdatedTwice(t *testing.T) {
	m := newMoveSetup(t, Options{})
	arrived, release := fault.ArmGate(fault.PointRebalanceMove, "catchup")
	moved := m.start()
	<-arrived
	k := m.onShard[0]
	for v := int64(1); v <= 3; v++ {
		m.onSource("UPDATE {} SET v = %d WHERE k = %d", v, k)
	}
	release(nil)
	m.moved(<-moved)
	if v := m.value("mv", k); v != 3 {
		t.Fatalf("hot row holds %d after the move, want 3", v)
	}
	if n := m.count("mv"); n != 40 {
		t.Fatalf("%d rows after the move, want 40", n)
	}
}

// TestMoveInsertThenDelete: a row inserted and deleted while the move runs
// stays deleted.
func TestMoveInsertThenDelete(t *testing.T) {
	m := newMoveSetup(t, Options{})
	arrived, release := fault.ArmGate(fault.PointRebalanceMove, "catchup")
	moved := m.start()
	<-arrived
	k := m.keysOnShard("mv", 1000, 2000)[0]
	m.onSource("INSERT INTO {} (k, v) VALUES (%d, 1)", k)
	m.onSource("DELETE FROM {} WHERE k = %d", k)
	release(nil)
	m.moved(<-moved)
	if n := m.count("mv"); n != 40 {
		t.Fatalf("count(*) = %d after the move, want 40: the deleted row came back", n)
	}
}

// TestMoveWaitsForOpenWriter: a transaction that wrote to the group before
// the write block holds the move's flip until it commits, and keeps its
// write.
func TestMoveWaitsForOpenWriter(t *testing.T) {
	m := newMoveSetup(t, Options{})
	k := m.onShard[0]
	w := m.h.C.Session()
	if _, err := w.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE mv SET v = 77 WHERE k = $1", k); err != nil {
		t.Fatal(err)
	}
	moved := m.start()
	select {
	case err := <-moved:
		t.Fatalf("the move finished (%v) while a writer of the group was open", err)
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	m.moved(<-moved)
	if v := m.value("mv", k); v != 77 {
		t.Fatalf("the open writer's update is lost: v = %d", v)
	}
}

// TestMoveWaitsForRowLocker: a transaction that locked a row of the group
// with SELECT … FOR UPDATE holds the move's flip until it commits, as a
// writer does. Were its row lock left on the source while the group flipped,
// a second transaction would lock the same row on the target, read the same
// value, and one of the two read-modify-writes would be lost.
func TestMoveWaitsForRowLocker(t *testing.T) {
	m := newMoveSetup(t, Options{})
	k := m.onShard[0]
	w := m.h.C.Session()
	if _, err := w.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	res, err := w.Exec("SELECT v FROM mv WHERE k = $1 FOR UPDATE", k)
	if err != nil {
		t.Fatal(err)
	}
	moved := m.start()
	select {
	case err := <-moved:
		t.Fatalf("the move finished (%v) while a row of the group was locked", err)
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := w.Exec("UPDATE mv SET v = $1 WHERE k = $2", res.Rows[0][0].(int64)+1, k); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	m.moved(<-moved)
	m.h.MustExec("UPDATE mv SET v = v + 1 WHERE k = $1", k)
	if v := m.value("mv", k); v != k+2 {
		t.Fatalf("v = %d after two increments of %d", v, k)
	}
}

// TestMoveFlipsColocatedGroupAtOnce: the co-located shards move in one flip,
// so a co-located join never finds one of them gone, whenever it runs. The
// group moves there and back while a transaction stays open on every
// worker, so the move back streams from before the DDL the move there ran
// to build its target (mw's index) — DDL its own snapshot has seen.
func TestMoveFlipsColocatedGroupAtOnce(t *testing.T) {
	m := newMoveSetup(t, Options{})
	m.h.CreateTable("mw")
	m.h.MustExec("CREATE INDEX mw_v ON mw (v)")
	for k := int64(0); k < 40; k++ {
		m.h.MustExec("INSERT INTO mw (k, v) VALUES ($1, $2)", k, k)
	}
	for _, node := range []int{m.from, m.to} {
		open := m.h.C.SessionOn(node - 1)
		for _, q := range []string{"CREATE TABLE bystander (k bigint PRIMARY KEY)", "BEGIN", "INSERT INTO bystander VALUES (1)"} {
			if _, err := open.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
		defer open.Exec("ROLLBACK")
	}
	join := func() {
		t.Helper()
		k := m.onShard[0]
		res, err := m.h.C.Session().Exec("SELECT count(*) FROM mv JOIN mw ON mv.k = mw.k WHERE mv.k = $1", k)
		if err != nil || res.Rows[0][0].(int64) != 1 {
			t.Fatalf("co-located join on key %d mid-move: %v, %v (seed %d)", k, res, err, m.h.Seed)
		}
		res, err = m.h.C.Session().Exec("SELECT count(*) FROM mv JOIN mw ON mv.k = mw.k")
		if err != nil || res.Rows[0][0].(int64) != 40 {
			t.Fatalf("co-located join mid-move: %v, %v (seed %d)", res, err, m.h.Seed)
		}
	}
	for _, stage := range []string{"metadata_flip", "drop_source"} {
		arrived, release := fault.ArmGate(fault.PointRebalanceMove, stage)
		moved := m.start()
		select {
		case <-arrived:
		case err := <-moved:
			t.Fatalf("the move to node %d ended before %s: %v", m.to, stage, err)
		}
		join()
		release(nil)
		m.moved(<-moved)
		join()
		m.from, m.to = m.to, m.from
	}
}

// TestMoveBlocksMXWriter: the write block is on the source worker, so a
// write sent by another coordinator (a worker with synced metadata) waits
// for it too — and then runs on the new placement, not lost with the source.
func TestMoveBlocksMXWriter(t *testing.T) {
	m := newMoveSetup(t, Options{})
	m.h.C.Meta.SetHasMetadata(2, true) // node 2 coordinates too (MX)
	k := m.onShard[0]
	arrived, release := fault.ArmGate(fault.PointRebalanceMove, "metadata_flip")
	moved := m.start()
	<-arrived
	mx := m.h.C.SessionOn(2 - 1)
	wrote := make(chan error, 1)
	go func() {
		_, err := mx.Exec("UPDATE mv SET v = 55 WHERE k = $1", k)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("an MX write to the group went through the write block: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	release(nil)
	m.moved(<-moved)
	if err := <-wrote; err != nil {
		t.Fatalf("the blocked MX write failed instead of running on the new placement: %v", err)
	}
	if v := m.value("mv", k); v != 55 {
		t.Fatalf("the MX write is lost: v = %d", v)
	}
}

// TestMoveStartPoint: the snapshot the copy reads and the position the
// catch-up streams from are one point, so a row committed around it is
// copied or streamed, not both and not neither. The row commits at the
// move's first wire query after its start point, if it sends one, or else
// before its catch-up.
func TestMoveStartPoint(t *testing.T) {
	m := newMoveSetup(t, Options{})
	arrived, release := fault.ArmGate(fault.PointRebalanceMove, "snapshot_copy")
	moved := m.start()
	<-arrived
	queried, resume := fault.ArmGate(fault.PointWireSend, "query")
	caughtUp, catchUp := fault.ArmGate(fault.PointRebalanceMove, "catchup")
	release(nil)
	select {
	case <-queried:
	case <-caughtUp:
	}
	k := m.keysOnShard("mv", 1000, 2000)[0]
	src := m.h.C.SessionOn(m.from - 1) // in process: the wire is held
	if _, err := src.Exec(fmt.Sprintf("INSERT INTO %s (k, v) VALUES (%d, 1)", m.sh.ShardName(), k)); err != nil {
		t.Fatal(err)
	}
	fault.Disarm(fault.PointWireSend)
	resume(nil)
	catchUp(nil)
	m.moved(<-moved)
	if n := m.count("mv"); n != 41 {
		t.Fatalf("%d rows after the move, want 41: the row committed at the start point was duplicated or lost", n)
	}
}

// waitHeldOff returns once a writer waits in the source's lock graph — held
// off by the move's write block — failing if the writer finishes first.
func (m *moveSetup) waitHeldOff(acks <-chan [2]bool) {
	m.h.T.Helper()
	src := m.h.C.Engines[m.from-1]
	for deadline := time.Now().Add(5 * time.Second); len(src.LockGraph()) == 0; time.Sleep(time.Millisecond) {
		select {
		case <-acks:
			m.h.T.Fatal("the writer went through the write block")
		default:
		}
		if time.Now().After(deadline) {
			m.h.T.Fatal("no writer waits behind the write block")
		}
	}
}

// moveWriters are the writer kinds of the move matrix. Each writes one round
// to the moving group of the co-located tables mv and mw: an autocommit
// statement per table; a block updating both tables' rows of one key, which
// commits on one node; a block updating mv's rows of a key on the group and
// of a key on the other worker, which commits by 2PC; an autocommit
// statement per table updating every row, one task per shard on both
// workers, committed by 2PC.
var moveWriters = []string{"autocommit", "block", "2pc", "multishard"}

// moveRound is one writer round: the acks it got for mv and mw.
func moveRound(m *moveSetup, kind string, k, other int64) (mvAck, mwAck bool) {
	s := m.h.C.Session()
	exec := func(q string, k int64) error { _, err := s.Exec(q, k); return err }
	switch kind {
	case "autocommit":
		return exec("UPDATE mv SET v = v + 1 WHERE k = $1", k) == nil,
			exec("UPDATE mw SET v = v + 1 WHERE k = $1", k) == nil
	case "multishard":
		return exec("UPDATE mv SET v = v + 1", 0) == nil, exec("UPDATE mw SET v = v + 1", 0) == nil
	case "block":
		err := exec("BEGIN", 0)
		for _, q := range []string{"UPDATE mv SET v = v + 1 WHERE k = $1", "UPDATE mw SET v = v + 1 WHERE k = $1"} {
			if err == nil {
				err = exec(q, k)
			}
		}
		if err == nil {
			err = exec("COMMIT", 0)
		} else {
			_ = exec("ROLLBACK", 0)
		}
		return err == nil, err == nil
	default: // 2pc
		err := exec("BEGIN", 0)
		for _, key := range []int64{k, other} {
			if err == nil {
				err = exec("UPDATE mv SET v = v + 1 WHERE k = $1", key)
			}
		}
		if err == nil {
			err = exec("COMMIT", 0)
		} else {
			_ = exec("ROLLBACK", 0)
		}
		return err == nil, err == nil
	}
}

// runMoveCell interrupts a move of a two-table co-located group at stage with
// an injected failure while writer kind writes to the group, then finishes
// the move, and checks that every acknowledged write is there, exactly once,
// and every transaction all or nothing. The writer starts at the stage; for
// drop_source, the first stage after the flip, it starts in the write block
// before the flip and waits there, planned against the old placement.
//
// A one-task write held off by the block runs again on the new placement. A
// multi-shard write is not run again — its tasks on the other shards have
// run — and fails whole, every row as it was; the client retries it.
func runMoveCell(t *testing.T, stage, kind string) {
	m := newMoveSetup(t, Options{DeadlockInterval: 50 * time.Millisecond})
	m.h.CreateTable("mw")
	for k := int64(0); k < 40; k++ {
		m.h.MustExec("INSERT INTO mw (k, v) VALUES ($1, 0)", k)
	}
	m.h.MustExec("UPDATE mv SET v = 0")
	k := m.onShard[0]
	var other int64 // a key of mv on the other worker
	for key := int64(0); key < 40; key++ {
		sh, _ := m.h.C.Meta.ShardForValue("mv", key)
		if node, _ := m.h.C.Meta.PrimaryPlacement(sh.ID); node == m.to {
			other = key
			break
		}
	}
	writeAt := stage
	if stage == "drop_source" {
		writeAt = "metadata_flip"
	}
	atWrite, resume := fault.ArmGate(fault.PointRebalanceMove, writeAt)
	atStage, fail := atWrite, resume
	if writeAt != stage {
		atStage, fail = fault.ArmGate(fault.PointRebalanceMove, stage)
	}
	moved := m.start()
	<-atWrite
	acks := make(chan [2]bool, 1)
	go func() {
		a, b := moveRound(m, kind, k, other)
		acks <- [2]bool{a, b}
	}()
	if writeAt == "metadata_flip" {
		m.waitHeldOff(acks) // the write block holds the writer off
	}
	if atStage != atWrite {
		resume(nil)
		<-atStage
	}
	fail(errors.New("injected move failure"))
	if err := <-moved; err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("%s/%s: move did not fail with the injected fault: %v", stage, kind, err)
	}
	ack := <-acks
	want := m.from
	if stage == "drop_source" {
		want = m.to
	}
	if cur, _ := m.h.C.Meta.PrimaryPlacement(m.sh.ID); cur != want {
		t.Fatalf("%s/%s: group on %d after the failed move, want %d", stage, kind, cur, want)
	}
	var retried [2]bool
	if stage != "drop_source" {
		// the retry completes, with a writer held off by its write block
		// and planned again against the new placement
		blocked, flip := fault.ArmGate(fault.PointRebalanceMove, "metadata_flip")
		moved := m.start()
		<-blocked
		go func() {
			a, b := moveRound(m, kind, k, other)
			acks <- [2]bool{a, b}
		}()
		m.waitHeldOff(acks)
		flip(nil)
		m.moved(<-moved)
		if retried = <-acks; (!retried[0] && kind != "multishard") || !retried[1] {
			t.Fatalf("%s/%s: a write held off by the retried move failed", stage, kind)
		}
	}
	after := [2]bool{}
	after[0], after[1] = moveRound(m, kind, k, other)
	if !after[0] || !after[1] {
		t.Fatalf("%s/%s: a write after the move failed", stage, kind)
	}

	acked := func(i int) int64 {
		n := int64(0)
		for _, a := range [][2]bool{ack, retried, after} {
			if a[i] {
				n++
			}
		}
		return n
	}
	mvAcks := acked(0)
	switch kind {
	case "autocommit":
		if v, w := m.value("mv", k), m.value("mw", k); v != mvAcks || w != acked(1) {
			t.Fatalf("%s/%s: mv=%d mw=%d, want the acked %d and %d (seed %d)", stage, kind, v, w, mvAcks, acked(1), m.h.Seed)
		}
	case "block":
		if v, w := m.value("mv", k), m.value("mw", k); v != mvAcks || w != mvAcks {
			t.Fatalf("%s/%s: mv=%d mw=%d, want both the acked %d (seed %d)", stage, kind, v, w, mvAcks, m.h.Seed)
		}
	case "multishard":
		for i, table := range []string{"mv", "mw"} {
			res := m.h.MustExec("SELECT min(v), max(v) FROM " + table)
			if lo, hi := res.Rows[0][0].(int64), res.Rows[0][1].(int64); lo != acked(i) || hi != acked(i) {
				t.Fatalf("%s/%s: %s rows hold %d..%d, want each the acked %d (seed %d)", stage, kind, table, lo, hi, acked(i), m.h.Seed)
			}
		}
	default:
		if v, o := m.value("mv", k), m.value("mv", other); v != mvAcks || o != mvAcks {
			t.Fatalf("%s/%s: mv=%d on the group, %d off it, want both the acked %d (seed %d)", stage, kind, v, o, mvAcks, m.h.Seed)
		}
	}
	if n, w := m.count("mv"), m.count("mw"); n != 40 || w != 40 {
		t.Fatalf("%s/%s: %d and %d rows, want 40 each (seed %d)", stage, kind, n, w, m.h.Seed)
	}
	if got := m.h.DanglingPrepared(); got != 0 {
		t.Fatalf("%s/%s: %d prepared transactions left", stage, kind, got)
	}
}

// TestRebalanceMoveMatrix: two co-located tables × every stage of a move ×
// {autocommit, open block, 2PC, multi-shard} writers.
func TestRebalanceMoveMatrix(t *testing.T) {
	for _, stage := range append(preFlipStages, "drop_source") {
		for _, kind := range moveWriters {
			t.Run(stage+"/"+kind, func(t *testing.T) { runMoveCell(t, stage, kind) })
		}
	}
}

// TestMoveFailsOnDDLDuringCopy: DDL that reaches the source shards while the
// move copies them (here a distributed TRUNCATE) is not in the stream's
// data records; the move fails rather than flip to a copy that missed it,
// and the retry copies the table as it now is.
func TestMoveFailsOnDDLDuringCopy(t *testing.T) {
	m := newMoveSetup(t, Options{})
	arrived, release := fault.ArmGate(fault.PointRebalanceMove, "catchup")
	moved := m.start()
	<-arrived
	m.h.MustExec("TRUNCATE mv")
	release(nil)
	err := <-moved
	if cur, _ := m.h.C.Meta.PrimaryPlacement(m.sh.ID); err == nil || !strings.Contains(err.Error(), "during the move") || cur != m.from {
		t.Fatalf("move over a TRUNCATE: %v, group on %d (want an error, and %d)", err, cur, m.from)
	}
	m.moved(m.h.C.Coordinator().MoveShardPlacement(m.h.S, m.sh.ID, m.from, m.to))
	if n := m.count("mv"); n != 0 {
		t.Fatalf("%d rows after TRUNCATE and the move, want 0", n)
	}
}

// TestMoveGivesWayToIdleWriter: a writer of the group that stays open holds
// off the move's write block, and every later writer of the group queues
// behind the block. The move waits one deadlock-detection interval, then
// gives way: it fails retryably with the placements as they were, and the
// queued writer goes ahead. Once the open writer commits, the retry moves
// the group with both writes.
func TestMoveGivesWayToIdleWriter(t *testing.T) {
	m := newMoveSetup(t, Options{DeadlockInterval: 50 * time.Millisecond})
	k, queued := m.onShard[0], m.onShard[1]
	idle := m.h.C.Session()
	for _, q := range []string{"BEGIN", "UPDATE mv SET v = 77 WHERE k = $1"} {
		if _, err := idle.Exec(q, k); err != nil {
			t.Fatal(err)
		}
	}
	moved := m.start()
	src := m.h.C.Engines[m.from-1]
	for deadline := time.Now().Add(5 * time.Second); len(src.LockGraph()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the move never waited for the open writer")
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := m.h.C.Session().Exec("UPDATE mv SET v = v + 1 WHERE k = $1", queued)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("the writer queued behind the move failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a writer of the group still waits behind a move held off by an idle writer")
	}
	if err := <-moved; !errors.Is(err, citus.ErrWriteBlockTimeout) {
		t.Fatalf("move: %v, want it to give way with ErrWriteBlockTimeout", err)
	}
	if cur, _ := m.h.C.Meta.PrimaryPlacement(m.sh.ID); cur != m.from {
		t.Fatalf("the move that gave way left the group on %d", cur)
	}
	if _, err := idle.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	m.moved(m.h.C.Coordinator().MoveShardPlacement(m.h.S, m.sh.ID, m.from, m.to))
	if v, w := m.value("mv", k), m.value("mv", queued); v != 77 || w != queued+1 {
		t.Fatalf("after the move: v = %d and %d, want 77 and %d", v, w, queued+1)
	}
}
