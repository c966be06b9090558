package chaos

import (
	"strconv"
	"testing"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/wal"
)

// TestTwoPhaseCommitFaultMatrix is the golden table for the §3.7.2
// commit-record rule: for every injection point along the 2PC path it pins
// down (a) whether the client's COMMIT succeeds and (b) the transaction's
// final fate after recovery quiesces the cluster. The dividing line is the
// commit record — any fault before it aborts the transaction everywhere,
// any fault after it leaves a dangling prepared transaction that recovery
// must commit.
func TestTwoPhaseCommitFaultMatrix(t *testing.T) {
	h := New(t, Options{})
	h.CreateTable("m")
	keys, _ := h.KeysOnDistinctWorkers("m", 2)
	h.SeedRows("m", keys)

	rows := []struct {
		name          string
		rules         []fault.Rule
		wantCommitErr bool
		wantVisible   bool
	}{
		{
			name:          "prepare fails",
			rules:         []fault.Rule{{Point: fault.Point2PCPrepare, Action: fault.ActError, Count: 1}},
			wantCommitErr: true, wantVisible: false,
		},
		{
			name:          "connection drops at prepare",
			rules:         []fault.Rule{{Point: fault.Point2PCPrepare, Action: fault.ActDropConn, Count: 1}},
			wantCommitErr: true, wantVisible: false,
		},
		{
			// The PREPARE TRANSACTION request is lost before the worker
			// sees it: nothing was prepared there, the coordinator aborts.
			name:          "prepare request lost on the wire",
			rules:         []fault.Rule{{Point: fault.PointWireSend, Key: "query", Action: fault.ActDropConn, Count: 1}},
			wantCommitErr: true, wantVisible: false,
		},
		{
			// The worker prepared but the response is lost: no commit
			// record is written, so the orphan must be rolled back.
			name:          "prepare response lost on the wire",
			rules:         []fault.Rule{{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1}},
			wantCommitErr: true, wantVisible: false,
		},
		{
			name:          "commit record write fails",
			rules:         []fault.Rule{{Point: fault.Point2PCCommitRecord, Action: fault.ActError, Count: 1}},
			wantCommitErr: true, wantVisible: false,
		},
		{
			// Past the commit record the client sees success no matter
			// what happens to COMMIT PREPARED; recovery finishes the job.
			name:          "commit prepared fails",
			rules:         []fault.Rule{{Point: fault.Point2PCCommit, Action: fault.ActError, Count: 1}},
			wantCommitErr: false, wantVisible: true,
		},
		{
			name:          "connection drops at commit prepared",
			rules:         []fault.Rule{{Point: fault.Point2PCCommit, Action: fault.ActDropConn, Count: 1}},
			wantCommitErr: false, wantVisible: true,
		},
		{
			// An abort that cannot reach a participant: the dangling
			// prepared transaction still ends up rolled back by recovery.
			name: "rollback prepared fails during abort",
			rules: []fault.Rule{
				{Point: fault.Point2PCCommitRecord, Action: fault.ActError, Count: 1},
				{Point: fault.Point2PCAbort, Action: fault.ActError, Count: 1},
			},
			wantCommitErr: true, wantVisible: false,
		},
		{
			name:          "no fault",
			rules:         nil,
			wantCommitErr: false, wantVisible: true,
		},
	}

	s := h.C.Session()
	for i, row := range rows {
		batch := int64(100 + i)
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatalf("%s: begin: %v", row.name, err)
		}
		for _, k := range keys {
			if _, err := s.Exec("UPDATE m SET v = $1 WHERE k = $2", batch, k); err != nil {
				t.Fatalf("%s: update: %v", row.name, err)
			}
		}
		// a base under every node with the transaction in progress: whatever
		// the row does next is recovered from base + tail
		h.C.Checkpoint()
		for _, r := range row.rules {
			fault.Arm(r)
		}
		_, err := s.Exec("COMMIT")
		if (err != nil) != row.wantCommitErr {
			t.Fatalf("%s: commit error = %v, want error %v (seed %d)", row.name, err, row.wantCommitErr, h.Seed)
		}
		if len(row.rules) > 0 && fault.Fired(row.rules[0].Point) == 0 {
			t.Fatalf("%s: fault at %s never fired", row.name, row.rules[0].Point)
		}
		fault.Reset()
		h.Quiesce(2 * time.Second)
		if visible := h.CheckAtomic("m", keys, batch); visible != row.wantVisible {
			t.Fatalf("%s: batch %d visible = %v, want %v (seed %d)", row.name, batch, visible, row.wantVisible, h.Seed)
		}
	}
}

// TestTwoPhaseCommitFlightMatrix is the matrix for what the flights made
// possible: PREPARE TRANSACTION, and then COMMIT PREPARED, are on all
// participants' connections before any response is read, so one
// participant's request can fail, or its worker die, with another's already
// on the wire or already answered. Participants take their places in node
// order: participant 0 is the lower node ID. Every row asserts
// all-or-nothing once RecoverTwoPhaseCommits has run, and how many prepared
// transactions the coordinator had to leave to it.
func TestTwoPhaseCommitFlightMatrix(t *testing.T) {
	// commit runs COMMIT on its own goroutine, for rows that stop it at a gate.
	commit := func(s *engine.Session) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.Exec("COMMIT")
			done <- err
		}()
		return done
	}
	rows := []struct {
		name string
		// run commits the open two-writer transaction under the row's faults
		// and returns what COMMIT returned.
		run           func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error
		wantCommitErr bool
		wantVisible   bool
		// wantDangling counts the prepared transactions left on live workers
		// when COMMIT has returned (and a crashed worker is back).
		wantDangling int
	}{
		{
			// Participant 1 prepared, and is rolled back at once; participant
			// 0 prepared too, but nobody heard: with no commit record its
			// transaction is recovery's to roll back.
			name: "PREPARE response dropped on participant 0 while participant 1 prepared",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, Count: 1})
				_, err := s.Exec("COMMIT")
				if n := len(h.C.Engines[nodeIDs[0]-1].Txns.ListPrepared()); n != 1 {
					t.Errorf("participant 0 holds %d prepared transactions, want the one whose vote was lost", n)
				}
				return err
			},
			wantCommitErr: true, wantVisible: false, wantDangling: 1,
		},
		{
			name: "participant 1 crashed at the 2pc.prepare gate with participant 0's PREPARE already on the wire",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				arrived, release := fault.ArmGate(fault.Point2PCPrepare, strconv.Itoa(nodeIDs[1]))
				done := commit(s)
				<-arrived
				if err := h.C.CrashWorker(nodeIDs[1] - 1); err != nil {
					t.Fatal(err)
				}
				release(nil)
				err := <-done
				if err := h.C.RestartWorker(nodeIDs[1] - 1); err != nil {
					t.Fatal(err)
				}
				return err
			},
			wantCommitErr: true, wantVisible: false, wantDangling: 0,
		},
		{
			// The worker did commit; the coordinator cannot know, keeps the
			// commit record, and recovery finds nothing left to do.
			name: "COMMIT PREPARED response dropped on participant 0 and delivered on participant 1",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				fault.Arm(fault.Rule{Point: fault.PointWireRecv, Key: "query", Action: fault.ActDropConn, After: 2, Count: 1})
				_, err := s.Exec("COMMIT")
				return err
			},
			wantCommitErr: false, wantVisible: true, wantDangling: 0,
		},
		{
			// The same loss one step earlier: the request never arrived. The
			// commit record kept for the unconfirmed participant is what lets
			// recovery commit it.
			name: "COMMIT PREPARED request lost on participant 1 and delivered on participant 0",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				fault.Arm(fault.Rule{Point: fault.PointWireSend, Key: "query", Action: fault.ActDropConn, After: 3, Count: 1})
				_, err := s.Exec("COMMIT")
				if n := len(h.C.Engines[nodeIDs[1]-1].Txns.ListPrepared()); n != 1 {
					t.Errorf("participant 1 holds %d prepared transactions, want the one COMMIT PREPARED never reached", n)
				}
				return err
			},
			wantCommitErr: false, wantVisible: true, wantDangling: 1,
		},
		{
			name: "2pc.commit fault on all participants",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				fault.Arm(fault.Rule{Point: fault.Point2PCCommit, Action: fault.ActError})
				_, err := s.Exec("COMMIT")
				if got := fault.Fired(fault.Point2PCCommit); got != 2 {
					t.Errorf("2pc.commit fired %d times, want once per participant", got)
				}
				return err
			},
			wantCommitErr: false, wantVisible: true, wantDangling: 2,
		},
		{
			// A worker that dies inside PREPARE TRANSACTION, after the
			// transaction left the active set but before the record reached
			// the log, has not voted: a dead process answers nothing, and its
			// restart will not find the transaction. Counting the vote commits
			// the other participant alone.
			name: "participant 0 crashed inside PREPARE TRANSACTION before its record was durable",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				arrived, release := fault.ArmGate(fault.PointWALFsync, wal.RecPrepare.String()+"@"+h.C.Engines[nodeIDs[0]-1].Name)
				done := commit(s)
				<-arrived
				if err := h.C.CrashWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				release(nil)
				err := <-done
				if err := h.C.RestartWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				return err
			},
			wantCommitErr: true, wantVisible: false, wantDangling: 0,
		},
		{
			// The same death inside COMMIT PREPARED: the restarted worker
			// still holds the transaction prepared, and the commit record
			// must still be there for recovery to commit it.
			name: "participant 0 crashed inside COMMIT PREPARED before its record was durable",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				arrived, release := fault.ArmGate(fault.PointWALFsync, wal.RecCommitPrepared.String()+"@"+h.C.Engines[nodeIDs[0]-1].Name)
				done := commit(s)
				<-arrived
				if err := h.C.CrashWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				release(nil)
				err := <-done
				if err := h.C.RestartWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				return err
			},
			wantCommitErr: false, wantVisible: true, wantDangling: 1,
		},
		{
			// The same death with a recovery round while participant 0 is
			// parked: its COMMIT PREPARED has not made the record durable, so
			// the round must still find the transaction prepared there and
			// keep the commit record. Finding it gone — taken out of the
			// prepared set before its record was in the log — the round took
			// the record for resolved and dropped it, and the restart, which
			// adopts the transaction again, had it rolled back while
			// participant 1 committed: a torn transaction.
			name: "recovery runs while participant 0's COMMIT PREPARED is not yet durable",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				arrived, release := fault.ArmGate(fault.PointWALFsync, wal.RecCommitPrepared.String()+"@"+h.C.Engines[nodeIDs[0]-1].Name)
				done := commit(s)
				<-arrived
				h.C.Coordinator().RecoverTwoPhaseCommits()
				if err := h.C.CrashWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				release(nil)
				err := <-done
				if err := h.C.RestartWorker(nodeIDs[0] - 1); err != nil {
					t.Fatal(err)
				}
				return err
			},
			wantCommitErr: false, wantVisible: true, wantDangling: 1,
		},
		{
			// The coordinator's own transaction is cancelled — what the
			// distributed deadlock detector does to a victim — with COMMIT held
			// between the prepares and the commit records: the records are
			// written, the local commit then fails, and the decision is abort
			// with records in the log that say commit. While they are there a
			// lost ROLLBACK PREPARED is a participant recovery will commit
			// alone; so they are taken back, durably, before the first rollback
			// goes out — and a coordinator that restarts right after reads them
			// and their deletion, and rolls the straggler back all the same.
			name: "coordinator cancelled behind its commit records and ROLLBACK PREPARED lost on participant 0",
			run: func(t *testing.T, h *Harness, s *engine.Session, nodeIDs []int) error {
				distID := s.Txn().DistID()
				arrived, release := fault.ArmGate(fault.Point2PCCommitRecord, "")
				fault.Arm(fault.Rule{Point: fault.Point2PCAbort, Key: strconv.Itoa(nodeIDs[0]), Action: fault.ActError, Count: 1})
				done := commit(s)
				<-arrived
				if !h.C.Coordinator().Eng.CancelByDistID(distID) {
					t.Fatalf("no transaction %s to cancel", distID)
				}
				release(nil)
				err := <-done
				if fault.Fired(fault.Point2PCAbort) != 1 {
					t.Errorf("2pc.abort fired %d times, want once: on participant 0", fault.Fired(fault.Point2PCAbort))
				}
				if got := h.C.Coordinator().CommitRecords(); len(got) != 0 {
					t.Errorf("commit records %v outlived the abort they were written before", got)
				}
				if err := h.C.CrashCoordinator(); err != nil {
					t.Fatal(err)
				}
				if err := h.C.RestartCoordinator(); err != nil {
					t.Fatal(err)
				}
				h.S = h.C.Session()
				if got := h.C.Coordinator().CommitRecords(); len(got) != 0 {
					t.Errorf("the restarted coordinator read back commit records %v of an aborted transaction", got)
				}
				return err
			},
			wantCommitErr: true, wantVisible: false, wantDangling: 1,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := New(t, Options{})
			h.CreateTable("fm")
			keys, nodeIDs := h.KeysOnDistinctWorkers("fm", 2)
			h.SeedRows("fm", keys)
			s := h.C.Session()
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if _, err := s.Exec("UPDATE fm SET v = $1 WHERE k = $2", int64(7), k); err != nil {
					t.Fatal(err)
				}
			}
			// a base under every node with the transaction in progress: a
			// worker the row crashes restarts from base + tail
			if n := h.C.Checkpoint(); n != len(h.C.Engines) {
				t.Fatalf("%d of %d nodes took the checkpoint", n, len(h.C.Engines))
			}
			err := row.run(t, h, s, nodeIDs)
			fault.Reset()
			if (err != nil) != row.wantCommitErr {
				t.Fatalf("commit error = %v, want error %v (seed %d)", err, row.wantCommitErr, h.Seed)
			}
			if got := h.DanglingPrepared(); got != row.wantDangling {
				t.Errorf("%d prepared transactions left to recovery, want %d (seed %d)", got, row.wantDangling, h.Seed)
			}
			if resolved := h.Quiesce(2 * time.Second); resolved != row.wantDangling {
				t.Errorf("recovery resolved %d transactions, want %d (seed %d)", resolved, row.wantDangling, h.Seed)
			}
			if visible := h.CheckAtomic("fm", keys, 7); visible != row.wantVisible {
				t.Fatalf("visible = %v, want %v (seed %d)", visible, row.wantVisible, h.Seed)
			}
		})
	}
}
