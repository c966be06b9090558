package txn

import (
	"fmt"
	"slices"
	"testing"
)

// clogTargets are the XIDs the replay operations of FuzzClog name: either
// side of the first page boundaries of three ranges, the node's own from 2
// and two a 1<<40 base jump away, as a standby's local range and its
// primary's are.
var clogTargets = func() []uint64 {
	var out []uint64
	for _, base := range []uint64{0, 1 << 40, 3 << 40} {
		for p := uint64(0); p < 3; p++ {
			for _, d := range []int64{-2, -1, 0, 1} {
				x := int64(base+p*clogPageXIDs) + d
				if x > 1 {
					out = append(out, uint64(x))
				}
			}
		}
	}
	return out
}()

// FuzzClog drives a Manager with a byte script — Begin, commit, abort,
// Prepare and FinishPrepared of local transactions, and the replay paths
// ForceStatus, MarkReplicating, AdoptPrepared and AbortInDoubt, with XIDs
// and base jumps at page boundaries — and checks after every step the
// paged commit log against a map[uint64]Status, the snapshot's in-progress
// list against the running and prepared transactions, and the log's size
// against the pages its XIDs fall on.
func FuzzClog(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 0})
	f.Add([]byte{7, 1, 0, 0, 0, 0, 1, 1, 3, 5, 4, 6, 6, 0})
	f.Add([]byte{5, 3, 4, 9, 0, 0, 8, 0, 6, 0, 9, 1, 7, 4, 0, 0, 2, 0})
	f.Add([]byte{4, 20, 4, 21, 3, 22, 6, 0, 7, 7, 0, 0, 8, 0, 9, 0, 6, 0})
	// a page allocated below one already in the directory
	f.Add([]byte{33, 48, 55, 66, 48, 48})
	f.Fuzz(runClogScript)
}

// runClogScript is FuzzClog's body: one script against a fresh manager.
func runClogScript(t *testing.T, script []byte) {
	if len(script) > 160 {
		script = script[:160]
	}
	m := NewManager()
	oracle := map[uint64]Status{1: Committed}
	var live []*Txn                 // begun, with an XID, not ended
	prepared := map[string]uint64{} // gid -> XID, not finished
	gidOf := func(i int) string { return fmt.Sprintf("g%d", i) }
	preparedXIDs := func() []uint64 {
		var out []uint64
		for _, xid := range prepared {
			out = append(out, xid)
		}
		return out
	}
	busy := func(xid uint64) bool {
		return slices.ContainsFunc(live, func(t *Txn) bool { return t.XID() == xid }) ||
			slices.Contains(preparedXIDs(), xid)
	}
	gids := 0
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%10, int(script[i+1])
		target := clogTargets[arg%len(clogTargets)]
		switch op {
		case 0:
			tx := m.Begin()
			live = append(live, tx)
			oracle[tx.XID()] = InProgress
		case 1, 2:
			if len(live) == 0 {
				continue
			}
			j := arg % len(live)
			tx := live[j]
			live = slices.Delete(live, j, j+1)
			if op == 1 {
				if err := m.Commit(tx); err != nil {
					t.Fatal(err)
				}
				oracle[tx.XID()] = Committed
			} else {
				m.Abort(tx)
				oracle[tx.XID()] = Aborted
			}
		case 3:
			if busy(target) {
				continue
			}
			st := []Status{Committed, Aborted}[arg%2]
			m.ForceStatus(target, st)
			oracle[target] = st
		case 4:
			if busy(target) {
				continue
			}
			m.MarkReplicating(target)
			if _, known := oracle[target]; !known {
				oracle[target] = InProgress
			}
		case 5:
			if busy(target) {
				continue
			}
			gids++
			m.AdoptPrepared(target, gidOf(gids))
			prepared[gidOf(gids)] = target
			oracle[target] = InProgress
		case 6:
			var want []uint64
			for xid, st := range oracle {
				if st == InProgress && !busy(xid) {
					want = append(want, xid)
					oracle[xid] = Aborted
				}
			}
			got := m.AbortInDoubt()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: AbortInDoubt aborted %v, want %v", i/2, got, want)
			}
		case 7:
			m.AdvanceXIDBase(target)
		case 8:
			if len(live) == 0 {
				continue
			}
			j := arg % len(live)
			tx := live[j]
			live = slices.Delete(live, j, j+1)
			gids++
			if err := m.Prepare(tx, gidOf(gids)); err != nil {
				t.Fatal(err)
			}
			prepared[gidOf(gids)] = tx.XID()
		case 9:
			if len(prepared) == 0 {
				continue
			}
			var keys []string
			for gid := range prepared {
				keys = append(keys, gid)
			}
			slices.Sort(keys)
			gid := keys[arg%len(keys)]
			xid := prepared[gid]
			delete(prepared, gid)
			if _, err := m.FinishPrepared(gid, arg%2 == 0); err != nil {
				t.Fatal(err)
			}
			m.ForgetPrepared(gid)
			oracle[xid] = []Status{Committed, Aborted}[arg%2]
		}

		pages := map[uint64]bool{}
		for xid, st := range oracle {
			if got := m.Status(xid); got != st {
				t.Fatalf("step %d (op %d): status of %d = %v, want %v", i/2, op, xid, got, st)
			}
			pages[xid/clogPageXIDs] = true
		}
		for _, x := range clogTargets {
			if _, known := oracle[x]; !known && m.Status(x) != Aborted {
				t.Fatalf("step %d: unknown XID %d reads %v, want Aborted", i/2, x, m.Status(x))
			}
		}
		if got, want := m.ClogBytes(), len(pages)*clogPageBytes; got != want {
			t.Fatalf("step %d: commit log of %d bytes, want %d (%d pages)", i/2, got, want, len(pages))
		}
		var running []uint64
		for _, tx := range live {
			running = append(running, tx.XID())
		}
		running = append(running, preparedXIDs()...)
		slices.Sort(running)
		snap := m.TakeSnapshot(nil)
		if !slices.Equal(snap.InProgress, running) {
			t.Fatalf("step %d: snapshot in progress %v, want %v", i/2, snap.InProgress, running)
		}
		for _, x := range running {
			if m.Sees(snap, x) || !snap.Running(x) {
				t.Fatalf("step %d: snapshot sees running XID %d", i/2, x)
			}
		}
		if len(running) > 0 && m.GlobalXmin() > running[0] {
			t.Fatalf("step %d: horizon %d above running XID %d", i/2, m.GlobalXmin(), running[0])
		}
	}
}
