package repl

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/fault"
	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// memApplier is a minimal wal.Applier for tests: it records committed
// rows per table, keyed by the transaction-status records.
type memApplier struct {
	mu       sync.Mutex
	rows     map[string][]types.Row
	commits  map[uint64]bool
	prepared map[string]uint64
	applied  int
}

func newMemApplier() *memApplier {
	return &memApplier{rows: map[string][]types.Row{}, commits: map[uint64]bool{}, prepared: map[string]uint64{}}
}

func (m *memApplier) ApplyBase(*wal.Base) error { return nil }
func (m *memApplier) ApplyDDL(string) error     { return nil }
func (m *memApplier) ApplyInsert(xid uint64, table string, tup []byte, _ bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows[table] = append(m.rows[table], rowbatch.DecodeRow(tup))
	m.applied++
	return nil
}
func (m *memApplier) ApplyDelete(uint64, string, []byte) error { return nil }
func (m *memApplier) ApplyCommit(xid uint64) {
	m.mu.Lock()
	m.commits[xid] = true
	m.mu.Unlock()
}
func (m *memApplier) ApplyAbort(uint64) {}
func (m *memApplier) ApplyPrepare(xid uint64, gid string) {
	m.mu.Lock()
	m.prepared[gid] = xid
	m.mu.Unlock()
}
func (m *memApplier) ApplyCommitPrepared(gid string) {
	m.mu.Lock()
	delete(m.prepared, gid)
	m.mu.Unlock()
}
func (m *memApplier) ApplyAbortPrepared(gid string) {
	m.mu.Lock()
	delete(m.prepared, gid)
	m.mu.Unlock()
}

func (m *memApplier) rowCount(table string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows[table])
}

// Applied returns each live standby's applied LSN by node ID.
func (g *Group) Applied() map[int]int64 {
	out := map[int]int64{}
	for _, sb := range g.live() {
		out[sb.NodeID] = sb.applied.Load()
	}
	return out
}

// tuple encodes one row the way the heap stores it.
func tuple(row ...types.Datum) []byte {
	b, err := rowbatch.EncodeRow(row)
	if err != nil {
		panic(err)
	}
	return b
}

func appendTxn(l *wal.Log, xid uint64, table string, k int64) {
	l.Append(wal.Record{Type: wal.RecInsert, XID: xid, Table: table, Tuple: tuple(k)})
	l.Append(wal.Record{Type: wal.RecCommit, XID: xid})
}

func TestSyncShippingAppliesAndAcks(t *testing.T) {
	fault.Reset()
	primary := wal.New()
	a := newMemApplier()
	sbLog := wal.New()
	g := NewGroup("w1", primary, Config{Mode: ModeSync},
		[]StandbyTarget{{NodeID: 4, Name: "w1-sb1", WAL: sbLog, Apply: a}})
	defer g.Stop()

	for i := 0; i < 10; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
		if err := g.WaitSync(primary.LastLSN(), time.Second); err != nil {
			t.Fatalf("sync wait %d: %v", i, err)
		}
	}
	if got := a.rowCount("t"); got != 10 {
		t.Fatalf("standby applied %d rows, want 10", got)
	}
	// the standby's own WAL mirrors the primary's, record for record
	if sbLog.Len() != primary.Len() {
		t.Fatalf("standby WAL %d records, primary %d", sbLog.Len(), primary.Len())
	}
	for i, rec := range sbLog.Records() {
		prec := primary.Records()[i]
		if rec.LSN != prec.LSN || rec.Type != prec.Type || rec.XID != prec.XID {
			t.Fatalf("record %d diverged: standby %+v primary %+v", i, rec, prec)
		}
	}
}

func TestShipErrorRetriesWithoutSkipping(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	primary := wal.New()
	a := newMemApplier()
	g := NewGroup("w1", primary, Config{Mode: ModeSync},
		[]StandbyTarget{{NodeID: 4, Name: "w1-sb1", Apply: a}})
	defer g.Stop()

	// every third ship attempt fails; the shipper must retry the same
	// record, never skip it
	fault.Arm(fault.Rule{Point: fault.PointReplShip, Action: fault.ActError, Prob: 0.34})
	for i := 0; i < 30; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
	}
	if err := g.WaitSync(primary.LastLSN(), 5*time.Second); err != nil {
		t.Fatalf("sync wait with flaky ship: %v", err)
	}
	if got := a.rowCount("t"); got != 30 {
		t.Fatalf("standby applied %d rows, want 30", got)
	}
}

func TestAsyncLagIsBounded(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	primary := wal.New()
	a := newMemApplier()
	const maxLag = 8
	g := NewGroup("w1", primary, Config{Mode: ModeAsync, MaxAsyncLag: maxLag},
		[]StandbyTarget{{NodeID: 4, Name: "w1-sb1", Apply: a}})
	defer g.Stop()

	// a slow standby: every apply takes 200µs
	fault.Arm(fault.Rule{Point: fault.PointReplApply, Action: fault.ActDelay, Delay: 200 * time.Microsecond})
	for i := 0; i < 100; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
		if err := g.WaitLag(maxLag, 5*time.Second); err != nil {
			t.Fatalf("lag wait: %v", err)
		}
		if lag := g.MaxLag(); lag > maxLag {
			t.Fatalf("write %d observed lag %d > bound %d", i, lag, maxLag)
		}
	}
}

func promoteCatalog() *metadata.Catalog {
	c := metadata.NewCatalog()
	c.AddNode(&metadata.Node{ID: 1, Name: "c", IsCoordinator: true})
	c.AddNode(&metadata.Node{ID: 2, Name: "w1"})
	c.AddNode(&metadata.Node{ID: 4, Name: "w1-sb1", Standby: true, StandbyOf: 2})
	c.AddNode(&metadata.Node{ID: 5, Name: "w1-sb2", Standby: true, StandbyOf: 2})
	return c
}

func TestPromoteDrainsToTipAndFlipsCatalog(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	meta := promoteCatalog()
	m := NewManager(meta, Config{Mode: ModeSync})
	primary := wal.New()
	a1, a2 := newMemApplier(), newMemApplier()
	l1, l2 := wal.New(), wal.New()
	m.AddGroup(2, "w1", primary, []StandbyTarget{
		{NodeID: 4, Name: "w1-sb1", WAL: l1, Apply: a1},
		{NodeID: 5, Name: "w1-sb2", WAL: l2, Apply: a2},
	})
	defer m.Stop()

	// make the second standby lag far behind, then crash the primary:
	// promotion must pick the caught-up standby and drain it to the tip
	fault.Arm(fault.Rule{Point: fault.PointReplApply, Key: "w1-sb2", Action: fault.ActDelay, Delay: 2 * time.Millisecond})
	for i := 0; i < 50; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
	}
	if err := m.Wait(2); err != nil { // sync mode: both standbys acked
		t.Fatalf("pre-crash sync wait: %v", err)
	}
	fault.Disarm(fault.PointReplApply)

	primary.Seal() // crash instant
	v := meta.Version()
	newID, err := m.Promote(2)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if newID != 4 && newID != 5 {
		t.Fatalf("promoted node %d", newID)
	}
	if meta.Version() == v {
		t.Fatal("promotion did not bump metadata version")
	}
	winner := a1
	if newID == 5 {
		winner = a2
	}
	if got := winner.rowCount("t"); got != 50 {
		t.Fatalf("promoted standby has %d rows, want 50 (replay to tip)", got)
	}
	// the surviving standby is re-parented onto the new primary
	g, ok := m.Group(newID)
	if !ok {
		t.Fatal("no group for new primary")
	}
	applied := g.Applied()
	if len(applied) != 1 {
		t.Fatalf("re-parented standbys: %v", applied)
	}
	// writes on the new primary now replicate to the survivor
	newLog := l1
	if newID == 5 {
		newLog = l2
	}
	appendTxn(newLog, 1<<41, "t", 999)
	if err := g.WaitSync(newLog.LastLSN(), 5*time.Second); err != nil {
		t.Fatalf("post-promotion sync wait: %v", err)
	}
	survivor := a2
	if newID == 5 {
		survivor = a1
	}
	if got := survivor.rowCount("t"); got != 51 {
		t.Fatalf("survivor has %d rows, want 51 (re-parented stream)", got)
	}
}

func TestPromoteWithNoLiveStandbyFails(t *testing.T) {
	fault.Reset()
	meta := promoteCatalog()
	m := NewManager(meta, Config{})
	primary := wal.New()
	m.AddGroup(2, "w1", primary, nil)
	defer m.Stop()
	primary.Seal()
	if _, err := m.Promote(2); err == nil {
		t.Fatal("promotion with no standby succeeded")
	}
	if _, err := m.Promote(99); err == nil {
		t.Fatal("promotion of unreplicated node succeeded")
	}
}

// TestPromoteDrainsASiblingTheWinnerWasCutPast: the old primary
// checkpointed, the fast standby took that base and its log was cut with it,
// and the slow standby is still below that cut when the primary dies. The
// winner's log has nothing to resume the sibling from, so the promotion lets
// it drain the sealed log — which its own stream still holds — to the tip
// first, and re-parents it there.
func TestPromoteDrainsASiblingTheWinnerWasCutPast(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	meta := promoteCatalog()
	m := NewManager(meta, Config{Mode: ModeAsync, MaxAsyncLag: 1000})
	primary := wal.New()
	a1, a2 := newMemApplier(), newMemApplier()
	l1, l2 := wal.New(), wal.New()
	g := m.AddGroup(2, "w1", primary, []StandbyTarget{
		{NodeID: 4, Name: "w1-sb1", WAL: l1, Apply: a1},
		{NodeID: 5, Name: "w1-sb2", WAL: l2, Apply: a2},
	})
	defer m.Stop()

	fault.Arm(fault.Rule{Point: fault.PointReplApply, Key: "w1-sb2", Action: fault.ActDelay, Delay: 2 * time.Millisecond})
	for i := 0; i < 50; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
	}
	at, _ := primary.BeginCheckpoint()
	primary.Checkpoint(&wal.Base{Redo: at, At: at, Xmax: 100})
	if first := primary.FirstLSN(); first >= at {
		t.Fatalf("the primary cut to %d past the slow standby's stream", first)
	}
	for deadline := time.Now().Add(5 * time.Second); l1.Base() != primary.Base(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fast standby never took the primary's base")
		}
	}
	if l1.FirstLSN() != at || g.Applied()[5]+1 >= at {
		t.Fatalf("fast standby's log starts at %d (want %d), slow standby applied %d: not the schedule under test",
			l1.FirstLSN(), at, g.Applied()[5])
	}

	primary.Seal()
	newID, err := m.Promote(2)
	if err != nil || newID != 4 {
		t.Fatalf("promote: node %d, %v", newID, err)
	}
	ng, _ := m.Group(4)
	if applied := ng.Applied(); applied[5] != primary.LastLSN() {
		t.Fatalf("the sibling was re-parented at %v, want the sealed tip %d", applied, primary.LastLSN())
	}
	if got := a2.rowCount("t"); got != 50 {
		t.Fatalf("the sibling holds %d rows after draining, want 50", got)
	}
	appendTxn(l1, 1<<41, "t", 999)
	if err := ng.WaitSync(l1.LastLSN(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := a2.rowCount("t"); got != 51 {
		t.Fatalf("the sibling holds %d rows, want 51 (re-parented stream)", got)
	}
}

// TestStandbyTakesBaseAfterItsTip: a restore point the primary appended while
// a checkpoint was building its image reaches the standby's log before the
// base does, so that on the standby too the point restores from what was
// under the log before it, not from an image taken after it.
func TestStandbyTakesBaseAfterItsTip(t *testing.T) {
	fault.Reset()
	primary := wal.New()
	for i := 0; i < 5; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
	}
	at, _ := primary.BeginCheckpoint()
	point := primary.RestorePoint("mid")
	appendTxn(primary, 20, "t", 99) // the image holds this one
	b := &wal.Base{Redo: at, At: at, Xmax: 21}
	primary.Checkpoint(b)
	if b.Tip != primary.LastLSN()+1 {
		t.Fatalf("base tip %d, the log's next LSN is %d", b.Tip, primary.LastLSN()+1)
	}

	sbLog := wal.New()
	g := NewGroup("w1", primary, Config{Mode: ModeSync},
		[]StandbyTarget{{NodeID: 4, Name: "w1-sb1", WAL: sbLog, Apply: newMemApplier()}})
	defer g.Stop()
	appendTxn(primary, 21, "t", 100)
	if err := g.WaitSync(primary.LastLSN(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sbLog.Base() != b; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the standby never took the primary's base")
		}
	}
	restored := wal.New()
	if err := sbLog.RecoverInto(restored, newMemApplier(), point); err != nil {
		t.Fatal(err)
	}
	if restored.Base() != nil {
		t.Fatal("the standby's log restores the point from an image taken after it")
	}
}

// TestAddStandbyBelowBaseTakesBaseBackup: a standby that joins a primary
// whose log no longer starts at LSN 1 gets the primary's base and tail
// first, then the stream from where that copy stopped; one that claims a
// position the log was cut past is refused.
func TestAddStandbyBelowBaseTakesBaseBackup(t *testing.T) {
	fault.Reset()
	meta := promoteCatalog()
	m := NewManager(meta, Config{Mode: ModeSync})
	primary := wal.New()
	m.AddGroup(2, "w1", primary, nil)
	defer m.Stop()
	for i := 0; i < 20; i++ {
		appendTxn(primary, uint64(10+i), "t", int64(i))
	}
	at, _ := primary.BeginCheckpoint()
	primary.Checkpoint(&wal.Base{Redo: at, At: at, Xmax: 30, Image: "image"})
	appendTxn(primary, 50, "t", 20)                                                               // the tail
	primary.Append(wal.Record{Type: wal.RecInsert, XID: 51, Table: "t", Tuple: tuple(int64(21))}) // in flight

	a, l := newMemApplier(), wal.New()
	if err := m.AddStandby(2, StandbyTarget{NodeID: 4, Name: "w1-sb1", WAL: l, Apply: a}, 5); err == nil {
		t.Fatal("a standby at a position the log was cut past was attached")
	}
	if err := m.AddStandby(2, StandbyTarget{NodeID: 4, Name: "w1-sb1", Apply: a}, 0); err == nil {
		t.Fatal("a standby with no log of its own took a base backup")
	}
	if err := m.AddStandby(2, StandbyTarget{NodeID: 4, Name: "w1-sb1", WAL: l, Apply: a}, 0); err != nil {
		t.Fatal(err)
	}
	if l.Base() != primary.Base() || l.LastLSN() != primary.LastLSN() {
		t.Fatalf("standby log: base %p tip %d, want %p and %d", l.Base(), l.LastLSN(), primary.Base(), primary.LastLSN())
	}
	// the tail's committed row and the in-flight transaction's, not the 20 the image stands for
	if got := a.rowCount("t"); got != 2 {
		t.Fatalf("base backup applied %d tail rows, want 2", got)
	}
	primary.Append(wal.Record{Type: wal.RecCommit, XID: 51})
	g, _ := m.Group(2)
	if err := g.WaitSync(primary.LastLSN(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	committed := a.commits[51]
	a.mu.Unlock()
	if !committed || l.LastLSN() != primary.LastLSN() {
		t.Fatalf("the stream did not bring the in-flight transaction's outcome (committed %v, tip %d of %d)",
			committed, l.LastLSN(), primary.LastLSN())
	}
}

// TestWaitSyncWakesWhenLaggingStandbyFails: a sync wait whose only lagging
// standby drops out of the group returns at once, not at its timeout.
func TestWaitSyncWakesWhenLaggingStandbyFails(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	primary := wal.New()
	arrived, release := fault.ArmGate(fault.PointReplApply, "w1-sb2")
	g := NewGroup("w1", primary, Config{Mode: ModeSync}, []StandbyTarget{
		{NodeID: 4, Name: "w1-sb1", Apply: newMemApplier()},
		{NodeID: 5, Name: "w1-sb2", Apply: newMemApplier()},
	})
	defer g.Stop()
	appendTxn(primary, 10, "t", 1)
	<-arrived // w1-sb2 holds its first record
	done := make(chan error, 1)
	go func() { done <- g.WaitSync(primary.LastLSN(), SyncTimeout) }()
	select {
	case err := <-done:
		t.Fatalf("the wait returned (%v) with w1-sb2 behind", err)
	case <-time.After(20 * time.Millisecond):
	}
	start := time.Now()
	release(errors.New("disk full"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait after the lagging standby failed: %v", err)
		}
		if d := time.Since(start); d > SyncTimeout/5 {
			t.Fatalf("the wait returned %v after the standby failed", d)
		}
	case <-time.After(SyncTimeout / 2):
		t.Fatal("the standby's failure did not wake the wait")
	}
}

// stampApplier notes when it applies a commit.
type stampApplier struct {
	*memApplier
	committed chan time.Time
}

func (a stampApplier) ApplyCommit(xid uint64) {
	a.memApplier.ApplyCommit(xid)
	a.committed <- time.Now()
}

// TestPromoteReturnsWhenWinnerReachesTip: the promotion's drain ends on the
// winner's applying the sealed tip, not on a timer's next tick: from the
// winner's last apply to the flip takes well under a millisecond (a poll
// would pay the host's sleep floor, a millisecond on some hosts).
func TestPromoteReturnsWhenWinnerReachesTip(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	const rounds = 7
	lat := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		m := NewManager(promoteCatalog(), Config{Mode: ModeSync})
		primary := wal.New()
		a := stampApplier{newMemApplier(), make(chan time.Time, 1)}
		held, release := fault.ArmGate(fault.PointReplApply, "w1-sb1")
		m.AddGroup(2, "w1", primary, []StandbyTarget{{NodeID: 4, Name: "w1-sb1", Apply: a}})
		appendTxn(primary, 10, "t", 1)
		<-held
		primary.Seal()
		flip, resume := fault.ArmGate(fault.PointReplPromote, "flip")
		done := make(chan error, 1)
		go func() {
			_, err := m.Promote(2)
			done <- err
		}()
		time.Sleep(2 * time.Millisecond) // let the drain park
		release(nil)
		applied := <-a.committed
		<-flip
		lat = append(lat, time.Since(applied))
		resume(nil)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		m.Stop()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[rounds/2]; med > time.Millisecond {
		t.Fatalf("drain to flip took %v at the median (all: %v)", med, lat)
	}
}
