// Package repl is the WAL-shipping replication substrate: it streams a
// primary node's WAL to N standby nodes and applies it there, the
// reproduction of the PostgreSQL streaming replication the paper assumes
// underneath every Citus worker (§2, §3.7).
//
// Each standby runs one shipper goroutine tailing the primary's log via
// wal.Stream. Every shipped record is first appended to the standby's own
// WAL (the standby "has the WAL", so a promoted or restarted standby can
// itself be replayed or replicated from) and then applied incrementally
// through wal.ApplyRecord; the stream ack then advances, which is what
// lag accounting observes — and what the primary's log keeps its records
// for: an open stream holds everything above its ack against the primary's
// checkpoints. The standby's applied LSN advances with it, and the shipper
// wakes every wait on the group (sync commits, the async throttle, a
// promotion's drain, a rejoin's catch-up): each is a condition on applied
// LSNs, checked again on every wake-up and never on a timer.
//
// A standby takes no checkpoints of its own. Its log holds the primary's
// records under the primary's LSNs, so the primary's base image is a base
// for it too: the shipper puts each new one under the standby's log once the
// standby has applied everything the image reflects, and the standby's log
// is cut the same way. A standby that joins below the primary's base — a
// failed-over primary coming back after the new one has cut past its last
// LSN — starts from a base backup: the primary's image and tail, then the
// stream (AddStandby).
//
// Two modes, chosen per cluster:
//
//   - ModeSync: after a write commits locally, the commit path blocks
//     until every live standby has acknowledged the commit's LSN. A
//     client-acknowledged write therefore survives primary failure — the
//     zero-loss half of the chaos proof.
//   - ModeAsync: commits return immediately; the write path only throttles
//     when a standby trails by more than MaxAsyncLag records, which is
//     what makes async staleness bounded rather than unbounded.
//
// Failover is Manager.Promote: seal the failed primary's log, let the
// furthest-ahead standby drain the sealed stream to its tip ("replay to
// tip"), then flip the catalog roles and bump the metadata version so
// every cached plan re-resolves routing. Crash points at the ship, apply,
// and promote seams (fault.PointReplShip/Apply/Promote) let chaos tests
// cut the schedule at exactly these steps.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/wake"
	"citusgo/internal/wal"
)

// Mode selects how commits interact with replication.
type Mode int

const (
	// ModeSync blocks the commit path until standbys ack (no acknowledged
	// write can be lost to a primary failure).
	ModeSync Mode = iota
	// ModeAsync lets commits return before standbys apply, with lag
	// bounded by Config.MaxAsyncLag.
	ModeAsync
)

func (m Mode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "sync"
}

// SyncTimeout bounds a sync-commit wait or async-mode lag wait, each
// promotion drain step, and a rejoining standby's catch-up. A timed-out
// commit wait does not undo the local commit — it is counted and surfaced,
// exactly like a PostgreSQL sync standby falling out of quorum.
const SyncTimeout = 5 * time.Second

// Config tunes the replication substrate.
type Config struct {
	Mode Mode
	// MaxAsyncLag is the async-mode staleness bound in WAL records
	// (default 256): a write path finding a standby further behind blocks
	// until it catches back into the bound.
	MaxAsyncLag int64
}

func (c Config) withDefaults() Config {
	if c.MaxAsyncLag <= 0 {
		c.MaxAsyncLag = 256
	}
	return c
}

// StandbyTarget describes one standby node a Group ships to.
type StandbyTarget struct {
	NodeID int
	Name   string
	WAL    *wal.Log    // standby's own log; shipped records are appended here
	Apply  wal.Applier // incremental apply target (engine.ReplayTarget())
}

type standby struct {
	StandbyTarget
	stream  *wal.Stream
	applied atomic.Int64
	failed  atomic.Bool
	done    chan struct{}
	base    *wal.Base // the primary's base last put under this standby's log

	shipped *obs.Counter
	lag     *obs.Gauge
}

var (
	metShipped = obs.Default().Counter("repl_records_shipped_total",
		"WAL records shipped to and applied on a standby.", "standby")
	metLag = obs.Default().Gauge("repl_lag_records",
		"Replication lag in WAL records, per standby.", "standby")
	metSyncWaits = obs.Default().Counter("repl_sync_waits_total",
		"Sync-replication commit waits.").With()
	metSyncTimeouts = obs.Default().Counter("repl_sync_timeouts_total",
		"Sync-replication commit waits that timed out (standby out of quorum).").With()
	metSyncWaitNs = obs.Default().Histogram("repl_sync_wait_ns",
		"Time the commit path spent waiting for standby acks, in nanoseconds.", nil).With()
	metPromotions = obs.Default().Counter("repl_promotions_total",
		"Standby promotions completed.").With()
	metApplyErrors = obs.Default().Counter("repl_apply_errors_total",
		"Records a standby failed to apply (standby dropped from the group).", "standby")
)

// Group replicates one primary's WAL to its standbys.
type Group struct {
	primaryName string
	log         *wal.Log
	cfg         Config
	// acks wakes the waits on the group: a shipper broadcasts after every
	// applied record and when it stops, failed or detached.
	acks wake.Notifier

	mu       sync.Mutex
	standbys []*standby
	stopped  bool

	ackLag atomic.Int64 // see noteAckLag
}

// NewGroup starts shipping primary's WAL to the targets. Shipping begins
// at LSN 0: groups are created at node boot, before any writes exist.
func NewGroup(primaryName string, log *wal.Log, cfg Config, targets []StandbyTarget) *Group {
	g := &Group{primaryName: primaryName, log: log, cfg: cfg.withDefaults()}
	for _, t := range targets {
		if err := g.resumeStandby(t, 0); err != nil {
			panic(err) // a group is created with its node, before the log's first checkpoint
		}
	}
	return g
}

// resumeStandby attaches a standby to this group's log at its applied LSN.
// After a promotion that re-parents an existing standby: its applied prefix
// is identical to the new primary's log prefix (both copied the old
// primary's WAL), so the stream resumes exactly there. It fails when the log
// has been cut past that position.
func (g *Group) resumeStandby(t StandbyTarget, appliedLSN int64) error {
	stream := g.log.StreamFrom(appliedLSN)
	if stream.Behind() {
		return fmt.Errorf("repl: standby %s is at LSN %d, %s's log now starts at %d: it needs a base backup",
			t.Name, appliedLSN, g.primaryName, g.log.FirstLSN())
	}
	sb := &standby{
		StandbyTarget: t,
		stream:        stream,
		done:          make(chan struct{}),
		shipped:       metShipped.With(t.Name),
		lag:           metLag.With(t.Name),
	}
	sb.applied.Store(appliedLSN)
	g.mu.Lock()
	g.standbys = append(g.standbys, sb)
	g.mu.Unlock()
	go g.ship(sb)
	return nil
}

// shipRetryBackoff spaces the retries of a record whose ship failed.
const shipRetryBackoff = 10 * time.Millisecond

// ship is the per-standby replication loop. It parks in Next until the
// primary's log has a record for it, a new base, or an end.
func (g *Group) ship(sb *standby) {
	defer close(sb.done)
	// a standby that stops, failed or detached, wakes the waits on the
	// group: a failed one is no longer waited for
	defer g.acks.Broadcast()
	// a standby that has stopped applying holds the primary's log no longer
	defer sb.stream.Close()
	for {
		g.takeBase(sb)
		rec, ok := sb.stream.Next(0)
		if !ok {
			if sb.stream.Done() {
				return // closed, or sealed log drained to tip
			}
			continue // a new base
		}
		// repl.ship models the network hop: delays grow lag, errors are
		// retried from the same record (streaming replication never skips),
		// panics kill the shipper like a walsender crash.
		for fault.CheckKey(fault.PointReplShip, sb.Name) != nil {
			if sb.stream.Done() {
				return
			}
			time.Sleep(shipRetryBackoff)
		}
		// an injected apply error wedges the standby (disk full,
		// divergence) like a real one: it drops out of the group
		err := fault.CheckKey(fault.PointReplApply, sb.Name)
		if err == nil {
			err = g.apply(sb, rec)
		}
		if err != nil {
			metApplyErrors.With(sb.Name).Inc()
			sb.failed.Store(true)
			return
		}
		sb.stream.Ack(rec.LSN)
		sb.applied.Store(rec.LSN)
		g.acks.Broadcast()
		sb.shipped.Inc()
		sb.lag.Set(sb.stream.Lag())
	}
}

// takeBase puts the primary's newest base under the standby's log, once the
// standby has applied every record the primary's log held when it took the
// base (wal.Base.Tip): the image reflects none above those.
func (g *Group) takeBase(sb *standby) {
	if b := g.log.Base(); b != nil && b != sb.base && sb.WAL != nil && sb.applied.Load() >= b.Tip-1 {
		sb.WAL.Checkpoint(b)
		sb.base = b
	}
}

// apply copies the record into the standby's own WAL (durability first, so
// the standby can in turn be replayed, replicated, or promoted) and then
// applies it to the standby engine.
func (g *Group) apply(sb *standby, rec wal.Record) error {
	if sb.WAL != nil {
		if lsn := sb.WAL.Append(stripLSN(rec)); lsn == 0 {
			return errors.New("standby WAL sealed (standby crashed)")
		}
	}
	return wal.ApplyRecord(sb.Apply, rec)
}

// stripLSN clears the primary-assigned LSN so the standby's log assigns
// its own. Both logs start empty and append the same records in the same
// order, so the LSNs coincide — which is what lets a re-parented standby
// resume from its applied position after a promotion.
func stripLSN(rec wal.Record) wal.Record {
	rec.LSN = 0
	return rec
}

// live returns the standbys still shipping (not failed, not detached).
func (g *Group) live() []*standby {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*standby, 0, len(g.standbys))
	for _, sb := range g.standbys {
		if !sb.failed.Load() {
			out = append(out, sb)
		}
	}
	return out
}

// behind counts the live standbys that have not applied lsn. It reads the
// standbys in place: every waiter on the group runs it after every applied
// record.
func (g *Group) behind(lsn int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, sb := range g.standbys {
		if !sb.failed.Load() && sb.applied.Load() < lsn {
			n++
		}
	}
	return n
}

// WaitSync blocks until every live standby has applied at least lsn, or
// the timeout elapses. Used by the commit path in sync mode. A standby that
// fails meanwhile is no longer waited for.
func (g *Group) WaitSync(lsn int64, timeout time.Duration) error {
	behind := 0
	if g.acks.Wait(time.Now().Add(timeout), func() bool {
		behind = g.behind(lsn)
		return behind == 0
	}) {
		return nil
	}
	return fmt.Errorf("repl: %d standby(s) of %s behind LSN %d after %v",
		behind, g.primaryName, lsn, timeout)
}

// WaitApplied blocks until standby nodeID has applied lsn, it fails, or the
// timeout elapses, and returns the LSN it has applied (0 when it is not a
// live standby of the group).
func (g *Group) WaitApplied(nodeID int, lsn int64, timeout time.Duration) int64 {
	for _, sb := range g.live() {
		if sb.NodeID == nodeID {
			g.drain(sb, lsn, time.Now().Add(timeout))
			if sb.failed.Load() {
				return 0
			}
			return sb.applied.Load()
		}
	}
	return 0
}

// drain waits until sb has applied lsn, it fails, or the deadline passes.
func (g *Group) drain(sb *standby, lsn int64, deadline time.Time) {
	g.acks.Wait(deadline, func() bool { return sb.applied.Load() >= lsn || sb.failed.Load() })
}

// WaitLag blocks until every live standby trails the log tip, as it is now,
// by at most maxLag records — the async-mode flow control that bounds
// staleness.
func (g *Group) WaitLag(maxLag int64, timeout time.Duration) error {
	tip := g.log.LastLSN()
	var err error
	if tip > maxLag {
		err = g.WaitSync(tip-maxLag, timeout)
	}
	g.noteAckLag(tip)
	return err
}

// noteAckLag records how far the furthest-behind live standby trails tip,
// the log's tip when a write's WaitLag began, now that the wait is over and
// the write is about to be acknowledged. This is where async mode's bound
// holds: no write is acknowledged with a standby more than MaxAsyncLag
// records behind it. The lag read off a moving log at any other moment also
// counts the records of every writer that has appended and not yet waited.
func (g *Group) noteAckLag(tip int64) {
	for _, sb := range g.live() {
		lag := tip - sb.applied.Load()
		for {
			cur := g.ackLag.Load()
			if lag <= cur || g.ackLag.CompareAndSwap(cur, lag) {
				break
			}
		}
	}
}

// MaxLag returns the largest lag (in records) among live standbys.
func (g *Group) MaxLag() int64 {
	var max int64
	tip := g.log.LastLSN()
	for _, sb := range g.live() {
		if lag := tip - sb.applied.Load(); lag > max {
			max = lag
		}
	}
	return max
}

// Stop detaches every standby and waits for the shippers to exit.
func (g *Group) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	standbys := append([]*standby(nil), g.standbys...)
	g.mu.Unlock()
	for _, sb := range standbys {
		sb.stream.Close()
	}
	for _, sb := range standbys {
		<-sb.done
	}
}

// Manager tracks the replication group of every replicated primary and
// owns the failover sequence.
type Manager struct {
	mu     sync.Mutex
	groups map[int]*Group // by primary node ID
	meta   *metadata.Catalog
	cfg    Config
}

// NewManager creates a manager writing role flips into meta.
func NewManager(meta *metadata.Catalog, cfg Config) *Manager {
	return &Manager{groups: make(map[int]*Group), meta: meta, cfg: cfg.withDefaults()}
}

// Mode returns the configured replication mode.
func (m *Manager) Mode() Mode { return m.cfg.Mode }

// AddGroup registers (and starts) replication for one primary.
func (m *Manager) AddGroup(primaryID int, primaryName string, log *wal.Log, targets []StandbyTarget) *Group {
	g := NewGroup(primaryName, log, m.cfg, targets)
	m.mu.Lock()
	m.groups[primaryID] = g
	m.mu.Unlock()
	return g
}

// Group returns the replication group whose primary is nodeID, if any.
func (m *Manager) Group(nodeID int) (*Group, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[nodeID]
	return g, ok
}

// AddStandby attaches a standby to an existing primary's group, resuming
// the stream at the standby's applied position. This is the
// restart-after-failover path: the old primary's recovered engine rejoins
// the cluster as a standby of the node promoted in its place. Its replayed
// WAL is a prefix of the new primary's log (promotion drained the winner to
// the sealed tip before flipping roles) and LSNs coincide across the two
// logs, so shipping resumes exactly at appliedLSN with no gap or overlap.
//
// When the primary's log has been cut past appliedLSN there is nothing to
// resume from, and the standby takes a base backup first: the primary's
// base image and tail go into the target, which must be empty (appliedLSN
// 0), and the stream starts where that copy stopped. Transactions in flight
// on the primary stay in progress on the standby — unlike a restart, nothing
// ends here — and resolve through the stream.
func (m *Manager) AddStandby(primaryID int, t StandbyTarget, appliedLSN int64) error {
	g, ok := m.Group(primaryID)
	if !ok {
		return fmt.Errorf("repl: node %d has no replication group", primaryID)
	}
	if appliedLSN == 0 {
		// Hold the log while the stream is set up: from its first record if
		// that is still there, else from its tip, so that where the copy
		// stops is still there to stream from when the copy is done.
		hold, err := g.log.HoldAt("standby", 1)
		if err != nil {
			if t.WAL == nil {
				return fmt.Errorf("repl: %s has cut its log and %s has no log of its own to take a base backup into", g.primaryName, t.Name)
			}
			hold = g.log.Hold("standby")
			if err := g.log.RecoverInto(t.WAL, t.Apply, 0); err != nil {
				hold.Release()
				return fmt.Errorf("repl: base backup of %s for %s: %w", g.primaryName, t.Name, err)
			}
			appliedLSN = t.WAL.LastLSN()
		}
		defer hold.Release()
	}
	return g.resumeStandby(t, appliedLSN)
}

// Wait is the commit-path hook: after a write on nodeID it enforces the
// mode's durability contract — full standby ack in sync mode, bounded lag
// in async mode. Unreplicated nodes return immediately.
func (m *Manager) Wait(nodeID int) error {
	g, ok := m.Group(nodeID)
	if !ok {
		return nil
	}
	metSyncWaits.Inc()
	start := time.Now()
	var err error
	if m.cfg.Mode == ModeSync {
		err = g.WaitSync(g.log.LastLSN(), SyncTimeout)
	} else {
		err = g.WaitLag(m.cfg.MaxAsyncLag, SyncTimeout)
	}
	metSyncWaitNs.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		metSyncTimeouts.Inc()
	}
	return err
}

// Promote fails over a crashed primary: the sealed log is drained to its
// tip on the furthest-ahead standby, the catalog roles flip (bumping the
// metadata version so cached plans invalidate), surviving standbys are
// re-parented onto the new primary's log, and the new primary's node ID is
// returned. The caller seals the primary's WAL by crashing the node;
// Promote seals again defensively — promotion declares the primary dead,
// so no post-promotion append of its may be acknowledged.
func (m *Manager) Promote(failedPrimary int) (int, error) {
	m.mu.Lock()
	g, ok := m.groups[failedPrimary]
	if ok {
		delete(m.groups, failedPrimary)
	}
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("repl: node %d has no replication group", failedPrimary)
	}
	g.log.Seal()

	if err := fault.CheckKey(fault.PointReplPromote, "drain"); err != nil {
		return 0, fmt.Errorf("repl: promotion drain: %w", err)
	}
	// Pick the furthest-ahead live standby, then let it replay the sealed
	// log to the tip. Draining cannot stall forever: the log is sealed, so
	// the stream has a fixed endpoint.
	live := g.live()
	if len(live) == 0 {
		return 0, fmt.Errorf("repl: node %d has no live standby to promote", failedPrimary)
	}
	winner := live[0]
	for _, sb := range live[1:] {
		if sb.applied.Load() > winner.applied.Load() {
			winner = sb
		}
	}
	tip := g.log.LastLSN()
	deadline := time.Now().Add(SyncTimeout)
	g.drain(winner, tip, deadline)
	if applied := winner.applied.Load(); applied < tip {
		if winner.failed.Load() {
			return 0, fmt.Errorf("repl: standby %s failed during promotion drain", winner.Name)
		}
		return 0, fmt.Errorf("repl: standby %s stuck at LSN %d draining to %d",
			winner.Name, applied, tip)
	}

	if err := fault.CheckKey(fault.PointReplPromote, "flip"); err != nil {
		return 0, fmt.Errorf("repl: promotion flip: %w", err)
	}
	if err := m.meta.PromoteNode(failedPrimary, winner.NodeID); err != nil {
		return 0, err
	}
	// Re-parent the surviving standbys onto the new primary's WAL at their
	// applied positions. The winner's log was cut by the old primary's
	// checkpoints as it applied them, perhaps past a slower sibling: that
	// one first drains the sealed log too — which still holds what it has
	// not acknowledged — and resumes at the tip, where no log is ever cut.
	for _, sb := range live {
		if sb == winner || sb.WAL == nil || winner.WAL == nil {
			continue
		}
		g.acks.Wait(deadline, func() bool {
			applied := sb.applied.Load()
			return applied+1 >= winner.WAL.FirstLSN() || applied >= tip || sb.failed.Load()
		})
	}
	g.Stop()
	var ng *Group
	for _, sb := range g.live() {
		if sb.NodeID == winner.NodeID || sb.WAL == nil {
			continue
		}
		if ng == nil {
			ng = m.AddGroup(winner.NodeID, winner.Name, winner.WAL, nil)
		}
		if err := ng.resumeStandby(sb.StandbyTarget, sb.applied.Load()); err != nil {
			// too far behind to drain in time: out of the group, like a
			// standby that failed to apply
			metApplyErrors.With(sb.Name).Inc()
		}
	}
	if ng == nil && winner.WAL != nil {
		// keep an (empty) group so future AddStandby/rewiring has a home;
		// sync waits on a group with no standbys return immediately.
		m.AddGroup(winner.NodeID, winner.Name, winner.WAL, nil)
	}
	metPromotions.Inc()
	return winner.NodeID, nil
}

// AckLag reports the largest lag a write on nodeID has been acknowledged at
// in async mode (0 when the node is unreplicated): the number MaxAsyncLag
// bounds.
func (m *Manager) AckLag(nodeID int) int64 {
	g, ok := m.Group(nodeID)
	if !ok {
		return 0
	}
	return g.ackLag.Load()
}

// Lag reports the largest standby lag of a primary's group (0 when the
// node is unreplicated).
func (m *Manager) Lag(nodeID int) int64 {
	g, ok := m.Group(nodeID)
	if !ok {
		return 0
	}
	return g.MaxLag()
}

// Stop halts every group.
func (m *Manager) Stop() {
	m.mu.Lock()
	groups := make([]*Group, 0, len(m.groups))
	for _, g := range m.groups {
		groups = append(groups, g)
	}
	m.groups = make(map[int]*Group)
	m.mu.Unlock()
	for _, g := range groups {
		g.Stop()
	}
}
