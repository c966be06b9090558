package soak

// The always-on invariant checkers. Two kinds:
//
//   - continuous checks (checkPlacement, checkStaleness) run on a 200ms
//     ticker against live traffic — they only assert properties that are
//     valid to read mid-flight;
//   - checkpoint() quiesces the cluster first (pause all writers, resolve
//     dangling 2PC, drain replication) and then asserts the state-based
//     invariants: ledger atomicity, no acked write lost, bank pair sums.
//
// Every violation goes through runner.violate, which records it for the
// report and the artifact dump.

import (
	"fmt"
	"time"

	"citusgo/internal/citus/metadata"
	"citusgo/internal/engine"
	"citusgo/internal/repl"
)

const quiesceDeadline = 5 * time.Second

// checkpoint pauses every workload class (taking each quiesce gate
// exclusively, so all in-flight operations have drained), settles the
// cluster, and runs the full invariant sweep.
func (r *runner) checkpoint(label string) {
	for _, d := range r.classes {
		d.gate.Lock()
	}
	defer func() {
		for _, d := range r.classes {
			d.gate.Unlock()
		}
	}()
	r.mu.Lock()
	before := len(r.violations)
	r.mu.Unlock()
	r.quiesce2PC(label)
	r.drainRepl(label)
	r.checkLedgerAtomicity(label)
	r.checkAckedWrites(label)
	r.checkBankSums(label)
	r.checkPlacement()
	r.sampleLeaks(label)
	r.mu.Lock()
	after := len(r.violations)
	r.mu.Unlock()
	if after == before {
		r.cfg.Logf("soak: checkpoint %q clean", label)
	} else {
		r.cfg.Logf("soak: checkpoint %q found %d violation(s)", label, after-before)
	}
}

// quiesce2PC drives coordinator 2PC recovery until no prepared transaction
// dangles on any live primary. A transaction still prepared after the
// deadline means recovery is wedged — an atomicity hazard in itself.
//
// The primaries are the catalog's, not r.c.Engines: after a failover that
// slice holds the rejoined standby in the victim's place, which shows a
// transaction prepared on the promoted node only once its PREPARE has been
// replicated — and one the fault brew left there moments ago is too young
// for the first recovery pass to touch.
func (r *runner) quiesce2PC(label string) {
	metChecks.With("2pc-quiesce").Inc()
	end := time.Now().Add(quiesceDeadline)
	for {
		r.c.Coordinator().RecoverTwoPhaseCommits()
		dangling := 0
		for _, node := range r.c.Meta.ActiveNodes() {
			if eng := r.engineOf(node.ID); eng != nil && !eng.Crashed() {
				dangling += len(eng.Txns.ListPrepared())
			}
		}
		if dangling == 0 {
			return
		}
		if time.Now().After(end) {
			r.violate("2pc-quiesce", "%s: %d prepared transactions still dangling after %v",
				label, dangling, quiesceDeadline)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// engineOf returns the engine behind a catalog node: a booted, promoted or
// rejoined standby's from the cluster's standby engines, an original node's
// from its slot.
func (r *runner) engineOf(nodeID int) *engine.Engine {
	if eng := r.c.StandbyEngine(nodeID); eng != nil {
		return eng
	}
	if nodeID >= 1 && nodeID <= len(r.c.Engines) {
		return r.c.Engines[nodeID-1]
	}
	return nil
}

// drainRepl waits until every primary's replication group has fully caught
// up, so the state-based checks below read converged replicas.
func (r *runner) drainRepl(label string) {
	if r.c.Repl == nil {
		return
	}
	metChecks.With("repl-drain").Inc()
	end := time.Now().Add(quiesceDeadline)
	for {
		behind := 0
		for _, w := range r.c.Meta.WorkerNodes() {
			if w.Down {
				continue
			}
			if r.c.Repl.Lag(w.ID) != 0 {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		if time.Now().After(end) {
			r.violate("repl-drain", "%s: %d replication group(s) still lagging after %v",
				label, behind, quiesceDeadline)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkLedgerAtomicity asserts 2PC all-or-none: every ledger batch updates
// all cross-worker keys to the batch id in one distributed transaction, so
// on a quiesced cluster the keys must be identical — a mixed read means a
// multi-shard transaction half-applied.
func (r *runner) checkLedgerAtomicity(label string) {
	metChecks.With("2pc-atomicity").Inc()
	s := r.c.Session()
	res, err := s.Exec("SELECT k, v FROM soak_ledger")
	if err != nil {
		r.violate("2pc-atomicity", "%s: reading ledger: %v", label, err)
		return
	}
	seen := map[int64][]int64{}
	for _, row := range res.Rows {
		k, _ := row[0].(int64)
		v, _ := row[1].(int64)
		seen[v] = append(seen[v], k)
	}
	if len(seen) > 1 {
		r.violate("2pc-atomicity", "%s: ledger keys split across batches %v — a 2PC half-applied", label, seen)
	}
}

// checkAckedWrites asserts no acked write lost: every ledger batch whose
// COMMIT was acknowledged to the client must appear in soak_ledger_log
// (written in the same transaction). Async replication is allowed a
// bounded tail around each failover — that bound IS the staleness
// contract; anything outside it, or any loss under sync replication, is a
// durability violation.
func (r *runner) checkAckedWrites(label string) {
	metChecks.With("acked-write").Inc()
	s := r.c.Session()
	res, err := s.Exec("SELECT batch FROM soak_ledger_log")
	if err != nil {
		r.violate("acked-write", "%s: reading ledger log: %v", label, err)
		return
	}
	logged := map[int64]bool{}
	for _, row := range res.Rows {
		if b, ok := row[0].(int64); ok {
			logged[b] = true
		}
	}

	r.ledger.mu.Lock()
	acked := append([]int64(nil), r.ledger.acked...)
	marks := append([]int64(nil), r.ledger.failoverMarks...)
	r.ledger.mu.Unlock()

	async := r.cfg.ReplicationMode == repl.ModeAsync
	excused := func(batch int64) bool {
		if !async {
			return false
		}
		for _, m := range marks {
			if batch > m-r.cfg.MaxAsyncLag && batch <= m+2 {
				return true
			}
		}
		return false
	}
	for _, b := range acked {
		if !logged[b] && !excused(b) {
			r.violate("acked-write", "%s: ledger batch %d was acknowledged but is missing from the log", label, b)
		}
	}
}

// checkBankSums asserts write-skew absence: each serializable bank pair
// only allows a withdrawal while the pair's sum covers it, so under true
// serializability no pair can ever overdraw. A negative sum is the
// classic cross-node write-skew anomaly.
func (r *runner) checkBankSums(label string) {
	metChecks.With("write-skew").Inc()
	s := r.c.Session()
	res, err := s.Exec("SELECT k, balance FROM soak_bank")
	if err != nil {
		r.violate("write-skew", "%s: reading bank: %v", label, err)
		return
	}
	bal := map[int64]int64{}
	for _, row := range res.Rows {
		k, _ := row[0].(int64)
		v, _ := row[1].(int64)
		bal[k] = v
	}
	for _, p := range r.bank.pairs {
		if sum := bal[p[0]] + bal[p[1]]; sum < 0 {
			r.violate("write-skew", "%s: bank pair (%d,%d) overdrawn: sum %d < 0", label, p[0], p[1], sum)
		}
	}
}

// checkPlacement asserts metadata/placement consistency: exactly one
// primary placement per shard, never hosted on a standby or down node,
// colocated tables' shard placements aligned, and the catalog version
// monotonic. Safe against live traffic: the catalog changes a promotion's
// rows all at once and bumps its version with them, but this walk reads
// tables, shards, placements and nodes in separate calls, so it reads the
// version before and after and walks again when a change went by in between
// — what it reports was all read from one version. Primary-on-down-node is
// skipped mid-failover (the window where the crash is real and the promotion
// is in flight).
func (r *runner) checkPlacement() {
	metChecks.With("placement").Inc()
	meta := r.c.Meta
	for {
		v := meta.Version()
		found := r.walkPlacement()
		if meta.Version() != v {
			continue
		}
		if last := r.lastCatalogVersion.Load(); v < last {
			r.violate("placement", "catalog version went backwards: %d -> %d", last, v)
		} else {
			r.lastCatalogVersion.Store(v)
		}
		for _, detail := range found {
			r.violate("placement", "%s", detail)
		}
		return
	}
}

// walkPlacement is one pass of checkPlacement over the catalog; it returns
// what it found wrong.
func (r *runner) walkPlacement() (found []string) {
	meta := r.c.Meta
	bad := func(format string, args ...any) { found = append(found, fmt.Sprintf(format, args...)) }
	midFailover := r.failoverActive.Load()
	primaryByGroup := map[string]int{} // colocationID/shardIndex -> primary node

	for _, t := range meta.Tables() {
		// A reference table is replicated to every node, so each node's
		// copy is a primary placement; only hash-distributed shards have
		// the exactly-one-primary contract.
		reference := t.Type == metadata.ReferenceTable
		for _, sh := range meta.Shards(t.Name) {
			primaries := 0
			for _, p := range meta.PlacementRows(sh.ID) {
				if p.Role != metadata.RolePrimary {
					continue
				}
				primaries++
				node, ok := meta.Node(p.NodeID)
				if !ok {
					bad("shard %d primary on unknown node %d", sh.ID, p.NodeID)
					continue
				}
				if node.Standby {
					bad("shard %d primary on standby node %d", sh.ID, p.NodeID)
				}
				if node.Down && !midFailover {
					bad("shard %d primary on down node %d", sh.ID, p.NodeID)
				}
				if !reference && t.ColocationID != 0 {
					key := fmt.Sprintf("%d/%d", t.ColocationID, sh.Index)
					if prev, ok := primaryByGroup[key]; ok && prev != p.NodeID {
						bad("colocation group %d shard index %d split across nodes %d and %d (table %s)",
							t.ColocationID, sh.Index, prev, p.NodeID, t.Name)
					} else {
						primaryByGroup[key] = p.NodeID
					}
				}
			}
			if reference {
				if primaries == 0 {
					bad("reference shard %d (%s) has no placements", sh.ID, t.Name)
				}
			} else if primaries != 1 {
				bad("shard %d (%s) has %d primary placements", sh.ID, t.Name, primaries)
			}
		}
	}
	return found
}

// checkStaleness asserts bounded staleness for async replication where the
// bound is enforced: no write on a live replication group was acknowledged
// with a standby more than MaxAsyncLag records behind it
// (repl.Manager.AckLag). The lag read off a group at an arbitrary moment is
// no such bound — it also counts the records of every writer that has
// appended and not yet reached its wait, a transaction's worth per
// concurrent writer — which is how a sampled lag of 68 once "exceeded" 64.
// Runs continuously; skipped mid-failover, when the failed group is
// legitimately frozen until its standby is promoted.
func (r *runner) checkStaleness() {
	if r.cfg.ReplicationMode != repl.ModeAsync || r.c.Repl == nil || r.failoverActive.Load() {
		return
	}
	metChecks.With("staleness").Inc()
	for _, w := range r.c.Meta.WorkerNodes() {
		if w.Down {
			continue
		}
		if lag := r.c.Repl.AckLag(w.ID); lag > r.cfg.MaxAsyncLag {
			r.violate("staleness", "node %d acknowledged a write with a standby %d records behind, bound %d",
				w.ID, lag, r.cfg.MaxAsyncLag)
		}
	}
}
