package citus

// Distributed SSI (docs/ssi.md): every node tracks SIREAD locks and
// rw-antidependency edges for its local transactions, and the engine's
// pre-commit check aborts dangerous structures it can see locally. A
// conflict chain that spans nodes — T1 reads on worker A what T2 writes,
// T2 reads on worker B what T3 writes — is invisible to any single node,
// so the coordinator merges the per-node conflict graphs (keyed by
// distributed transaction id) at two points: synchronously before a
// multi-node serializable commit, and asynchronously in the deadlock
// detector's poll, which dooms in-flight pivots cluster-wide.

import (
	"fmt"
	"strconv"

	"citusgo/internal/obs"
	"citusgo/internal/ssi"
)

var (
	metSSIDistChecks = obs.Default().Counter("ssi_dist_checks_total",
		"merged conflict-graph checks run at distributed serializable commit").With()
	metSSIDistAborts = obs.Default().Counter("ssi_dist_aborts_total",
		"distributed transactions aborted as pivots by the merged-graph check").With()
	metSSIPivotDooms = obs.Default().Counter("ssi_pivot_dooms_total",
		"in-flight distributed transactions doomed cluster-wide by the background pivot scan").With()
)

// ssiActive reports whether serializable commits through this node run the
// SSI machinery: the switch the engine's sessions read (Features.NoSSI).
func (n *Node) ssiActive() bool { return !n.Eng.Features().NoSSI }

// ssiPollFailure converts a failed edge poll into a retryable serialization
// error. The check fails closed: a graph with missing edges could validate a
// pivot that must abort, so an unreachable participant aborts the commit
// rather than risking an anomaly.
func ssiPollFailure(nodeID int, err error) error {
	return fmt.Errorf("ssi edge poll on node %d: %v: %w", nodeID, err, ssi.ErrSerializationFailure)
}

// ssiMergedCheck is the coordinator half of the distributed
// dangerous-structure check, run before a multi-node serializable commit.
// It polls every participant node's rw-antidependency edges, merges them
// with the local ones, and rejects the commit if the committing transaction
// is a pivot in the merged graph. The returned release function must be
// held across the worker commits (the caller defers it): ssiCommitMu
// serializes sibling serializable commits from this coordinator so the
// graph cannot gain edges from a sibling between its check and the moment
// its commits land.
//
// Single-node serializable transactions never come here: all their edges
// live on one engine, whose own pre-commit check is sound, so skipping the
// merged check keeps the common router path at local-SSI cost.
func (n *Node) ssiMergedCheck(distID string, participants []*workerConn, traceID, spanID uint64) (func(), error) {
	n.ssiCommitMu.Lock()
	release := n.ssiCommitMu.Unlock
	sp := n.Eng.Tracer.StartSpan(traceID, spanID, "ssi_check", distID)
	defer sp.Finish()
	metSSIDistChecks.Inc()

	edges := n.Eng.SSIWireEdges()
	polledNodes := 0
	seen := map[int]bool{n.ID: true} // this node's edges are in already
	for _, wc := range participants {
		if seen[wc.nodeID] {
			continue
		}
		seen[wc.nodeID] = true
		res, err := n.callNode(wc.nodeID, "citus_node_wait_edges", "SELECT citus_node_wait_edges()")
		if err != nil {
			return release, ssiPollFailure(wc.nodeID, err)
		}
		polledNodes++
		_, nodeEdges := parseWaitEdges(res.Rows)
		edges = append(edges, nodeEdges...)
	}
	if sp != nil {
		sp.SetAttr("ssi.nodes", strconv.Itoa(polledNodes))
		sp.SetAttr("ssi.edges", strconv.Itoa(len(edges)))
	}
	if ssi.BuildGraph(edges).DangerousPivot(distID) {
		metSSIDistAborts.Inc()
		if sp != nil {
			sp.SetAttr("ssi.verdict", "pivot_abort")
		}
		return release, fmt.Errorf(
			"could not serialize access: distributed transaction %s is an unsafe pivot: %w",
			distID, ssi.ErrSerializationFailure)
	}
	if sp != nil {
		sp.SetAttr("ssi.verdict", "ok")
	}
	return release, nil
}

// doomActivePivots is the asynchronous half: given the cluster-wide edge
// set collected by the deadlock detector's poll, doom every in-flight
// distributed transaction that already forms a dangerous structure. Dooming
// does not interrupt the transaction — its commit fails with a retryable
// serialization error on whichever node it reaches first. This catches
// pivots whose coordinator-side check cannot run (single-writer delegated
// commits racing a sibling from another coordinator in MX mode) earlier
// than their own commit would.
func (n *Node) doomActivePivots(edges []ssi.WireEdge) {
	if len(edges) == 0 || !n.ssiActive() {
		return
	}
	for _, dist := range ssi.BuildGraph(edges).ActivePivots() {
		metSSIPivotDooms.Inc()
		n.Eng.DoomByDistID(dist)
		for _, node := range n.Meta.ActiveNodes() {
			if node.ID == n.ID {
				continue
			}
			_, _ = n.callNode(node.ID, "citus_node_doom_dist", "SELECT citus_node_doom_dist($1)", dist)
		}
	}
}
