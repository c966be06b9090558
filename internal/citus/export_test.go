package citus

import "citusgo/internal/pool"

// PoolForTest hands a test the shared connection pool toward a node, so it
// can put a connection into a state no executor path leaves one in.
func (n *Node) PoolForTest(nodeID int) (*pool.NodePool, error) { return n.poolFor(nodeID) }
