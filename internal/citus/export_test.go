package citus

import (
	"citusgo/internal/pool"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// PoolForTest hands a test the shared connection pool toward a node, so it
// can put a connection into a state no executor path leaves one in.
func (n *Node) PoolForTest(nodeID int) (*pool.NodePool, error) { return n.poolFor(nodeID) }

// ParseTreesForTest counts the parse trees of text the coordinator's plan
// cache has been handed: one for every parse of the client's statement that
// the session statement cache did not spare.
func (n *Node) ParseTreesForTest(text string) int {
	n.planCache.mu.Lock()
	defer n.planCache.mu.Unlock()
	trees := 0
	for stmt := range n.planCache.fp {
		if stmt.String() == text {
			trees++
		}
	}
	return trees
}

// RouterPlanForTest plans q as the router planner does at every execution
// of it, and reports whether the plan was made with its EXPLAIN text, and
// the lines it renders when asked.
func (n *Node) RouterPlanForTest(q string, params ...types.Datum) (built bool, lines []string, err error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return false, nil, err
	}
	p, err := n.analyzeRouter(stmt).plan(n, params, false)
	if err != nil || p == nil {
		return false, nil, err
	}
	return p.explain != nil, p.ExplainLines(), nil
}
