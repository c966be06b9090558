// Package pool manages cached connections from a coordinating node to a
// worker node, enforcing the shared per-worker connection limit the
// adaptive executor relies on (paper §3.6.1): "the executor also keeps
// track of the total number of connections to each worker node ... to
// prevent it from exceeding a shared connection limit". The counter is
// shared by all sessions executing distributed queries on this node.
package pool

import (
	"errors"
	"sync"
	"time"

	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/wake"
	"citusgo/internal/wire"
)

// Metric families, labeled by node name (obs: "which worker is the
// connection pressure against?").
var (
	metGets = obs.Default().Counter("pool_gets_total",
		"connections handed out by a node pool (idle reuse or fresh dial)", "node")
	metDials = obs.Default().Counter("pool_dials_total",
		"new connections dialed by a node pool", "node")
	metLimitWaits = obs.Default().Counter("pool_limit_waits_total",
		"Get calls turned away at the shared connection limit (paper §3.6.1)", "node")
	metDiscards = obs.Default().Counter("pool_discards_total",
		"connections closed instead of returned to the pool", "node")
	metOpen = obs.Default().Gauge("pool_open_conns",
		"currently open connections per node pool", "node")
)

// Dialer opens a new connection to the pool's node.
type Dialer func() (*wire.Conn, error)

// ErrLimit is returned by Get when the shared connection limit is reached
// and no idle connection is available.
var ErrLimit = errors.New("shared connection limit reached")

// NodePool caches connections to one worker node.
type NodePool struct {
	Node string

	dial  Dialer
	limit int

	mu    sync.Mutex
	idle  []*wire.Conn
	total int
	// freed wakes the sessions parked in WaitFree when a connection comes
	// back or a slot is given up.
	freed wake.Notifier

	gets, dials, limitWaits, discards *obs.Counter
	open                              *obs.Gauge
}

// New creates a pool. limit <= 0 means unlimited.
func New(node string, limit int, dial Dialer) *NodePool {
	return &NodePool{
		Node: node, dial: dial, limit: limit,
		gets:       metGets.With(node),
		dials:      metDials.With(node),
		limitWaits: metLimitWaits.With(node),
		discards:   metDiscards.With(node),
		open:       metOpen.With(node),
	}
}

// Get returns an idle cached connection, or dials a new one if under the
// shared limit. It never blocks: at the limit it returns ErrLimit, and the
// adaptive executor queues the task on an existing connection instead.
func (p *NodePool) Get() (*wire.Conn, error) {
	if err := fault.CheckKey(fault.PointPoolCheckout, p.Node); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.gets.Inc()
		return c, nil
	}
	if p.limit > 0 && p.total >= p.limit {
		p.mu.Unlock()
		p.limitWaits.Inc()
		return nil, ErrLimit
	}
	p.total++
	p.mu.Unlock()

	c, err := p.dialInSlot()
	if err != nil {
		return nil, err
	}
	p.open.Inc()
	return c, nil
}

// dialInSlot dials a connection for a slot of the limit the caller has
// taken, and gives the slot up when the dial fails.
func (p *NodePool) dialInSlot() (*wire.Conn, error) {
	c, err := p.dial()
	if err == nil {
		if ferr := fault.CheckKey(fault.PointPoolDial, p.Node); ferr != nil {
			_ = c.Close()
			err = ferr
		}
	}
	if err != nil {
		p.mu.Lock()
		p.total--
		p.mu.Unlock()
		p.freed.Broadcast()
		return nil, err
	}
	p.gets.Inc()
	p.dials.Inc()
	return c, nil
}

// Replace closes a connection the caller holds — a dead one — and dials a new
// one inside the slot of the shared limit the old one held. The slot is never
// given up in between, so the limit is neither consulted nor exceeded and no
// other session can take the slot from a caller that must have a connection
// to make progress. old is closed either way; when the dial fails its slot is
// released, as by Discard.
func (p *NodePool) Replace(old *wire.Conn) (*wire.Conn, error) {
	_ = old.Close()
	p.discards.Inc()
	c, err := p.dialInSlot()
	if err != nil {
		p.open.Dec()
	}
	return c, err
}

// Put returns a connection to the cache for reuse ("Citus caches
// connections for higher performance", §3.2.1). Connections with open
// transaction state must not be Put — Discard them instead. The trace
// context the executor stamped for its last task is cleared here so a
// pooled connection never attributes the next query to an old trace.
func (p *NodePool) Put(c *wire.Conn) {
	c.ClearTrace()
	p.mu.Lock()
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	p.freed.Broadcast()
}

// Discard closes a connection and releases its slot.
func (p *NodePool) Discard(c *wire.Conn) {
	_ = c.Close()
	p.mu.Lock()
	p.total--
	p.mu.Unlock()
	p.freed.Broadcast()
	p.discards.Inc()
	p.open.Dec()
}

// WaitFree blocks until Get would find an idle connection or a free slot
// under the limit: until another session Puts or Discards one.
func (p *NodePool) WaitFree() {
	p.freed.Wait(time.Time{}, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.idle) > 0 || p.limit <= 0 || p.total < p.limit
	})
}

// Stats reports (total open, idle cached) connections.
func (p *NodePool) Stats() (total, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total, len(p.idle)
}

// CloseAll drops all idle connections (shutdown).
func (p *NodePool) CloseAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.total -= len(idle)
	p.mu.Unlock()
	p.freed.Broadcast()
	p.open.Add(int64(-len(idle)))
	for _, c := range idle {
		_ = c.Close()
	}
}
