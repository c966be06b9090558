// Package bufpool simulates a per-node buffer pool. It does not cache data
// (tables live in memory); it tracks which pages would be resident in a
// bounded buffer pool and charges a simulated I/O latency on every miss.
//
// This is the substitution that reproduces the paper's benchmark setup
// ("Each benchmark is structured such that a single server cannot keep all
// the data in memory, but Citus 4+1 can"): a single node with a small pool
// thrashes and pays I/O latency on most accesses, while the same data split
// across four workers fits in their combined pools.
package bufpool

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies one page of one table.
type PageID struct {
	Table int64
	Page  int32
}

// Pool tracks page residency with LRU eviction and charges simulated I/O
// latency for misses. A zero capacity disables the simulation entirely
// (infinite memory, zero latency) — the default for unit tests.
type Pool struct {
	capacity  int
	ioLatency time.Duration
	ioSem     chan struct{}

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are PageID
	resident map[PageID]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

// Config sizes a pool.
type Config struct {
	// CapacityPages bounds residency; 0 disables I/O simulation.
	CapacityPages int
	// IOLatency is charged per page miss (default 200µs when capacity > 0).
	IOLatency time.Duration
}

// ioConcurrency bounds parallel simulated I/Os, modelling a disk's queue
// depth / IOPS limit, until SetIOLatency says otherwise.
const ioConcurrency = 4

// New creates a pool.
func New(cfg Config) *Pool {
	p := &Pool{
		capacity:  cfg.CapacityPages,
		ioLatency: cfg.IOLatency,
		lru:       list.New(),
		resident:  make(map[PageID]*list.Element),
	}
	if cfg.CapacityPages > 0 {
		p.SetCapacity(cfg.CapacityPages)
	}
	return p
}

// Unlimited returns a pool with the I/O simulation off.
func Unlimited() *Pool { return New(Config{}) }

// SetCapacity resizes the pool at runtime. The benchmark harness loads data
// with the simulation off (capacity 0) and then bounds memory, mirroring
// "the data set does not fit in memory" setups without paying simulated
// I/O during bulk loads. Passing 0 disables the simulation again.
func (p *Pool) SetCapacity(pages int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = pages
	if p.ioSem == nil {
		p.ioSem = make(chan struct{}, ioConcurrency)
	}
	if p.ioLatency == 0 {
		p.ioLatency = 200 * time.Microsecond
	}
	for pages > 0 && p.lru.Len() > pages {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.resident, back.Value.(PageID))
	}
}

// SetIOLatency adjusts the per-miss latency (harness tuning).
func (p *Pool) SetIOLatency(d time.Duration, concurrency int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ioLatency = d
	if concurrency > 0 {
		p.ioSem = make(chan struct{}, concurrency)
	}
}

// Access records an access to a page, evicting under memory pressure and
// sleeping for the simulated I/O latency on a miss.
func (p *Pool) Access(id PageID) {
	p.mu.Lock()
	if p.capacity == 0 {
		p.mu.Unlock()
		return
	}
	if el, ok := p.resident[id]; ok {
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		p.hits.Add(1)
		return
	}
	for p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.resident, back.Value.(PageID))
	}
	p.resident[id] = p.lru.PushFront(id)
	latency := p.ioLatency
	sem := p.ioSem
	p.mu.Unlock()

	p.misses.Add(1)
	if latency > 0 && sem != nil {
		sem <- struct{}{}
		time.Sleep(latency)
		<-sem
	}
}

// Forget drops all pages of a table (e.g. DROP TABLE / TRUNCATE).
func (p *Pool) Forget(table int64) {
	if p.capacity == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for el := p.lru.Front(); el != nil; {
		next := el.Next()
		if id := el.Value.(PageID); id.Table == table {
			p.lru.Remove(el)
			delete(p.resident, id)
		}
		el = next
	}
}

// Stats reports hit/miss counters.
func (p *Pool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}
