// Package wake is the one way code here waits for another goroutine: the
// waiter names a condition, the goroutines that change what the condition
// reads call Broadcast after each change, and the waiter checks it again on
// every wake-up. Nothing polls, so a wait costs what the awaited event costs
// and no sleep quantum on top.
package wake

import (
	"sync"
	"sync/atomic"
	"time"
)

// Notifier wakes every goroutine parked in Wait. The zero value is ready to
// use. A Broadcast that finds nobody parked is one atomic load, so a hot path
// can broadcast on every change.
//
// A change made before Broadcast is never missed: Wait counts itself parked
// before it checks the condition, and Broadcast reads that count after the
// change, so either the check sees the change or Broadcast sees the waiter.
type Notifier struct {
	parked atomic.Int32
	mu     sync.Mutex
	ch     chan struct{} // closed by the next Broadcast; made by the first park after one
}

// Broadcast wakes every goroutine parked in Wait.
func (n *Notifier) Broadcast() {
	if n.parked.Load() == 0 {
		return
	}
	n.mu.Lock()
	if n.parked.Swap(0) > 0 { // then ch is open: parks make it first
		close(n.ch)
		n.ch = nil
	}
	n.mu.Unlock()
}

// Wait blocks until cond returns true or the deadline passes (a zero
// deadline never does) and returns cond's last result. cond runs on the
// caller's goroutine: first at once, then after every Broadcast.
func (n *Notifier) Wait(deadline time.Time, cond func() bool) bool {
	if cond() {
		return true
	}
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	for {
		// park, counted before cond runs again
		n.mu.Lock()
		if n.ch == nil {
			n.ch = make(chan struct{})
		}
		ch := n.ch
		n.parked.Add(1)
		n.mu.Unlock()
		if cond() {
			n.unpark(ch)
			return true
		}
		select {
		case <-ch:
		case <-expired:
			n.unpark(ch)
			return cond()
		}
	}
}

// unpark takes back the park of a waiter that leaves unwoken, unless a
// Broadcast has already closed its channel and reset the count.
func (n *Notifier) unpark(ch chan struct{}) {
	n.mu.Lock()
	if n.ch == ch {
		n.parked.Add(-1)
	}
	n.mu.Unlock()
}
