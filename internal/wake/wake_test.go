package wake

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBroadcastWakesWaiter(t *testing.T) {
	var n Notifier
	var v atomic.Int64
	done := make(chan bool)
	go func() { done <- n.Wait(time.Now().Add(5*time.Second), func() bool { return v.Load() == 1 }) }()
	for n.parked.Load() == 0 {
		time.Sleep(time.Millisecond) // let the waiter park
	}
	start := time.Now()
	v.Store(1)
	n.Broadcast()
	if !<-done {
		t.Fatal("Wait reported false after its condition came true")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("woken after %v", d)
	}
	if n.parked.Load() != 0 {
		t.Fatalf("%d still parked", n.parked.Load())
	}
}

// TestTimedOutWaitLeavesNoOneParked: a waiter that leaves at its deadline
// takes back its park, so a later Broadcast finds nobody and does nothing.
func TestTimedOutWaitLeavesNoOneParked(t *testing.T) {
	var n Notifier
	start := time.Now()
	if n.Wait(start.Add(5*time.Millisecond), func() bool { return false }) {
		t.Fatal("a false condition reported true")
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("returned after %v, before its deadline", d)
	}
	if n.parked.Load() != 0 {
		t.Fatalf("%d parked after a timed-out wait", n.parked.Load())
	}
	// a condition that comes true while parking leaves no one either
	calls := 0
	if !n.Wait(time.Time{}, func() bool { calls++; return calls == 2 }) {
		t.Fatal("Wait returned false")
	}
	if n.parked.Load() != 0 {
		t.Fatalf("%d parked after a wait that never slept", n.parked.Load())
	}
}

func TestBroadcastWithNobodyParkedAllocatesNothing(t *testing.T) {
	var n Notifier
	if allocs := testing.AllocsPerRun(1000, n.Broadcast); allocs != 0 {
		t.Fatalf("%.1f allocations per Broadcast", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { n.Wait(time.Time{}, func() bool { return true }) }); allocs != 0 {
		t.Fatalf("%.1f allocations per Wait on a true condition", allocs)
	}
}

// TestWakeNeverMissed: writers move a counter and broadcast, each waiter
// waits for the next value from where it last saw the counter. A lost
// wake-up strands a waiter until the test's deadline.
func TestWakeNeverMissed(t *testing.T) {
	var n Notifier
	var v atomic.Int64
	const writers, steps, waiters = 4, 500, 4
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := int64(0); seen < writers*steps; {
				if !n.Wait(time.Now().Add(10*time.Second), func() bool { return v.Load() > seen }) {
					t.Errorf("stranded at %d with the counter at %d", seen, v.Load())
					return
				}
				seen = v.Load()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				v.Add(1)
				n.Broadcast()
			}
		}()
	}
	wg.Wait()
}
