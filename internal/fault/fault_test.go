package fault

import (
	"errors"
	"sync"
	"testing"
	"time"

	"citusgo/internal/obs"
)

func TestDisarmedCheckIsNil(t *testing.T) {
	Reset()
	if err := Check(PointWireSend); err != nil {
		t.Fatalf("disarmed Check returned %v", err)
	}
	if got := Hits(PointWireSend); got != 0 {
		t.Fatalf("disarmed Check counted a hit: %d", got)
	}
}

func TestErrorRuleAndReset(t *testing.T) {
	Reset()
	Arm(Rule{Point: Point2PCPrepare, Action: ActError})
	err := Check(Point2PCPrepare)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if Fired(Point2PCPrepare) != 1 {
		t.Fatalf("fired = %d, want 1", Fired(Point2PCPrepare))
	}
	Reset()
	if err := Check(Point2PCPrepare); err != nil {
		t.Fatalf("after Reset, Check returned %v", err)
	}
	if Fired(Point2PCPrepare) != 0 {
		t.Fatalf("Reset did not clear totals")
	}
}

func TestCustomError(t *testing.T) {
	Reset()
	defer Reset()
	myErr := errors.New("boom")
	Arm(Rule{Point: PointPoolDial, Action: ActError, Err: myErr})
	if err := Check(PointPoolDial); !errors.Is(err, myErr) {
		t.Fatalf("want custom error, got %v", err)
	}
}

func TestAfterSkipsFirstHits(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWALAppend, Action: ActError, After: 2})
	for i := 0; i < 2; i++ {
		if err := Check(PointWALAppend); err != nil {
			t.Fatalf("hit %d should pass, got %v", i+1, err)
		}
	}
	if err := Check(PointWALAppend); !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 3 should fire, got %v", err)
	}
}

func TestCountLimitsFiringsAndRearmsFastPath(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWireRecv, Action: ActDropConn, Count: 2})
	for i := 0; i < 2; i++ {
		if err := Check(PointWireRecv); !errors.Is(err, ErrDropConn) {
			t.Fatalf("firing %d: got %v", i+1, err)
		}
	}
	// Exhausted: back to passing, and the armed count must have dropped so
	// the fast path is restored.
	if err := Check(PointWireRecv); err != nil {
		t.Fatalf("exhausted rule still fired: %v", err)
	}
	if n := armedCount.Load(); n != 0 {
		t.Fatalf("armedCount = %d after exhaustion, want 0", n)
	}
}

func TestKeyMatching(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWireSend, Key: "copy", Action: ActError})
	if err := CheckKey(PointWireSend, "query"); err != nil {
		t.Fatalf("non-matching key fired: %v", err)
	}
	if err := CheckKey(PointWireSend, "copy"); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching key did not fire: %v", err)
	}
	// Empty rule key matches any check key.
	Reset()
	Arm(Rule{Point: PointWireSend, Action: ActError})
	if err := CheckKey(PointWireSend, "anything"); !errors.Is(err, ErrInjected) {
		t.Fatalf("wildcard rule did not fire: %v", err)
	}
}

func TestDelayThenContinue(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointPoolCheckout, Action: ActDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := Check(PointPoolCheckout); err != nil {
		t.Fatalf("delay rule returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay not applied: %v", d)
	}
}

func TestDelayComposesWithError(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: Point2PCCommit, Action: ActDelay, Delay: 5 * time.Millisecond})
	Arm(Rule{Point: Point2PCCommit, Action: ActError})
	start := time.Now()
	err := Check(Point2PCCommit)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("composed rules: got %v", err)
	}
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("delay skipped in composition: %v", d)
	}
}

func TestProbDeterministicUnderSeed(t *testing.T) {
	Reset()
	defer Reset()
	defer SetSeed(Seed())

	run := func(seed int64) []bool {
		Reset()
		SetSeed(seed)
		Arm(Rule{Point: PointMetaSync, Action: ActError, Prob: 0.5})
		out := make([]bool, 50)
		for i := range out {
			out[i] = Check(PointMetaSync) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d times — not probabilistic", fires, len(a))
	}
}

func TestPanicAction(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWALFsync, Action: ActPanic})
	defer func() {
		r := recover()
		ip, ok := r.(InjectedPanic)
		if !ok || ip.Point != PointWALFsync {
			t.Fatalf("recover() = %v, want InjectedPanic{wal.fsync}", r)
		}
	}()
	Check(PointWALFsync)
	t.Fatal("Check did not panic")
}

func TestGateBlocksUntilRelease(t *testing.T) {
	Reset()
	defer Reset()
	arrived, release := ArmGate(Point2PCCommit, "3")

	done := make(chan error, 1)
	go func() { done <- CheckKey(Point2PCCommit, "3") }()

	select {
	case <-arrived:
	case <-time.After(2 * time.Second):
		t.Fatal("gate never reported arrival")
	}
	select {
	case err := <-done:
		t.Fatalf("gated goroutine returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release(ErrDropConn)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDropConn) {
			t.Fatalf("released error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("release did not unblock the goroutine")
	}
	// One-shot: subsequent checks pass.
	if err := CheckKey(Point2PCCommit, "3"); err != nil {
		t.Fatalf("gate fired twice: %v", err)
	}
}

func TestGateReleaseBeforeArrival(t *testing.T) {
	Reset()
	defer Reset()
	_, release := ArmGate(PointWireSend, "")
	release(nil) // buffered: must not block, and must pre-release the gate
	if err := Check(PointWireSend); err != nil {
		t.Fatalf("pre-released gate returned %v", err)
	}
}

func TestDisarmRemovesOnlyThatPoint(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWireSend, Action: ActError})
	Arm(Rule{Point: PointWireRecv, Action: ActError})
	Disarm(PointWireSend)
	if err := Check(PointWireSend); err != nil {
		t.Fatalf("disarmed point still fires: %v", err)
	}
	if err := Check(PointWireRecv); err == nil {
		t.Fatal("unrelated point was disarmed")
	}
}

func TestObsCounterAdvances(t *testing.T) {
	Reset()
	defer Reset()
	before := obs.Default().Snapshot().Get(`fault_injected_total{point="executor.task"}`)
	Arm(Rule{Point: PointExecutorTask, Action: ActError, Count: 3})
	for i := 0; i < 5; i++ {
		Check(PointExecutorTask)
	}
	after := obs.Default().Snapshot().Get(`fault_injected_total{point="executor.task"}`)
	if after-before != 3 {
		t.Fatalf("fault_injected_total advanced by %d, want 3", after-before)
	}
}

func TestConcurrentChecksRaceClean(t *testing.T) {
	Reset()
	defer Reset()
	Arm(Rule{Point: PointWireSend, Action: ActError, After: 100, Count: 50})
	var wg sync.WaitGroup
	var fired atomic64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Check(PointWireSend) != nil {
					fired.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.load(); got != 50 {
		t.Fatalf("fired %d times under concurrency, want exactly 50", got)
	}
}

// tiny atomic wrapper to keep the test dependency-free
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
