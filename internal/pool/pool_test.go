package pool

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/wire"
)

func newDialer(t *testing.T, dialCount *atomic.Int64) Dialer {
	t.Helper()
	srv := newServer(t)
	return func() (*wire.Conn, error) {
		dialCount.Add(1)
		return srv.Connect(0)
	}
}

// newServer serves a fresh engine to in-process connections.
func newServer(t *testing.T) *wire.Server {
	t.Helper()
	e := engine.New(engine.Config{Name: "n"})
	t.Cleanup(e.Close)
	srv, err := wire.Serve(e, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestGetPutReuses(t *testing.T) {
	var dials atomic.Int64
	p := New("n", 4, newDialer(t, &dials))
	c1, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c1)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("idle connection not reused")
	}
	if dials.Load() != 1 {
		t.Fatalf("dialed %d times", dials.Load())
	}
}

func TestSharedLimit(t *testing.T) {
	var dials atomic.Int64
	p := New("n", 2, newDialer(t, &dials))
	c1, _ := p.Get()
	c2, _ := p.Get()
	if _, err := p.Get(); !errors.Is(err, ErrLimit) {
		t.Fatalf("expected ErrLimit, got %v", err)
	}
	p.Put(c1)
	if _, err := p.Get(); err != nil {
		t.Fatalf("idle conn should satisfy Get at the limit: %v", err)
	}
	p.Discard(c2)
	if _, err := p.Get(); err != nil {
		t.Fatalf("discard should free a slot: %v", err)
	}
}

func TestStatsAndCloseAll(t *testing.T) {
	var dials atomic.Int64
	p := New("n", 8, newDialer(t, &dials))
	c1, _ := p.Get()
	c2, _ := p.Get()
	p.Put(c1)
	total, idle := p.Stats()
	if total != 2 || idle != 1 {
		t.Fatalf("stats: total=%d idle=%d", total, idle)
	}
	p.CloseAll()
	total, idle = p.Stats()
	if total != 1 || idle != 0 {
		t.Fatalf("after close: total=%d idle=%d", total, idle)
	}
	p.Discard(c2)
	if total, _ := p.Stats(); total != 0 {
		t.Fatalf("total = %d", total)
	}
}

func TestUnlimitedPool(t *testing.T) {
	var dials atomic.Int64
	p := New("n", 0, newDialer(t, &dials))
	for i := 0; i < 50; i++ {
		if _, err := p.Get(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplaceKeepsTheSlot: Replace dials the new connection inside the slot
// the old one held. At a limit of one the slot is taken for the whole of the
// dial — a Get made while Replace waits for its dialer is turned away — and
// the pool counts one connection before, during and after.
func TestReplaceKeepsTheSlot(t *testing.T) {
	srv := newServer(t)
	dialing, proceed := make(chan struct{}, 1), make(chan struct{}, 1)
	proceed <- struct{}{} // the first dial goes straight through
	p := New("n", 1, func() (*wire.Conn, error) {
		dialing <- struct{}{}
		<-proceed
		return srv.Connect(0)
	})
	old, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	<-dialing

	type replaced struct {
		c   *wire.Conn
		err error
	}
	done := make(chan replaced)
	go func() {
		c, err := p.Replace(old)
		done <- replaced{c, err}
	}()
	<-dialing // Replace is inside its dial
	if _, err := p.Get(); !errors.Is(err, ErrLimit) {
		t.Fatalf("Get during Replace's dial: %v, want ErrLimit: the slot was given up", err)
	}
	proceed <- struct{}{}
	r := <-done
	if r.err != nil || r.c == nil || r.c == old {
		t.Fatalf("Replace returned %v, %v", r.c, r.err)
	}
	if total, idle := p.Stats(); total != 1 || idle != 0 {
		t.Fatalf("after Replace: %d open, %d idle, want 1 and 0", total, idle)
	}
	if _, err := old.Query("SELECT 1"); err == nil {
		t.Error("the replaced connection is still open")
	}
	if _, err := r.c.Query("SELECT 1"); err != nil {
		t.Errorf("the new connection: %v", err)
	}

	// a failed dial closes the old connection all the same and frees its slot
	p.dial = func() (*wire.Conn, error) { return nil, errors.New("refused") }
	if _, err := p.Replace(r.c); err == nil {
		t.Fatal("Replace with a failing dialer succeeded")
	}
	if total, _ := p.Stats(); total != 0 {
		t.Fatalf("after a failed Replace: %d open, want 0", total)
	}
}

// TestWaitFreeWakesOnPutAndDiscard: a caller parked on the limit stays
// parked while every slot is taken and proceeds when another caller Puts a
// connection back, and again when one is Discarded.
func TestWaitFreeWakesOnPutAndDiscard(t *testing.T) {
	var dials atomic.Int64
	p := New("n", 1, newDialer(t, &dials))
	for _, free := range []func(*wire.Conn){p.Put, p.Discard} {
		held, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan *wire.Conn, 1)
		go func() {
			for {
				c, err := p.Get()
				if err == nil {
					got <- c
					return
				}
				p.WaitFree()
			}
		}()
		select {
		case <-got:
			t.Fatal("a Get past the limit succeeded")
		case <-time.After(20 * time.Millisecond):
		}
		free(held)
		select {
		case c := <-got:
			p.Discard(c)
		case <-time.After(5 * time.Second):
			t.Fatal("the parked caller was not woken")
		}
	}
}
