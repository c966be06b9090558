package bufpool

import (
	"testing"
	"time"
)

func TestUnlimitedPoolIsFree(t *testing.T) {
	p := Unlimited()
	start := time.Now()
	for i := 0; i < 100000; i++ {
		p.Access(PageID{Table: 1, Page: int32(i)})
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("unlimited pool must not charge latency")
	}
	if _, misses := p.Stats(); misses != 0 {
		t.Fatal("unlimited pool recorded misses")
	}
}

func TestHitsAndMisses(t *testing.T) {
	p := New(Config{CapacityPages: 4, IOLatency: time.Microsecond})
	for i := 0; i < 4; i++ {
		p.Access(PageID{Table: 1, Page: int32(i)})
	}
	hits, misses := p.Stats()
	if hits != 0 || misses != 4 {
		t.Fatalf("cold: hits=%d misses=%d", hits, misses)
	}
	for i := 0; i < 4; i++ {
		p.Access(PageID{Table: 1, Page: int32(i)})
	}
	hits, _ = p.Stats()
	if hits != 4 {
		t.Fatalf("warm: hits=%d", hits)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(Config{CapacityPages: 2, IOLatency: time.Microsecond})
	p.Access(PageID{Table: 1, Page: 0}) // miss
	p.Access(PageID{Table: 1, Page: 1}) // miss
	p.Access(PageID{Table: 1, Page: 0}) // hit, 0 now MRU
	p.Access(PageID{Table: 1, Page: 2}) // miss, evicts 1
	p.Access(PageID{Table: 1, Page: 0}) // hit
	p.Access(PageID{Table: 1, Page: 1}) // miss again (was evicted)
	hits, misses := p.Stats()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestWorkingSetEffect(t *testing.T) {
	// the core of the paper's benchmark setup: a working set larger than
	// the pool pays latency on nearly every access; a fitting one is free
	const latency = 300 * time.Microsecond
	p := New(Config{CapacityPages: 10, IOLatency: latency})
	// fits: 8 pages scanned twice, second pass all hits
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 8; i++ {
			p.Access(PageID{Table: 1, Page: int32(i)})
		}
	}
	hits, _ := p.Stats()
	if hits != 8 {
		t.Fatalf("fitting working set: hits=%d", hits)
	}
	// thrashes: 20 pages cycled LRU means zero hits
	p2 := New(Config{CapacityPages: 10, IOLatency: time.Microsecond})
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 20; i++ {
			p2.Access(PageID{Table: 1, Page: int32(i)})
		}
	}
	hits2, misses2 := p2.Stats()
	if hits2 != 0 || misses2 != 40 {
		t.Fatalf("thrashing working set: hits=%d misses=%d", hits2, misses2)
	}
}

func TestForget(t *testing.T) {
	p := New(Config{CapacityPages: 8, IOLatency: time.Microsecond})
	p.Access(PageID{Table: 1, Page: 0})
	p.Access(PageID{Table: 2, Page: 0})
	p.Forget(1)
	p.Access(PageID{Table: 2, Page: 0}) // still resident
	p.Access(PageID{Table: 1, Page: 0}) // forgotten: miss
	hits, misses := p.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestSetCapacityEnablesAndShrinks(t *testing.T) {
	p := Unlimited()
	p.Access(PageID{Table: 1, Page: 0})
	if _, misses := p.Stats(); misses != 0 {
		t.Fatal("disabled pool counted a miss")
	}
	p.SetIOLatency(time.Microsecond, 2)
	p.SetCapacity(2)
	p.Access(PageID{Table: 1, Page: 0})
	p.Access(PageID{Table: 1, Page: 1})
	p.Access(PageID{Table: 1, Page: 2})
	p.SetCapacity(1) // shrink evicts down to 1 page
	p.Access(PageID{Table: 1, Page: 2})
	hits, _ := p.Stats()
	if hits != 1 {
		t.Fatalf("expected MRU page to survive the shrink, hits=%d", hits)
	}
}

func TestIOLatencyIsCharged(t *testing.T) {
	const latency = 2 * time.Millisecond
	p := New(Config{CapacityPages: 1, IOLatency: latency})
	start := time.Now()
	p.Access(PageID{Table: 1, Page: 0})
	p.Access(PageID{Table: 1, Page: 1})
	if elapsed := time.Since(start); elapsed < 2*latency {
		t.Fatalf("expected >= %v of simulated I/O, got %v", 2*latency, elapsed)
	}
}
