package soak

// Resource-leak tracking across a soak: every quiesced checkpoint samples
// the process's goroutine count, its live heap (after a forced GC, so the
// numbers compare like-for-like) and the WAL records each node holds in
// memory, and the report flags monotonic growth. Sampling at checkpoints —
// not on a timer — matters: the cluster is drained, so a rising floor cannot
// be explained by in-flight work. (A checkpoint here is the soak's quiesce
// point. A node's own checkpoint, the one that cuts its WAL, is called a
// log cut in this package.)

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"citusgo/internal/wal"
)

// LeakSample is one resource measurement taken at a quiesced checkpoint.
type LeakSample struct {
	Label      string
	Goroutines int
	HeapAlloc  uint64 // live heap bytes after runtime.GC()
	// WALRetained is wal.Log.Len() of every live engine, by node name: what
	// the node's log cuts have left in memory.
	WALRetained map[string]int
}

// leak-flagging thresholds: growth must be strictly monotonic across every
// checkpoint AND exceed an absolute floor, so normal jitter (a parked
// worker goroutine, GC laziness, a log that has not reached its next cut)
// never trips the verdict.
const (
	leakMinSamples     = 3
	leakGoroutineFloor = 32
	// A drained node holds under wal.CheckpointEvery records: its log is cut
	// every that many, and at a quiesce point no transaction, standby or
	// commit record holds the cut back. Twice that, and rising, is a holder
	// that never lets go.
	leakWALFloorRecords = 2 * wal.CheckpointEvery
	// longSoak is the run length from which the heap floor drops: the
	// nightly profile (`make soak`, ten times the old one) samples often
	// enough, over enough traffic, for 16 MiB of strictly rising live heap to
	// mean something. A PR-sized run keeps the floor its few samples need.
	longSoak = 10 * time.Minute
)

// leakHeapFloor is how much strictly rising live heap a run of length d
// must show before it is called a leak.
func leakHeapFloor(d time.Duration) uint64 {
	if d >= longSoak {
		return 16 << 20
	}
	return 64 << 20
}

// sampleLeaks records one checkpoint sample. Called while every workload
// class gate is held exclusively, i.e. with zero soak operations in flight.
func (r *runner) sampleLeaks(label string) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := LeakSample{Label: label, Goroutines: runtime.NumGoroutine(), HeapAlloc: ms.HeapAlloc,
		WALRetained: map[string]int{}}
	total := 0
	for _, node := range r.c.Meta.Nodes() {
		if eng := r.engineOf(node.ID); eng != nil && !eng.Crashed() {
			s.WALRetained[eng.Name] = eng.WAL.Len()
			total += eng.WAL.Len()
		}
	}
	r.mu.Lock()
	r.leakSamples = append(r.leakSamples, s)
	r.mu.Unlock()
	r.cfg.Logf("soak: checkpoint %q resources: %d goroutines, heap %.1f MiB, %d WAL records held on %d nodes",
		label, s.Goroutines, float64(s.HeapAlloc)/(1<<20), total, len(s.WALRetained))
}

// analyzeLeaks flags monotonic resource growth across the checkpoint
// samples: every sample strictly above its predecessor, with total growth
// past the floor (heapFloor for the live heap, see leakHeapFloor). Returns
// one human-readable flag per leaking resource.
func analyzeLeaks(samples []LeakSample, heapFloor uint64) []string {
	if len(samples) < leakMinSamples {
		return nil
	}
	gMono, hMono := true, true
	for i := 1; i < len(samples); i++ {
		if samples[i].Goroutines <= samples[i-1].Goroutines {
			gMono = false
		}
		if samples[i].HeapAlloc <= samples[i-1].HeapAlloc {
			hMono = false
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	var flags []string
	if gMono && last.Goroutines-first.Goroutines >= leakGoroutineFloor {
		flags = append(flags, fmt.Sprintf(
			"goroutine leak suspected: %d -> %d, strictly rising across %d quiesced checkpoints",
			first.Goroutines, last.Goroutines, len(samples)))
	}
	if hMono && last.HeapAlloc-first.HeapAlloc >= heapFloor {
		flags = append(flags, fmt.Sprintf(
			"heap leak suspected: %.1f MiB -> %.1f MiB live after GC, strictly rising across %d quiesced checkpoints",
			float64(first.HeapAlloc)/(1<<20), float64(last.HeapAlloc)/(1<<20), len(samples)))
	}
	nodes := make([]string, 0, len(last.WALRetained))
	for node := range last.WALRetained {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		rising := last.WALRetained[node] >= leakWALFloorRecords
		for i := 1; rising && i < len(samples); i++ {
			prev, sampled := samples[i-1].WALRetained[node]
			rising = sampled && samples[i].WALRetained[node] > prev
		}
		if rising {
			flags = append(flags, fmt.Sprintf(
				"WAL retention leak suspected on %s: %d -> %d records held, strictly rising across %d quiesced checkpoints",
				node, first.WALRetained[node], last.WALRetained[node], len(samples)))
		}
	}
	return flags
}
