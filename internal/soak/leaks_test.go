package soak

import (
	"strings"
	"testing"
	"time"

	"citusgo/internal/wal"
)

func leakSeq(label string, gor []int, heapMiB []int) []LeakSample {
	out := make([]LeakSample, len(gor))
	for i := range gor {
		out[i] = LeakSample{Label: label, Goroutines: gor[i], HeapAlloc: uint64(heapMiB[i]) << 20}
	}
	return out
}

func TestAnalyzeLeaks(t *testing.T) {
	// strictly rising past both floors: both resources flagged
	flags := analyzeLeaks(leakSeq("cp", []int{50, 80, 120, 200}, []int{100, 180, 260, 400}), leakHeapFloor(0))
	if len(flags) != 2 {
		t.Fatalf("want 2 flags, got %v", flags)
	}
	if !strings.Contains(flags[0], "goroutine leak") || !strings.Contains(flags[1], "heap leak") {
		t.Fatalf("unexpected flags: %v", flags)
	}

	// jitter (one dip) must clear the verdict even with large net growth
	if f := analyzeLeaks(leakSeq("cp", []int{50, 49, 120, 200}, []int{100, 99, 260, 400}), leakHeapFloor(0)); len(f) != 0 {
		t.Fatalf("non-monotonic growth flagged: %v", f)
	}

	// monotonic but under the floors: normal drift, not a leak
	if f := analyzeLeaks(leakSeq("cp", []int{50, 52, 55, 60}, []int{100, 101, 102, 103}), leakHeapFloor(0)); len(f) != 0 {
		t.Fatalf("sub-floor growth flagged: %v", f)
	}

	// too few samples to call anything
	if f := analyzeLeaks(leakSeq("cp", []int{50, 500}, []int{100, 900}), leakHeapFloor(0)); len(f) != 0 {
		t.Fatalf("two samples flagged: %v", f)
	}

	// one resource leaking, the other stable
	flags = analyzeLeaks(leakSeq("cp", []int{50, 90, 130}, []int{100, 100, 100}), leakHeapFloor(0))
	if len(flags) != 1 || !strings.Contains(flags[0], "goroutine leak") {
		t.Fatalf("want goroutine flag only, got %v", flags)
	}
}

// TestAnalyzeLeaksLongSoakAndWAL: the nightly profile's lower heap floor, and
// the per-node WAL retention verdict.
func TestAnalyzeLeaksLongSoakAndWAL(t *testing.T) {
	// 30 MiB of strictly rising heap: a leak to a long run, drift to a short one
	drift := leakSeq("cp", []int{50, 50, 50, 50}, []int{100, 110, 120, 130})
	if f := analyzeLeaks(drift, leakHeapFloor(time.Minute)); len(f) != 0 {
		t.Fatalf("short run flagged: %v", f)
	}
	if f := analyzeLeaks(drift, leakHeapFloor(longSoak)); len(f) != 1 || !strings.Contains(f[0], "heap leak") {
		t.Fatalf("long run: %v", f)
	}

	withWAL := func(perNode map[string][]int) []LeakSample {
		out := leakSeq("cp", []int{50, 50, 50, 50}, []int{100, 100, 100, 100})
		for i := range out {
			out[i].WALRetained = map[string]int{}
			for node, held := range perNode {
				out[i].WALRetained[node] = held[i]
			}
		}
		return out
	}
	every := wal.CheckpointEvery
	flags := analyzeLeaks(withWAL(map[string][]int{
		"worker1": {every, 2 * every, 3 * every, 4 * every}, // held by something that never lets go
		"worker2": {100, 900, 2000, every - 1},              // filling up to its next log cut
		"worker3": {every, 2 * every, 10, 3 * every},        // cut in between
	}), leakHeapFloor(0))
	if len(flags) != 1 || !strings.Contains(flags[0], "WAL retention leak suspected on worker1") {
		t.Fatalf("WAL flags: %v", flags)
	}
}

func TestLeakFlagsFailTheReport(t *testing.T) {
	rep := &Report{}
	if !rep.Passed() {
		t.Fatal("empty report must pass")
	}
	rep.LeakSamples = leakSeq("cp", []int{50, 200, 500}, []int{100, 100, 100})
	rep.LeakFlags = analyzeLeaks(rep.LeakSamples, leakHeapFloor(0))
	if len(rep.LeakFlags) == 0 {
		t.Fatal("expected a leak flag")
	}
	if rep.Passed() {
		t.Fatal("leak flags must fail the run")
	}
	if s := rep.String(); !strings.Contains(s, "[leak]") {
		t.Fatalf("report text missing leak flag:\n%s", s)
	}
}
