// Package bench regenerates every figure of the paper's evaluation (§4):
// it builds the four cluster configurations the paper compares —
// PostgreSQL, Citus 0+1, Citus 4+1, and Citus 8+1 — runs the matching
// workload, and prints the same series the paper reports.
//
// Absolute numbers are not comparable to the paper's Azure testbed (the
// substrate is this repo's engine with a simulated buffer pool and network,
// see DESIGN.md); the *shapes* are the reproduction target: who wins, by
// roughly what factor, and where the crossovers fall.
package bench

import (
	"fmt"
	"strings"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/obs"
	"citusgo/internal/trace"
)

// ClusterTrace is the trace configuration applied to every benchmark
// cluster (citusbench sets it from -trace-slow; tests override SampleRate
// to measure tracing overhead).
var ClusterTrace trace.Config

// Spec is one cluster configuration of the paper's comparison.
type Spec struct {
	Name        string
	Workers     int
	Distributed bool
}

// Specs returns the paper's four configurations.
func Specs() []Spec {
	return []Spec{
		{Name: "PostgreSQL", Workers: 0, Distributed: false},
		{Name: "Citus 0+1", Workers: 0, Distributed: true},
		{Name: "Citus 4+1", Workers: 4, Distributed: true},
		{Name: "Citus 8+1", Workers: 8, Distributed: true},
	}
}

// Scale tunes dataset sizes and run lengths so the suite fits a laptop;
// the shipped defaults regenerate the figures in a few minutes, while
// tests use Tiny.
type Scale struct {
	// Figure 6 (TPC-C)
	Warehouses    int
	TPCCUsers     int
	TPCCRun       time.Duration
	TPCCItems     int
	TPCCCustomers int

	// Figure 7 (real-time analytics)
	Events int

	// Figure 8 (TPC-H)
	Orders int

	// Figure 9 (pgbench 2PC)
	PgbenchRows  int
	PgbenchConns int
	PgbenchRun   time.Duration

	// Figure 10 (YCSB)
	YCSBRows    int
	YCSBThreads int
	YCSBRun     time.Duration

	// memory / network simulation
	MemoryFraction float64       // per-node buffer pool as a fraction of total pages
	IOLatency      time.Duration // per page miss
	NetworkRTT     time.Duration

	ShardCount int
	// SlowStart is the adaptive executor ramp interval. The paper's 10ms
	// suits second-scale analytical tasks; at this harness's ~1000x
	// smaller data the equivalent ramp is a couple of milliseconds.
	SlowStart time.Duration
}

// Default is the citusbench scale.
func Default() Scale {
	return Scale{
		Warehouses: 8, TPCCUsers: 24, TPCCRun: 8 * time.Second,
		TPCCItems: 500, TPCCCustomers: 40,
		Events:      20000,
		Orders:      12000,
		PgbenchRows: 30000, PgbenchConns: 24, PgbenchRun: 4 * time.Second,
		YCSBRows: 40000, YCSBThreads: 24, YCSBRun: 4 * time.Second,
		MemoryFraction: 0.34, IOLatency: 150 * time.Microsecond,
		NetworkRTT: 100 * time.Microsecond,
		ShardCount: 16,
		SlowStart:  2 * time.Millisecond,
	}
}

// Tiny is the test/CI scale.
func Tiny() Scale {
	return Scale{
		Warehouses: 2, TPCCUsers: 4, TPCCRun: 400 * time.Millisecond,
		TPCCItems: 100, TPCCCustomers: 10,
		Events:      800,
		Orders:      600,
		PgbenchRows: 200, PgbenchConns: 4, PgbenchRun: 300 * time.Millisecond,
		YCSBRows: 1000, YCSBThreads: 4, YCSBRun: 300 * time.Millisecond,
		MemoryFraction: 0.5, IOLatency: 30 * time.Microsecond,
		NetworkRTT: 0,
		ShardCount: 8,
		SlowStart:  2 * time.Millisecond,
	}
}

// Point is one measured value of a series.
type Point struct {
	Config string
	Value  float64
	Extra  map[string]float64
}

// Series is one reproduced figure metric.
type Series struct {
	Figure string
	Metric string
	Points []Point
}

// String renders the series as an aligned table.
func (s Series) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", s.Figure, s.Metric)
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "  %-12s %12.1f", p.Config, p.Value)
		for k, v := range p.Extra {
			fmt.Fprintf(&sb, "   %s=%.2f", k, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// newCluster builds one configuration's cluster with the I/O simulation
// initially off (it is enabled after loading, via boundMemory).
func newCluster(spec Spec, sc Scale, syncMetadata bool) (*cluster.Cluster, error) {
	cfg := cluster.Config{
		Workers:      spec.Workers,
		ShardCount:   sc.ShardCount,
		NetworkRTT:   sc.NetworkRTT,
		SyncMetadata: syncMetadata,
		Trace:        ClusterTrace,
	}
	if sc.SlowStart != 0 {
		cfg.Citus.SlowStartInterval = sc.SlowStart
	}
	return cluster.New(cfg)
}

// boundMemory sizes every node's buffer pool to MemoryFraction of the total
// data pages, reproducing the paper's setup sentence: "a single server
// cannot keep all the data in memory, but Citus 4+1 can".
func boundMemory(c *cluster.Cluster, sc Scale) {
	total := 0
	for _, eng := range c.Engines {
		total += eng.TotalPages()
	}
	capacity := int(float64(total) * sc.MemoryFraction)
	if capacity < 16 {
		capacity = 16
	}
	for _, eng := range c.Engines {
		eng.Pool.SetIOLatency(sc.IOLatency, 4)
		eng.Pool.SetCapacity(capacity)
	}
}

// ---------------------------------------------------------------------------
// obs integration: figures report distributed-layer counters next to
// throughput, so a perf regression shows up with its mechanism attached
// (e.g. TPS down while pool_limit_waits_total is up).

// ObsSnapshot captures the process-global obs registry; diff two of them
// with Delta to isolate what one benchmark run did.
func ObsSnapshot() obs.Snapshot { return obs.Default().Snapshot() }

// distFamilies are the metric-name prefixes that belong to the distributed
// layer's instrumentation (see docs/observability.md).
var distFamilies = []string{
	"executor_", "dtxn_", "deadlock_", "pool_", "engine_", "wal_",
	"citus_plancache_", "wire_pipeline_", "trace_",
	"columnar_",
}

// FormatDistCounters renders the distributed-layer entries of a snapshot
// delta as an indented, sorted block (citusbench prints this after each
// figure run).
func FormatDistCounters(delta obs.Snapshot) string {
	var sb strings.Builder
	for _, k := range delta.Keys() {
		dist := false
		for _, p := range distFamilies {
			if strings.HasPrefix(k, p) {
				dist = true
				break
			}
		}
		if dist {
			fmt.Fprintf(&sb, "    %-56s %12d\n", k, delta[k])
		}
	}
	if sb.Len() == 0 {
		return "  obs: no distributed-layer activity recorded"
	}
	return "  obs counter deltas:\n" + strings.TrimRight(sb.String(), "\n")
}

// speedup computes point value relative to the first point.
func speedup(s Series) map[string]float64 {
	out := make(map[string]float64)
	if len(s.Points) == 0 || s.Points[0].Value == 0 {
		return out
	}
	base := s.Points[0].Value
	for _, p := range s.Points {
		out[p.Config] = p.Value / base
	}
	return out
}
