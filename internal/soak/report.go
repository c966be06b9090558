package soak

// Report assembly and the violation artifact dump. The report is the
// soak's contract with CI: Passed() is the gate, String() is the
// per-class SLO table printed at the end of every run, and dumpArtifact
// writes everything needed to reproduce a violation (seed, config, repro
// command, obs metrics, per-engine trace rings) to the artifact dir.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"citusgo/internal/obs"
)

// Violation is one invariant breach observed during the run.
type Violation struct {
	Invariant string // e.g. "acked-write", "placement", "write-skew"
	Detail    string
}

// ClassReport is the per-workload-class slice of the report.
type ClassReport struct {
	Class   string
	Rate    float64 // configured arrival rate (arrivals/sec)
	OK      int64
	Errors  int64
	Retries int64 // serialization/deadlock aborts, retried by design
	Drops   int64 // open-loop arrivals shed because the class was saturated

	P50, P99, P999 time.Duration
	SLO            SLO
	SLOOK          bool
}

// throughput returns completed ops/sec over the run duration.
func (c ClassReport) throughput(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(c.OK) / d.Seconds()
}

// Report is the outcome of one soak run.
type Report struct {
	Seed      int64
	Duration  time.Duration
	Mode      string
	Failovers int

	Classes    []ClassReport
	Violations []Violation

	// LeakSamples are the per-checkpoint goroutine/heap/WAL measurements;
	// LeakFlags are the monotonic-growth verdicts derived from them. A
	// non-empty LeakFlags fails the run like any invariant violation.
	LeakSamples []LeakSample
	LeakFlags   []string

	// FailOnSLO mirrors Config.FailOnSLO: when false, SLO misses are
	// reported but do not fail the run.
	FailOnSLO bool

	// ArtifactPath is where the violation dump was written ("" if none).
	ArtifactPath string
}

// Passed reports whether the run met its gate: zero invariant violations,
// and (only when FailOnSLO) every class inside its SLOs.
func (r *Report) Passed() bool {
	if len(r.Violations) > 0 || len(r.LeakFlags) > 0 {
		return false
	}
	if r.FailOnSLO {
		for _, c := range r.Classes {
			if !c.SLOOK {
				return false
			}
		}
	}
	return true
}

// String renders the human-readable soak report: the per-class SLO table
// followed by any violations.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak report: seed=%d duration=%s mode=%s failovers=%d\n",
		r.Seed, r.Duration.Round(time.Millisecond), r.Mode, r.Failovers)
	fmt.Fprintf(&b, "%-8s %9s %9s %7s %7s %7s %10s %10s %10s  %s\n",
		"class", "rate/s", "ops/s", "ok", "err", "retry", "p50", "p99", "p999", "slo")
	for _, c := range r.Classes {
		verdict := "ok"
		if !c.SLOOK {
			verdict = "MISS"
		}
		fmt.Fprintf(&b, "%-8s %9.1f %9.1f %7d %7d %7d %10s %10s %10s  %s\n",
			c.Class, c.Rate, c.throughput(r.Duration), c.OK, c.Errors, c.Retries,
			fmtLat(c.P50), fmtLat(c.P99), fmtLat(c.P999), verdict)
		if c.Drops > 0 {
			fmt.Fprintf(&b, "%-8s   (open-loop: %d arrivals dropped — class saturated)\n", "", c.Drops)
		}
	}
	if n := len(r.LeakSamples); n > 0 {
		first, last := r.LeakSamples[0], r.LeakSamples[n-1]
		verdict := "stable"
		if len(r.LeakFlags) > 0 {
			verdict = "LEAK SUSPECTED"
		}
		fmt.Fprintf(&b, "resources: goroutines %d -> %d, heap %.1f -> %.1f MiB over %d checkpoints  %s\n",
			first.Goroutines, last.Goroutines,
			float64(first.HeapAlloc)/(1<<20), float64(last.HeapAlloc)/(1<<20), n, verdict)
		for _, f := range r.LeakFlags {
			fmt.Fprintf(&b, "  [leak] %s\n", f)
		}
	}
	if len(r.Violations) == 0 {
		b.WriteString("invariants: all clean\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATION(S)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  [%s] %s\n", v.Invariant, v.Detail)
		}
		if r.ArtifactPath != "" {
			fmt.Fprintf(&b, "artifact: %s\n", r.ArtifactPath)
		}
		fmt.Fprintf(&b, "reproduce: citusbench -soak -soak-seed %d\n", r.Seed)
	}
	return b.String()
}

func fmtLat(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// buildReport snapshots the per-class counters and latency quantiles into
// the final report.
func (r *runner) buildReport(elapsed time.Duration) *Report {
	r.mu.Lock()
	violations := append([]Violation(nil), r.violations...)
	failovers := r.failovers
	leakSamples := append([]LeakSample(nil), r.leakSamples...)
	r.mu.Unlock()

	rep := &Report{
		Seed:        r.seed,
		Duration:    elapsed,
		Mode:        modeName(r.cfg.ReplicationMode),
		Failovers:   failovers,
		Violations:  violations,
		FailOnSLO:   r.cfg.FailOnSLO,
		LeakSamples: leakSamples,
		LeakFlags:   analyzeLeaks(leakSamples, leakHeapFloor(r.cfg.Duration)),
	}
	for _, d := range r.classes {
		c := ClassReport{
			Class:   d.name,
			Rate:    d.rate,
			OK:      d.ok.Value() - d.ok0,
			Errors:  d.errs.Value() - d.errs0,
			Retries: d.retries.Value() - d.retries0,
			Drops:   d.drops.Value() - d.drops0,
			P50:     time.Duration(d.lat.Quantile(0.50)),
			P99:     time.Duration(d.lat.Quantile(0.99)),
			P999:    time.Duration(d.lat.Quantile(0.999)),
			SLO:     classSLOs[d.name],
		}
		c.SLOOK = sloOK(c)
		rep.Classes = append(rep.Classes, c)
	}
	return rep
}

// sloOK checks the measured quantiles against the class SLO. Zero SLO
// fields are unchecked; a class with no completed operations has no
// latency data and trivially passes (op-count expectations are the
// caller's assertion, not a latency SLO).
func sloOK(c ClassReport) bool {
	if c.OK+c.Errors+c.Retries == 0 {
		return true
	}
	if c.SLO.P50 > 0 && c.P50 > c.SLO.P50 {
		return false
	}
	if c.SLO.P99 > 0 && c.P99 > c.SLO.P99 {
		return false
	}
	if c.SLO.P999 > 0 && c.P999 > c.SLO.P999 {
		return false
	}
	return true
}

// dumpArtifact writes the violation dump: seed + repro command, config,
// violations, full obs metrics, and every engine's trace ring (primaries
// and standbys). Returns the file path, or "" when no artifact dir is
// configured.
func (r *runner) dumpArtifact(rep *Report) string {
	dir := r.cfg.ArtifactDir
	if dir == "" {
		dir = os.Getenv("CHAOS_ARTIFACT_DIR")
	}
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.cfg.Logf("soak: artifact dir: %v", err)
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("soak-seed-%d.txt", r.seed))

	var b strings.Builder
	fmt.Fprintf(&b, "soak violation artifact\nseed: %d\n", r.seed)
	fmt.Fprintf(&b, "reproduce: citusbench -soak -soak-seed %d -soak-mode %s -soak-workers %d -soak-rf %d -soak-failovers %d\n",
		r.seed, modeName(r.cfg.ReplicationMode), r.cfg.Workers, r.cfg.ReplicationFactor, r.cfg.Failovers)
	fmt.Fprintf(&b, "config: %+v\n\nviolations:\n", r.cfg)
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  [%s] %s\n", v.Invariant, v.Detail)
	}
	b.WriteString("\n--- report ---\n")
	b.WriteString(rep.String())
	b.WriteString("\n--- obs metrics ---\n")
	_ = obs.Default().WriteText(&b)
	for _, eng := range r.c.Engines {
		fmt.Fprintf(&b, "\n--- trace ring: %s ---\n", eng.Name)
		for _, sp := range eng.Tracer.Dump() {
			fmt.Fprintf(&b, "%+v\n", sp)
		}
	}
	for _, node := range r.c.Meta.Nodes() {
		if eng := r.c.StandbyEngine(node.ID); eng != nil {
			fmt.Fprintf(&b, "\n--- trace ring: %s (standby) ---\n", eng.Name)
			for _, sp := range eng.Tracer.Dump() {
				fmt.Fprintf(&b, "%+v\n", sp)
			}
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		r.cfg.Logf("soak: writing artifact: %v", err)
		return ""
	}
	r.cfg.Logf("soak: artifact written to %s", path)
	return path
}
