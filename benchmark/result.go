package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// repetitions per workload, each on a fresh cluster.
const repetitions = 3

// environment is recorded with every result.
type environment struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	SleepFloorUs float64 `json:"sleep_100us_floor_us"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Sizes        sizes   `json:"sizes"`
}

func measureEnvironment(seed int64, measure time.Duration, sz sizes) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: measure.Seconds(), Sizes: sz,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	// What a simulated 100µs delay would really cost on this host: the
	// reason every simulated delay is off.
	var floor []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		time.Sleep(100 * time.Microsecond)
		floor = append(floor, float64(time.Since(start).Nanoseconds())/1e3)
	}
	env.SleepFloorUs = median(floor)
	return env
}

// measured is a metric's value over all repetitions, with the smallest and
// largest value a single repetition gave.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// repMark is what the noise guard saw in one repetition.
type repMark struct {
	CalMs       float64 `json:"calibration_ms"`
	CalDriftPct float64 `json:"cal_drift_pct"`
	Noisy       bool    `json:"noisy"`
	Rerun       bool    `json:"rerun"`
	Samples     int     `json:"latency_samples"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUMsPerKop float64 `json:"cpu_ms_per_kop"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Workload  string              `json:"workload"`
	Env       environment         `json:"environment"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Reps      []repMark           `json:"repetitions"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	// Client holds the client-observed latencies of an untraced run: the
	// client. rows of the per-layer ledger, printed for information.
	Client    map[string]float64 `json:"client,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// pooled joins the latency samples of several repetitions, set by set.
func pooled(reps []*repResult) [][]float64 {
	samples := make([][]float64, len(reps[0].Sets))
	for _, r := range reps {
		for i, s := range r.Samples {
			samples[i] = append(samples[i], s...)
		}
	}
	return samples
}

// endToEndOf is the value of every end-to-end metric over the given
// repetitions: set-up time and heap are medians of the repetitions, the
// throughput is taken over the operations of all of them together.
func endToEndOf(reps ...*repResult) map[string]float64 {
	var setup, heap []float64
	var ok, attempted, elapsed float64
	for _, r := range reps {
		setup, heap = append(setup, r.SetupS), append(heap, r.HeapMB)
		ok, attempted, elapsed = ok+r.ops(), attempted+float64(r.Attempted), elapsed+r.ElapsedS
	}
	return map[string]float64{
		"setup_s":   median(setup),
		"ops_per_s": ratio(ok, elapsed),
		"ok_pct":    100 * ratio(ok, attempted),
		"heap_mb":   median(heap),
	}
}

// aggregate folds a workload's repetitions into one value per metric, with
// the smallest and largest value a single repetition gave beside it. The
// client-observed latencies are percentiles over the operations of all
// repetitions together, which is steadier than a median of three
// percentiles when a class has few samples or two modes.
func aggregate(name string, env environment, reps []*repResult, marks []repMark) *workloadResult {
	res := &workloadResult{Workload: name, Env: env, Correct: true, Reps: marks, EndToEnd: make(map[string]measured)}
	perRep := make(map[string][]float64)
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range endToEndOf(r) {
			perRep[k] = append(perRep[k], v)
		}
	}
	all := endToEndOf(reps...)
	for _, d := range endToEnd {
		lo, hi := minMax(perRep[d.Name])
		res.EndToEnd[d.Name] = measured{Value: all[d.Name], Unit: d.Unit, Min: lo, Max: hi}
	}
	res.Client = clientMetrics(reps[0].Sets, reps[0].OpSets, env.Sizes.IngestBatch, pooled(reps))
	return res
}

// guardedRep runs one repetition and, when the host-noise guard marks it
// noisy and a re-run is still allowed, runs it once more.
func guardedRep(name string, seed int64, sz sizes, measure time.Duration, rerunLeft *int) (*repResult, repMark, error) {
	r, err := runRep(name, seed, sz, measure, false)
	if err != nil {
		return nil, repMark{}, err
	}
	mark := markOf(r)
	if r.Noisy && *rerunLeft > 0 {
		*rerunLeft--
		again, err := runRep(name, seed, sz, measure, false)
		if err != nil {
			return nil, repMark{}, err
		}
		r, mark = again, markOf(again)
		mark.Rerun = true
	}
	return r, mark, nil
}

func markOf(r *repResult) repMark {
	n := 0
	for _, s := range r.Samples {
		n += len(s)
	}
	return repMark{
		CalMs: r.CalMs, CalDriftPct: 100 * r.CalDrift, Noisy: r.Noisy, Samples: n,
		OpsPerS: ratio(r.ops(), r.ElapsedS), CPUMsPerKop: ratio(float64(r.Raw.CPU.Nanoseconds())/1e6, r.ops()/1e3),
	}
}

// runEndToEnd measures one workload with tracing off: three repetitions on
// fresh clusters sharing the measured time, medians reported.
func runEndToEnd(name string, seed int64, sz sizes, measure time.Duration) (*workloadResult, error) {
	env := measureEnvironment(seed, measure, sz)
	var reps []*repResult
	var marks []repMark
	rerunLeft := 1
	for i := 0; i < repetitions; i++ {
		r, mark, err := guardedRep(name, seed, sz, measure/repetitions, &rerunLeft)
		if err != nil {
			return nil, err
		}
		reps, marks = append(reps, r), append(marks, mark)
	}
	return aggregate(name, env, reps, marks), nil
}

// runTraced fills the per-layer ledger: an untraced repetition supplies
// every count, a traced repetition (the benchmark's span recorder and the
// program's tracer both on) supplies every time, and a second untraced
// repetition after it lets the tracing overhead be taken against the mean
// of the two, so that a process that is still warming up, or a host that
// drifts, does not pass for overhead.
func runTraced(name string, seed int64, sz sizes, measure time.Duration, traceDir string) (*workloadResult, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	env := measureEnvironment(seed, measure, sz)
	var reps [3]*repResult
	for i := range reps {
		if reps[i], err = runRep(name, seed, sz, measure/3, i == 1); err != nil {
			return nil, err
		}
	}
	counts, traced, again := reps[0], reps[1], reps[2]
	in := layerInputs{counts: counts, traced: traced, copyBatch: sz.IngestBatch}
	in.untracedOpsPerS = (ratio(counts.ops(), counts.ElapsedS) + ratio(again.ops(), again.ElapsedS)) / 2
	if in.micro, err = parserMicro(w.Statements(rand.New(rand.NewSource(seed)), sz.MicroStatements)); err != nil {
		return nil, err
	}
	if name == "crud_point" {
		if in.read, in.write, err = walkLadder(seed, sz); err != nil {
			return nil, fmt.Errorf("entry-point ladder: %w", err)
		}
		in.laddered = true
	}
	if name == "ingest_live" {
		layers, err := ingestMicro(seed, sz)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			in.micro[k] = v
		}
	}
	res := &workloadResult{
		Workload: name, Env: env, Correct: true,
		Attempted: counts.Attempted + traced.Attempted + again.Attempted,
		Failed:    counts.Failed + traced.Failed + again.Failed,
		Reps:      []repMark{markOf(counts), markOf(traced), markOf(again)},
		PerLayer:  layerMetrics(in),
	}
	if res.TraceFile, err = writeTrace(traceDir, name, traced.Spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// driverLine is the object the driver reads from the last line of stdout.
func (res *workloadResult) driverLine() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for k, m := range res.EndToEnd {
		metrics[k] = value{m.Value, m.Unit}
	}
	for k, v := range res.PerLayer {
		metrics[k] = value{v, unitOf(perLayer, k)}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// print writes every metric by name with its unit.
func (res *workloadResult) print(w io.Writer) {
	e := res.Env
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g commit=%s %s nproc=%d GOMAXPROCS=%d sleep(100us)=%.0fus\n",
		res.Workload, e.Seed, e.Seconds, e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.SleepFloorUs)
	fmt.Fprintf(w, "   attempted=%d failed=%d output checks passed\n", res.Attempted, res.Failed)
	for i, m := range res.Reps {
		note := ""
		if m.Noisy {
			note = "  NOISY"
		}
		if m.Rerun {
			note += "  (re-run after a noisy first attempt)"
		}
		fmt.Fprintf(w, "   repetition %d: calibration %.2fms drift %+.1f%%, %d latency samples, %.1f ops/s, %.2f CPU-ms per 1000 ops%s\n",
			i+1, m.CalMs, m.CalDriftPct, m.Samples, m.OpsPerS, m.CPUMsPerKop, note)
	}
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "   %-36s %16.3f %-6s [%.3f .. %.3f]\n", d.Name, m.Value, m.Unit, m.Min, m.Max)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-36s %16.3f %s\n", d.Name, v, d.Unit)
		} else if v, ok := res.Client[d.Name]; ok && v != 0 {
			fmt.Fprintf(w, "   %-36s %16.3f %-6s (not gated)\n", d.Name, v, d.Unit)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", res.TraceFile)
	}
}
