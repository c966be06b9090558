package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyMeasure is long enough for every class of every workload to complete
// at tinySizes.
const tinyMeasure = 300 * time.Millisecond

// TestWorkloadsTiny runs every workload at a tiny scale with all output
// checks on, so `go test ./...` keeps the benchmark compiling and correct.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runRep(name, 1, tinySizes(), tinyMeasure, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for k, v := range endToEndOf(res) {
				if !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, v)
				}
			}
			for i, s := range res.Samples {
				if len(s) == 0 {
					t.Errorf("sample set %d is empty: a class never completed", i)
				}
			}
		})
	}
}

// TestTracedTiny runs the traced mode of every workload: every per-layer
// metric is reported, the span file is written, and on crud_point the
// ladder's parts sum to the whole.
func TestTracedTiny(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runTraced(name, 1, tinySizes(), 2*tinyMeasure, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d defined", len(res.PerLayer), len(perLayer))
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			if res.PerLayer["trace.spans_per_op"] <= 0 {
				t.Errorf("the program's tracer recorded no spans in the traced repetition")
			}
			if name != "crud_point" {
				return
			}
			p := res.PerLayer
			parts := p["wire.client_hop_us"] + p["citus.router_overhead_us"] + p["wire.node_hop_us"] +
				(p["engine.point_read_us"]+p["engine.point_write_us"])/2
			whole := (p["ladder.read_l0_us"] + p["ladder.write_l0_us"]) / 2
			if whole <= 0 || math.Abs(parts-whole) > 0.05*whole {
				t.Errorf("ladder parts sum to %.1fus, L0 is %.1fus", parts, whole)
			}
		})
	}
}

// TestWrongAnswerFailsTheRun corrupts what the generator expects and
// requires the run to end in an error, which main turns into exit code 1.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	corrupt := map[string]func(w workload){
		// a final-state check: the sampled keys no longer match
		"crud_point": func(w workload) {
			cw := w.(*crudWorkload)
			for i := range cw.ver {
				cw.ver[i] += 7
			}
		},
		"txn_mixed": func(w workload) { w.(*txnWorkload).sumDelta[0] += 1 },
		// a check on every reply
		"analytics_fanout": func(w workload) { w.(*analyticsWorkload).wantFiltered *= 1.001 },
		"ingest_live":      func(w workload) { w.(*ingestWorkload).gen.commits++ },
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, err := newRep(name, 1, tinySizes(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			corrupt[name](r.w)
			if _, err := r.measure(tinyMeasure, false); err == nil {
				t.Fatal("a corrupted expectation went unnoticed")
			} else {
				t.Log(err)
			}
		})
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := newEventGen(3).batch(20), newEventGen(3).batch(20)
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1].(interface{ String() string }).String() != b[i][1].(interface{ String() string }).String() {
			t.Fatalf("event %d differs between two generators with one seed", i)
		}
	}
	if fieldValue(1, 2, 3, 4) != fieldValue(1, 2, 3, 4) || fieldValue(1, 2, 3, 4) == fieldValue(2, 2, 3, 4) {
		t.Error("fieldValue must depend on the seed and on nothing else")
	}
	if got := len(fieldValue(1, 2, 3, 4)); got != crudFieldLen {
		t.Errorf("field length %d, want %d", got, crudFieldLen)
	}
}

func TestRefusesSimulatedTime(t *testing.T) {
	cfg := clusterConfig(false)
	if err := refuseSimulatedTime(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.NetworkRTT = 100 * time.Microsecond
	if refuseSimulatedTime(cfg) == nil {
		t.Error("a simulated RTT was accepted")
	}
	cfg.NetworkRTT, cfg.IOLatency = 0, 150*time.Microsecond
	if refuseSimulatedTime(cfg) == nil {
		t.Error("a simulated I/O latency was accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{4273, 3608, 4145}); got != 4145 {
		t.Errorf("median of three = %v: one slow repetition must not move it", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	lo, hi := minMax([]float64{4273, 3608, 4145})
	if lo != 3608 || hi != 4273 {
		t.Errorf("spread = %v..%v", lo, hi)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: "op"},
		{ID: 2, Parent: 1, Start: 10, End: 40, Name: "a"},
		{ID: 3, Parent: 1, Start: 30, End: 60, Name: "b"},  // overlaps a
		{ID: 4, Parent: 1, Start: 35, End: 38, Name: "c"},  // inside a and b
		{ID: 5, Parent: 1, Start: 90, End: 120, Name: "d"}, // runs past the parent
		{ID: 6, Parent: 3, Start: 40, End: 50, Name: "e"},  // grandchild
	}
	self := selfTimes(spans)
	// children cover [10,60] and [90,100]: 60 of the parent's 100
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 40", self[1])
	}
	if self[2] != 30 || self[3] != 20 || self[6] != 10 {
		t.Errorf("self times a=%d b=%d e=%d, want 30 20 10", self[2], self[3], self[6])
	}
	var total float64
	for _, s := range summarizeSpans(spans) {
		total += s.SelfMs
	}
	if total <= 0 {
		t.Error("summary lost the self times")
	}
}

func TestLadderArithmetic(t *testing.T) {
	l := ladder{L0: 210, L1: 150, L2: 90, L3: 40}
	clientHop, router, nodeHop, engine := l.hops()
	if clientHop != 60 || router != 60 || nodeHop != 50 || engine != 40 {
		t.Errorf("hops = %v %v %v %v", clientHop, router, nodeHop, engine)
	}
	if clientHop+router+nodeHop+engine != l.L0 {
		t.Error("the parts do not sum to the whole")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"setup_s", "s", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	tight := func(v float64) measured { return measured{Value: v, Min: v * 0.99, Max: v * 1.01} }
	for _, c := range []struct {
		d    metricDef
		a, b measured
		want string
	}{
		{lower, tight(100), tight(105), "within-bound"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, tight(100), measured{Value: 100, Min: 90, Max: 110}, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		res := &workloadResult{Workload: "crud_point", EndToEnd: map[string]measured{}}
		for _, d := range endToEnd {
			res.EndToEnd[d.Name] = measured{Value: 100, Unit: d.Unit, Min: 99.8, Max: 100.2}
		}
		res.EndToEnd["ops_per_s"] = measured{Value: ops, Unit: "1/s", Min: ops * 0.99, Max: ops * 1.01}
		data, err := json.Marshal(suiteResult{Workloads: []*workloadResult{res}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1000), write("same.json", 1020), write("slow.json", 600)
	var out strings.Builder
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("a 2%% difference was reported as a regression: %v", err)
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("unexpected verdict:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, a, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40%% throughput loss passed (err=%v):\n%s", err, out.String())
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json at the root of the
// repository and the tables in metrics.go from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark directory")
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, m, want)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, m, want)
		}
	}
}
