// Command benchmark is the repository's fixed measuring stick: four
// wire-level workloads on a real-TCP Citus 4+1 cluster, a small set of
// end-to-end metrics every workload reports, and a per-layer ledger that a
// traced run fills in. See README.md in this directory.
//
// The driver runs one workload per invocation:
//
//	benchmark --workload crud_point --seed 1 --seconds 10 --trace 0
//
// and reads the JSON object printed as the last line of standard output.
// Without --workload the whole suite runs, repetitions interleaved across
// workloads, and a table is printed; -compare a.json b.json compares two
// suite result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 15, "measured time per workload, split over the repetitions")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		compare      = flag.Bool("compare", false, "compare two suite result files: -compare a.json b.json")
		out          = flag.String("out", "", "suite mode: also write the results to this JSON file")
		traceDir     = flag.String("trace-dir", "benchmark/out", "directory the traced run writes its span files to")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traceMode, *compare, *out, *traceDir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceMode int, compare bool, out, traceDir string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if seconds <= 0 || traceMode < 0 || traceMode > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	measure := time.Duration(seconds * float64(time.Second))
	if name == "" {
		return runSuite(os.Stdout, seed, measure, traceMode == 1, out, traceDir)
	}
	var res *workloadResult
	var err error
	if traceMode == 1 {
		res, err = runTraced(name, seed, fullSizes(), measure, traceDir)
	} else {
		res, err = runEndToEnd(name, seed, fullSizes(), measure)
	}
	if err != nil {
		return err
	}
	res.print(os.Stderr)
	return json.NewEncoder(os.Stdout).Encode(res.driverLine())
}
