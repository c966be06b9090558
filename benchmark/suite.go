package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// suiteResult is the file the suite writes and -compare reads.
type suiteResult struct {
	Env       environment       `json:"environment"`
	Workloads []*workloadResult `json:"workloads"`
}

// runSuite runs every workload: three repetitions each on fresh clusters,
// interleaved round-robin across the workloads (A B C D A B C D A B C D) so
// that a slow minute on the host spreads over all of them, then, when
// asked, one traced run per workload.
func runSuite(w io.Writer, seed int64, measure time.Duration, traced bool, out, traceDir string) error {
	sz := fullSizes()
	env := measureEnvironment(seed, measure, sz)
	reps := make(map[string][]*repResult)
	marks := make(map[string][]repMark)
	rerunLeft := len(workloadNames)
	for i := 0; i < repetitions; i++ {
		for _, name := range workloadNames {
			fmt.Fprintf(os.Stderr, "repetition %d/%d of %s\n", i+1, repetitions, name)
			r, mark, err := guardedRep(name, seed, sz, measure/repetitions, &rerunLeft)
			if err != nil {
				return err
			}
			reps[name], marks[name] = append(reps[name], r), append(marks[name], mark)
		}
	}
	suite := suiteResult{Env: env}
	for _, name := range workloadNames {
		res := aggregate(name, env, reps[name], marks[name])
		if traced {
			fmt.Fprintf(os.Stderr, "traced run of %s\n", name)
			tr, err := runTraced(name, seed, sz, measure, traceDir)
			if err != nil {
				return err
			}
			res.PerLayer, res.TraceFile = tr.PerLayer, tr.TraceFile
		}
		res.print(w)
		suite.Workloads = append(suite.Workloads, res)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
