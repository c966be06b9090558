package main

import (
	"runtime"
	"strings"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/obs"
	"citusgo/internal/trace"
)

// rawLayers holds what the program's own counters moved by during one
// repetition's measured phase, plus the state read at its end.
type rawLayers struct {
	Obs           obs.Snapshot
	PoolHits      int64
	PoolMisses    int64
	PagesStart    int
	PagesEnd      int
	WALRetained   int
	OpenConnsEnd  int64
	Mallocs       uint64
	AllocBytes    uint64
	GCCycles      uint32
	GCPause       time.Duration
	CPU           time.Duration
	GoroutinesEnd int
	CoordSelfMs   float64
}

func (k counters) since(prev counters) rawLayers {
	return rawLayers{
		Obs:        k.obs.Delta(prev.obs),
		PoolHits:   k.poolHits - prev.poolHits,
		PoolMisses: k.poolMisses - prev.poolMisses,
		PagesStart: prev.pages,
		PagesEnd:   k.pages,
		Mallocs:    k.mem.Mallocs - prev.mem.Mallocs,
		AllocBytes: k.mem.TotalAlloc - prev.mem.TotalAlloc,
		GCCycles:   k.mem.NumGC - prev.mem.NumGC,
		GCPause:    time.Duration(k.mem.PauseTotalNs - prev.mem.PauseTotalNs),
		CPU:        k.cpu - prev.cpu,
	}
}

// endState reads what only makes sense as a level, not a difference.
func (l *rawLayers) endState(c *cluster.Cluster) {
	for _, eng := range c.Engines {
		l.WALRetained += eng.WAL.Len()
	}
	l.OpenConnsEnd = obs.Default().Snapshot().Sum("pool_open_conns")
	l.GoroutinesEnd = runtime.NumGoroutine()
}

// coordSelfMs is the mean, over the statement spans still in the
// coordinator's ring, of the statement's duration minus the union of its
// task spans: what the coordinator spent planning and merging.
func coordSelfMs(spans []trace.Span) float64 {
	tasks := make(map[uint64][]span)
	for _, s := range spans {
		if s.Kind == "task" {
			start := s.Start.UnixNano()
			tasks[s.ParentID] = append(tasks[s.ParentID], span{Start: start, End: start + s.Duration.Nanoseconds()})
		}
	}
	var self []float64
	for _, s := range spans {
		if s.Kind != "statement" {
			continue
		}
		start := s.Start.UnixNano()
		end := start + s.Duration.Nanoseconds()
		self = append(self, float64(s.Duration.Nanoseconds()-coveredBy(start, end, tasks[s.SpanID]))/1e6)
	}
	return mean(self)
}

// ladder holds the mean latency of the same point statement entered at
// four public entry points, outermost first.
type ladder struct {
	L0, L1, L2, L3 float64 // µs
}

// hops telescopes the ladder into the layers between the entry points;
// the four parts sum to L0.
func (l ladder) hops() (clientHop, router, nodeHop, engine float64) {
	return l.L0 - l.L1, l.L1 - l.L2, l.L2 - l.L3, l.L3
}

// samplesOf returns the samples of the named set, or nothing when the
// workload has no such class.
func samplesOf(sets []string, samples [][]float64, name string) []float64 {
	for i, s := range sets {
		if s == name {
			return samples[i]
		}
	}
	return nil
}

// clientMetrics are the client-observed latencies per class: what a user
// of each workload feels, reported without a bound. A class the workload
// does not have reports 0.
func clientMetrics(sets []string, opSets, copyBatch int, samples [][]float64) map[string]float64 {
	set := func(name string) []float64 { return samplesOf(sets, samples, name) }
	m := map[string]float64{
		"client.read_p50_us":       percentile(set("read"), 50),
		"client.read_p99_us":       percentile(set("read"), 99),
		"client.write_p50_us":      percentile(set("write"), 50),
		"client.write_p99_us":      percentile(set("write"), 99),
		"client.txn_local_p50_us":  percentile(set("local"), 50),
		"client.txn_local_p99_us":  percentile(set("local"), 99),
		"client.txn_cross_p50_us":  percentile(set("cross"), 50),
		"client.txn_cross_p99_us":  percentile(set("cross"), 99),
		"client.q_grouped_p50_ms":  percentile(set("q_grouped"), 50) / 1e3,
		"client.q_filtered_p50_ms": percentile(set("q_filtered"), 50) / 1e3,
		"client.q_topn_p50_ms":     percentile(set("q_topn"), 50) / 1e3,
		"client.q_join_p50_ms":     percentile(set("q_join"), 50) / 1e3,
		// rows ingested over the summed COPY-batch time
		"client.copy_rows_per_s": ratio(float64(copyBatch*len(set("copy"))), sum(set("copy"))/1e6),
		"client.dash_p50_ms":     percentile(set("dash"), 50) / 1e3,
		"client.rollup_p50_ms":   percentile(set("rollup"), 50) / 1e3,
	}
	var maxUs, stallUs float64
	for _, s := range samples[:opSets] {
		for _, us := range s {
			if us > maxUs {
				maxUs = us
			}
			if us > stallFloorUs {
				stallUs += us
			}
		}
	}
	m["client.max_ms"], m["client.stall_ms"] = maxUs/1e3, stallUs/1e3
	return m
}

// layerInputs is everything the per-layer ledger is computed from.
type layerInputs struct {
	counts *repResult // untraced repetition: every count
	traced *repResult // traced repetition: every time
	sets   []string
	opSets int
	// copyBatch is the number of rows in one COPY batch.
	copyBatch int
	read      ladder
	write     ladder
	micro     map[string]float64
	laddered  bool
	// untracedOpsPerS is the mean throughput of the untraced repetitions
	// run before and after the traced one.
	untracedOpsPerS float64
}

// spanUsPerOp is the program tracer's total time in spans of one kind,
// per operation, in the traced repetition.
func spanUsPerOp(t *repResult, kind string) float64 {
	return ratio(float64(t.Raw.Obs.Get(`trace_span_duration_ns_sum{kind="`+kind+`"}`))/1e3, t.ops())
}

// layerMetrics computes every per-layer metric. A layer the workload does
// not reach reports 0.
func layerMetrics(in layerInputs) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	u, t := in.counts, in.traced
	ops := u.ops()
	o := u.Raw.Obs
	per := func(key string) float64 { return ratio(float64(o.Sum(key)), ops) }

	set := func(name string) []float64 { return samplesOf(u.Sets, u.Samples, name) }
	for k, v := range clientMetrics(u.Sets, u.OpSets, in.copyBatch, u.Samples) {
		m[k] = v
	}

	m["wire.pipeline_batches_per_op"] = per("wire_pipeline_batches_total")
	m["wire.pipeline_depth_mean"] = ratio(float64(o.Get("wire_pipeline_depth_sum")), float64(o.Get("wire_pipeline_depth_count")))
	m["wire.prepared_parses"] = float64(o.Get("wire_prepared_parses"))
	m["wire.prepared_execs_per_op"] = per("wire_prepared_executes")

	hits, misses := float64(o.Get("citus_plancache_hits")), float64(o.Get("citus_plancache_misses"))
	m["citus.plancache_hit_ratio"] = ratio(hits, hits+misses)
	m["citus.tasks_per_op"] = per("executor_tasks_total")
	m["citus.task_latency_mean_us"] = ratio(float64(o.Get("executor_task_latency_ns_sum"))/1e3, float64(o.Get("executor_task_latency_ns_count")))
	m["citus.conns_opened_per_op"] = per("executor_conns_opened_total")
	m["citus.slow_start_rounds_per_op"] = per("executor_slow_start_rounds_total")
	m["citus.conn_waits"] = float64(o.Get("executor_conn_waits_total"))
	m["citus.task_retries"] = float64(o.Get("executor_task_retries_total"))
	m["citus.merge_rows_per_op"] = per("citus_merge_rows_total")
	m["citus.topn_pushdowns"] = float64(o.Get("citus_topn_pushdowns_total"))
	m["citus.copy_batch_us"] = mean(set("copy"))

	m["dtxn.commit_local_us"] = percentile(set("commit_local"), 50)
	m["dtxn.commit_cross_us"] = percentile(set("commit_cross"), 50)
	m["dtxn.twopc_penalty_us"] = m["dtxn.commit_cross_us"] - m["dtxn.commit_local_us"]
	m["dtxn.twopc_commits"] = float64(o.Get("dtxn_2pc_commits_total"))
	m["dtxn.single_node_commits"] = float64(o.Get("dtxn_single_node_commits_total"))
	m["dtxn.prepares_per_cross_txn"] = ratio(float64(o.Get("dtxn_2pc_prepares_total")), m["dtxn.twopc_commits"])
	m["dtxn.commit_latency_mean_us"] = ratio(float64(o.Get("dtxn_commit_latency_ns_sum"))/1e3, float64(o.Get("dtxn_commit_latency_ns_count")))
	m["dtxn.aborts"] = float64(o.Get("dtxn_2pc_aborts_total"))
	m["dtxn.deadlock_polls"] = float64(o.Get("deadlock_polls_total"))

	m["pool.gets_per_op"] = per("pool_gets_total")
	m["pool.dials"] = float64(o.Sum("pool_dials_total"))
	m["pool.limit_waits"] = float64(o.Sum("pool_limit_waits_total"))
	m["pool.discards"] = float64(o.Sum("pool_discards_total"))
	m["pool.open_conns_end"] = float64(u.Raw.OpenConnsEnd)

	m["engine.stmts_per_op"] = per("engine_statements_total")
	sh, sm := float64(o.Get("engine_plancache_hits")), float64(o.Get("engine_plancache_misses"))
	m["engine.stmtcache_hit_ratio"] = ratio(sh, sh+sm)

	m["heap.pages_end"] = float64(u.Raw.PagesEnd)
	m["heap.pages_growth_pct"] = 100 * ratio(float64(u.Raw.PagesEnd-u.Raw.PagesStart), float64(u.Raw.PagesStart))

	m["wal.records_per_op"] = per("wal_records_total")
	m["wal.commit_records"] = float64(o.Get(`wal_records_total{type="commit_record"}`))
	m["wal.records_retained"] = float64(u.Raw.WALRetained)

	ph, pm := float64(u.Raw.PoolHits), float64(u.Raw.PoolMisses)
	m["bufpool.hit_ratio"] = ratio(ph, ph+pm)
	m["bufpool.misses_per_op"] = ratio(pm, ops)
	m["bufpool.modelled_io_ms_per_op"] = m["bufpool.misses_per_op"] * modelledIOms

	vq := float64(o.Get("columnar_vec_queries_total"))
	m["vec.queries"] = vq
	m["vec.rows_per_query"] = ratio(float64(o.Get("columnar_vec_rows_total")), vq)
	m["vec.batches_per_query"] = ratio(float64(o.Get("columnar_vec_batches_total")), vq)
	m["vec.group_batches_per_query"] = ratio(float64(o.Get("columnar_vec_group_batches_total")), vq)
	m["vec.parallel_scans"] = float64(o.Get("columnar_vec_parallel_scans_total"))
	m["vec.topn_pruned_rows"] = float64(o.Get("vec_topn_pruned_rows_total"))
	m["columnar.stripes_skipped_per_query"] = ratio(float64(o.Get("columnar_vec_stripes_skipped_total")), vq)

	m["runtime.cpu_ms_per_kop"] = ratio(float64(u.Raw.CPU.Nanoseconds())/1e6, ops/1e3)
	m["runtime.allocs_per_op"] = ratio(float64(u.Raw.Mallocs), ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(u.Raw.AllocBytes), ops)
	m["runtime.gc_cycles"] = float64(u.Raw.GCCycles)
	m["runtime.gc_pause_ms"] = float64(u.Raw.GCPause.Nanoseconds()) / 1e6
	m["runtime.goroutines_end"] = float64(u.Raw.GoroutinesEnd)

	// every time comes from the traced repetition
	if t != nil {
		m["citus.coord_self_ms"] = t.Raw.CoordSelfMs
		m["citus.statement_us_per_op"] = spanUsPerOp(t, "statement")
		m["citus.task_us_per_op"] = spanUsPerOp(t, "task")
		m["dtxn.prepare_us_per_op"] = spanUsPerOp(t, "2pc_prepare")
		m["dtxn.resolve_us_per_op"] = spanUsPerOp(t, "2pc_resolve")
		m["engine.parse_us_per_op"] = spanUsPerOp(t, "parse")
		m["engine.plan_us_per_op"] = spanUsPerOp(t, "plan")
		m["engine.execute_us_per_op"] = spanUsPerOp(t, "execute")
		m["lock.wait_us_per_op"] = spanUsPerOp(t, "lock_wait")
		m["wal.fsync_us_per_op"] = spanUsPerOp(t, "wal_fsync")
		m["vec.scan_us_per_op"] = spanUsPerOp(t, "vec_scan")
		var programSpans int64
		for k, v := range t.Raw.Obs {
			if strings.HasPrefix(k, "trace_span_duration_ns_count") {
				programSpans += v
			}
		}
		m["trace.spans_per_op"] = ratio(float64(programSpans), t.ops())
		m["trace.overhead_pct"] = 100 * ratio(in.untracedOpsPerS-ratio(t.ops(), t.ElapsedS), in.untracedOpsPerS)
	}

	if in.laddered {
		// the hops are the mean of the two statement classes; the engine
		// rung is kept per class
		rc, rr, rn, re := in.read.hops()
		wc, wr, wn, we := in.write.hops()
		m["ladder.read_l0_us"], m["ladder.write_l0_us"] = in.read.L0, in.write.L0
		m["wire.client_hop_us"] = (rc + wc) / 2
		m["citus.router_overhead_us"] = (rr + wr) / 2
		m["wire.node_hop_us"] = (rn + wn) / 2
		m["engine.point_read_us"], m["engine.point_write_us"] = re, we
	}
	for k, v := range in.micro {
		m[k] = v
	}
	return m
}
