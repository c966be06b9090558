package main

// metricDef describes one reported metric. BENCHMARK.json at the root of
// the repository lists the same metrics; bench_test.go checks that the two
// agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median
}

// workloadNames in the order the suite interleaves them.
var workloadNames = []string{"crud_point", "txn_mixed", "analytics_fanout", "ingest_live"}

// endToEnd are the metrics a user of the system sees and that this host can
// hold steady enough to gate on. Every workload reports every one of them.
// Client-observed latencies per class are in the per-layer ledger under
// client.: on the shared host this was built on, minutes-long slow phases
// move every timing by a quarter, so each extra timing gate is another
// false rejection; throughput carries them (with one or two closed-loop
// clients it is the reciprocal of the mean latency).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"ok_pct", "%", "higher", 0.01},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer is the per-layer ledger, layer = package name. Counts come from
// the untraced repetition, times from the traced one. A layer a workload
// does not reach reports 0.
var perLayer = []metricDef{
	{"client.read_p50_us", "us", "lower", 0},
	{"client.read_p99_us", "us", "lower", 0},
	{"client.write_p50_us", "us", "lower", 0},
	{"client.write_p99_us", "us", "lower", 0},
	{"client.txn_local_p50_us", "us", "lower", 0},
	{"client.txn_local_p99_us", "us", "lower", 0},
	{"client.txn_cross_p50_us", "us", "lower", 0},
	{"client.txn_cross_p99_us", "us", "lower", 0},
	{"client.q_grouped_p50_ms", "ms", "lower", 0},
	{"client.q_filtered_p50_ms", "ms", "lower", 0},
	{"client.q_topn_p50_ms", "ms", "lower", 0},
	{"client.q_join_p50_ms", "ms", "lower", 0},
	{"client.copy_rows_per_s", "rows/s", "higher", 0},
	{"client.dash_p50_ms", "ms", "lower", 0},
	{"client.rollup_p50_ms", "ms", "lower", 0},
	{"client.max_ms", "ms", "lower", 0},
	{"client.stall_ms", "ms", "lower", 0},

	{"ladder.read_l0_us", "us", "lower", 0},
	{"ladder.write_l0_us", "us", "lower", 0},
	{"wire.client_hop_us", "us", "lower", 0},
	{"wire.node_hop_us", "us", "lower", 0},
	{"wire.pipeline_batches_per_op", "count", "lower", 0},
	{"wire.pipeline_depth_mean", "count", "higher", 0},
	{"wire.prepared_parses", "count", "lower", 0},
	{"wire.prepared_execs_per_op", "count", "lower", 0},

	{"sql.parse_us", "us", "lower", 0},
	{"sql.deparse_us", "us", "lower", 0},

	{"citus.router_overhead_us", "us", "lower", 0},
	{"citus.plancache_hit_ratio", "ratio", "higher", 0},
	{"citus.tasks_per_op", "count", "lower", 0},
	{"citus.task_latency_mean_us", "us", "lower", 0},
	{"citus.conns_opened_per_op", "count", "lower", 0},
	{"citus.slow_start_rounds_per_op", "count", "lower", 0},
	{"citus.conn_waits", "count", "lower", 0},
	{"citus.task_retries", "count", "lower", 0},
	{"citus.merge_rows_per_op", "count", "lower", 0},
	{"citus.topn_pushdowns", "count", "higher", 0},
	{"citus.coord_self_ms", "ms", "lower", 0},
	{"citus.copy_batch_us", "us", "lower", 0},
	{"citus.statement_us_per_op", "us", "lower", 0},
	{"citus.task_us_per_op", "us", "lower", 0},

	{"dtxn.commit_local_us", "us", "lower", 0},
	{"dtxn.commit_cross_us", "us", "lower", 0},
	{"dtxn.twopc_penalty_us", "us", "lower", 0},
	{"dtxn.twopc_commits", "count", "lower", 0},
	{"dtxn.single_node_commits", "count", "higher", 0},
	{"dtxn.prepares_per_cross_txn", "count", "lower", 0},
	{"dtxn.commit_latency_mean_us", "us", "lower", 0},
	{"dtxn.aborts", "count", "lower", 0},
	{"dtxn.prepare_us_per_op", "us", "lower", 0},
	{"dtxn.resolve_us_per_op", "us", "lower", 0},
	{"dtxn.deadlock_polls", "count", "lower", 0},

	{"pool.gets_per_op", "count", "lower", 0},
	{"pool.dials", "count", "lower", 0},
	{"pool.limit_waits", "count", "lower", 0},
	{"pool.discards", "count", "lower", 0},
	{"pool.open_conns_end", "count", "lower", 0},

	{"engine.point_read_us", "us", "lower", 0},
	{"engine.point_write_us", "us", "lower", 0},
	{"engine.stmts_per_op", "count", "lower", 0},
	{"engine.stmtcache_hit_ratio", "ratio", "higher", 0},
	{"engine.parse_us_per_op", "us", "lower", 0},
	{"engine.plan_us_per_op", "us", "lower", 0},
	{"engine.execute_us_per_op", "us", "lower", 0},

	{"lock.wait_us_per_op", "us", "lower", 0},
	{"heap.pages_end", "count", "lower", 0},
	{"heap.pages_growth_pct", "%", "lower", 0},

	{"wal.records_per_op", "count", "lower", 0},
	{"wal.commit_records", "count", "lower", 0},
	{"wal.records_retained", "count", "lower", 0},
	{"wal.fsync_us_per_op", "us", "lower", 0},

	{"bufpool.hit_ratio", "ratio", "higher", 0},
	{"bufpool.misses_per_op", "count", "lower", 0},
	{"bufpool.modelled_io_ms_per_op", "ms", "lower", 0},

	{"vec.queries", "count", "higher", 0},
	{"vec.rows_per_query", "count", "lower", 0},
	{"vec.batches_per_query", "count", "lower", 0},
	{"vec.group_batches_per_query", "count", "lower", 0},
	{"vec.parallel_scans", "count", "higher", 0},
	{"vec.topn_pruned_rows", "count", "higher", 0},
	{"columnar.stripes_skipped_per_query", "count", "higher", 0},
	{"vec.scan_us_per_op", "us", "lower", 0},

	{"jsonb.path_query_us", "us", "lower", 0},
	{"gin.insert_us_per_row", "us", "lower", 0},
	{"gin.search_us", "us", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans_per_op", "count", "lower", 0},

	{"runtime.cpu_ms_per_kop", "ms", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
