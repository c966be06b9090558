package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/jsonb"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/types"
	"citusgo/internal/workload/gharchive"
	"citusgo/internal/workload/tpcc"
)

// The ablations quantify the design choices §3 argues for:
//
//   - AblationPlannerOverhead: the cost ladder of the four-planner
//     hierarchy (§3.5 — "there is an order of magnitude difference between
//     each planner's overhead"), measured as single-query latency for a
//     query each tier handles.
//   - AblationColumnar: columnar vs heap ("row") storage for a wide-table
//     analytical scan under bounded memory (§2.4 / Table 2 "Columnar
//     storage" for data warehousing).
//   - AblationSlowStart: the adaptive executor with and without the
//     slow-start ramp for a short router query and a fan-out query
//     (§3.6.1 — the latency/parallelism trade).
//   - AblationPipelining: wire-protocol request pipelining on vs off for a
//     connection-limited fan-out at several network RTTs (§3.6.1 meets
//     libpq pipeline mode — when the shared connection limit forces
//     several tasks per connection, a pipelined window pays ~1 RTT where
//     the serial protocol pays one per task).
//   - AblationVectorized: batched columnar execution (scan → filter →
//     partial aggregate over column chunks, internal/vec) vs the
//     row-at-a-time interpreter for TPC-H-subset aggregates, at parallel
//     chunk-scan degree 1 and the default degree — each point's Extra
//     carries the columnar_vec_* counter deltas proving which path ran
//     and how many stripes the min/max chunk statistics pruned.
//   - AblationReplicaRouting: replica-aware read routing with one sync
//     standby per worker vs the single-placement baseline — concurrent
//     router reads fan out across twice the placements, so read throughput
//     rises while the executor_routed_reads_total counters prove where the
//     reads actually landed.
//   - AblationSSI: distributed serializable snapshot isolation on vs off —
//     the overhead side on the cached-router TPC-C mix at SERIALIZABLE,
//     the correctness side on a cross-shard write-skew micro-benchmark
//     that plain SI commits and SSI's coordinator-merged conflict graph
//     must abort; Extra carries the ssi_* counter deltas.

// AblationPlannerOverhead measures per-tier planning+execution latency.
func AblationPlannerOverhead(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A1", Metric: "planner tier latency µs/query"}
	c, err := cluster.New(cluster.Config{Workers: 4, ShardCount: sc.ShardCount, Trace: ClusterTrace})
	if err != nil {
		return out, err
	}
	defer c.Close()
	s := c.Session()
	setup := []string{
		"CREATE TABLE pt (k bigint PRIMARY KEY, g bigint, v bigint)",
		"SELECT create_distributed_table('pt', 'k')",
		"CREATE TABLE pt2 (k2 bigint PRIMARY KEY, v bigint)",
		"SELECT create_distributed_table('pt2', 'k2', colocate_with := 'none')",
	}
	for _, q := range setup {
		if _, err := s.Exec(q); err != nil {
			return out, err
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO pt (k, g, v) VALUES (%d, %d, %d)", i, i%10, i)); err != nil {
			return out, err
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO pt2 (k2, v) VALUES (%d, %d)", i, i)); err != nil {
			return out, err
		}
	}

	tiers := []struct {
		name string
		q    string
		runs int
	}{
		{"local (no Citus)", "SELECT 1", 500},
		{"fast path/router", "SELECT v FROM pt WHERE k = 42", 500},
		{"pushdown", "SELECT g, count(*) FROM pt GROUP BY g", 100},
		{"join order", "SELECT count(*) FROM pt JOIN pt2 ON pt.v = pt2.k2", 20},
	}
	for _, tier := range tiers {
		if _, err := s.Exec(tier.q); err != nil { // warm-up
			return out, fmt.Errorf("%s: %w", tier.name, err)
		}
		start := time.Now()
		for i := 0; i < tier.runs; i++ {
			if _, err := s.Exec(tier.q); err != nil {
				return out, err
			}
		}
		perQuery := time.Since(start) / time.Duration(tier.runs)
		out.Points = append(out.Points, Point{Config: tier.name, Value: float64(perQuery.Microseconds())})
	}
	return out, nil
}

// AblationColumnar compares a wide analytical scan over heap vs columnar
// storage with bounded memory: columnar reads only the referenced column
// chunks and its compression shrinks the page footprint.
func AblationColumnar(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A2", Metric: "wide-scan milliseconds (lower is better)"}
	for _, variant := range []struct {
		name  string
		using string
	}{
		{"heap (row store)", ""},
		{"columnar", " USING columnar"},
	} {
		c, err := cluster.New(cluster.Config{Workers: 0, ShardCount: sc.ShardCount, Trace: ClusterTrace})
		if err != nil {
			return out, err
		}
		s := c.Session()
		ddl := "CREATE TABLE wide (k bigint, c1 bigint, c2 bigint, c3 bigint, c4 bigint, c5 bigint, c6 bigint, c7 bigint, c8 bigint, c9 bigint)" + variant.using
		if _, err := s.Exec(ddl); err != nil {
			c.Close()
			return out, err
		}
		rows := make([]types.Row, 0, 1000)
		total := sc.Orders * 4
		for i := 0; i < total; i++ {
			row := types.Row{int64(i)}
			for j := 0; j < 9; j++ {
				row = append(row, int64(i*j))
			}
			rows = append(rows, row)
			if len(rows) == 1000 || i == total-1 {
				if _, err := s.CopyFrom("wide", nil, rows); err != nil {
					c.Close()
					return out, err
				}
				rows = rows[:0]
			}
		}
		boundMemory(c, sc)
		start := time.Now()
		const runs = 3
		for i := 0; i < runs; i++ {
			if _, err := s.Exec("SELECT sum(c1) FROM wide"); err != nil {
				c.Close()
				return out, err
			}
		}
		out.Points = append(out.Points, Point{
			Config: variant.name,
			Value:  float64((time.Since(start) / runs).Microseconds()) / 1000,
		})
		c.Close()
	}
	return out, nil
}

// AblationSlowStart compares the adaptive executor's default slow-start
// ramp against an immediate full fan-out, for a cheap router query (where
// extra connections are waste) and an expensive fan-out query (where they
// are the whole point). The slow-start variants also toggle the end-to-end
// plan cache (coordinator plan cache + every node's session statement
// cache), so the router series quantifies the win of planning and parsing
// once instead of per execution; the figure footer carries the plancache
// counter deltas.
func AblationSlowStart(sc Scale) ([]Series, error) {
	router := Series{Figure: "Ablation A3", Metric: "router query µs (per-query, concurrent)"}
	fanout := Series{Figure: "Ablation A3", Metric: "fan-out query ms"}
	for _, variant := range []struct {
		name     string
		interval time.Duration
		noCache  bool
	}{
		{"slow start 10ms, plancache on", 10 * time.Millisecond, false},
		{"slow start 10ms, plancache off", 10 * time.Millisecond, true},
		{"no ramp (instant fan-out)", -1, false},
	} {
		c, err := cluster.New(cluster.Config{
			Workers:    2,
			ShardCount: sc.ShardCount,
			Features:   engine.Features{NoPlanCache: variant.noCache},
			Trace:      ClusterTrace,
		})
		if err != nil {
			return nil, err
		}
		for _, n := range c.Nodes {
			n.Cfg.SlowStartInterval = variant.interval
		}
		s := c.Session()
		if _, err := s.Exec("CREATE TABLE sst (k bigint PRIMARY KEY, v bigint)"); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := s.Exec("SELECT create_distributed_table('sst', 'k')"); err != nil {
			c.Close()
			return nil, err
		}
		rows := make([]types.Row, sc.Orders)
		for i := range rows {
			rows[i] = types.Row{int64(i), int64(i)}
		}
		if _, err := s.CopyFrom("sst", nil, rows); err != nil {
			c.Close()
			return nil, err
		}
		// router latency: warm up pools and caches in every variant, then
		// measure steady state
		const routerRuns = 300
		for i := 0; i < 20; i++ {
			if _, err := s.Exec("SELECT v FROM sst WHERE k = $1", int64(i%sc.Orders)); err != nil {
				c.Close()
				return nil, err
			}
		}
		// best of three repeats: the per-query cost is small enough that a
		// single scheduler hiccup skews one repeat, and min-of-repeats is
		// the standard way to report it
		pre := ObsSnapshot()
		best := time.Duration(-1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i := 0; i < routerRuns; i++ {
				if _, err := s.Exec("SELECT v FROM sst WHERE k = $1", int64(i%sc.Orders)); err != nil {
					c.Close()
					return nil, err
				}
			}
			if elapsed := time.Since(start); best < 0 || elapsed < best {
				best = elapsed
			}
		}
		d := ObsSnapshot().Delta(pre)
		router.Points = append(router.Points, Point{
			Config: variant.name,
			Value:  float64(best.Microseconds()) / routerRuns,
			Extra: map[string]float64{
				"plancache_hits":        float64(d.Sum("citus_plancache_hits")),
				"engine_plancache_hits": float64(d.Sum("engine_plancache_hits")),
			},
		})
		// fan-out latency
		start := time.Now()
		const fanRuns = 10
		for i := 0; i < fanRuns; i++ {
			if _, err := s.Exec("SELECT count(*), sum(v) FROM sst"); err != nil {
				c.Close()
				return nil, err
			}
		}
		fanout.Points = append(fanout.Points, Point{
			Config: variant.name,
			Value:  float64((time.Since(start) / fanRuns).Microseconds()) / 1000,
		})
		c.Close()
	}
	return []Series{router, fanout}, nil
}

// AblationPipelining isolates the wire-protocol pipelining win: a
// multi-shard fan-out under a shared connection limit that forces several
// tasks onto each worker connection (16 shards over 2 workers with
// MaxSharedPoolSize 2 → ≥4 tasks per connection). Serially (PipelineWindow
// 1) each task pays its own round trip; pipelined (the default window), a
// connection's whole task queue rides one window for ~1 RTT. Reported as
// the median fan-out latency at several
// simulated RTTs; each point's Extra carries the
// wire_pipeline_batches_total delta, proving the "pipelined" variant
// batched and the "serial" one never did.
func AblationPipelining(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A4", Metric: "connection-limited fan-out ms (median)"}
	rtts := []time.Duration{0, 100 * time.Microsecond, 200 * time.Microsecond, time.Millisecond}
	for _, rtt := range rtts {
		for _, variant := range []struct {
			name   string
			window int
		}{
			{"pipelined", 0},
			{"serial", 1},
		} {
			med, batches, err := pipelineFanout(sc, rtt, variant.window)
			if err != nil {
				return out, fmt.Errorf("rtt %v %s: %w", rtt, variant.name, err)
			}
			out.Points = append(out.Points, Point{
				Config: fmt.Sprintf("rtt %3dµs, %s", rtt.Microseconds(), variant.name),
				Value:  float64(med.Microseconds()) / 1000,
				Extra:  map[string]float64{"pipeline_batches": float64(batches)},
			})
		}
	}
	return out, nil
}

// pipelineFanout boots one connection-limited cluster variant and returns
// the median latency of a full fan-out aggregate over repeated runs, plus
// the number of pipelined batches flushed during the measured runs.
func pipelineFanout(sc Scale, rtt time.Duration, window int) (time.Duration, int64, error) {
	c, err := cluster.New(cluster.Config{
		Workers:    2,
		ShardCount: 16,
		NetworkRTT: rtt,
		Citus:      citus.Config{MaxSharedPoolSize: 2, PipelineWindow: window},
		Trace:      ClusterTrace,
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE plt (k bigint PRIMARY KEY, v bigint)"); err != nil {
		return 0, 0, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('plt', 'k')"); err != nil {
		return 0, 0, err
	}
	rows := make([]types.Row, sc.Orders)
	for i := range rows {
		rows[i] = types.Row{int64(i), int64(i)}
	}
	if _, err := s.CopyFrom("plt", nil, rows); err != nil {
		return 0, 0, err
	}
	const q = "SELECT count(*), sum(v) FROM plt"
	for i := 0; i < 3; i++ { // warm pools and caches
		if _, err := s.Exec(q); err != nil {
			return 0, 0, err
		}
	}
	pre := ObsSnapshot()
	const runs = 15
	lat := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := s.Exec(q); err != nil {
			return 0, 0, err
		}
		lat = append(lat, time.Since(start))
	}
	batches := ObsSnapshot().Delta(pre).Sum("wire_pipeline_batches_total")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[runs/2], batches, nil
}

// a5Runs is the timed executions of each A5 cell; a5Rows the lineitem rows
// at a scale: 16x the TPC-H order count, with a hard floor — the vectorized
// win is per-row CPU work, and the per-query fixed cost (parse, plan, emit)
// is ~1ms regardless of scale, which below ~40k rows dominates the
// vectorized side.
const a5Runs = 7

func a5Rows(sc Scale) int { return max(sc.Orders*16, 40000) }

// AblationVectorized measures the vectorized columnar execution win (A5):
// TPC-H-subset aggregates (a Q1-style grouped report and a Q6-style
// filtered revenue sum) over a columnar lineitem subset on one node,
// executed row at a time vs through the batched scan→filter→partial-
// aggregate pipeline, the latter at parallel chunk-scan degree 1 and the
// default degree. Rows are loaded in shipdate order (the natural
// append-only ingest order), so Q6's date-range predicate lets the
// min/max chunk statistics prune most stripes — the stripes_skipped
// delta in each vectorized point's Extra shows how many.
func AblationVectorized(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A5", Metric: "lineitem aggregate ms (median, lower is better)"}
	c, err := cluster.New(cluster.Config{Workers: 0, ShardCount: sc.ShardCount, Trace: ClusterTrace})
	if err != nil {
		return out, err
	}
	defer c.Close()
	eng := c.Engines[0]
	defer eng.SetFeatures(engine.Features{})
	s := c.Session()
	if _, err := s.Exec(`CREATE TABLE lineitem (
		l_orderkey bigint, l_linenumber bigint, l_quantity double precision,
		l_extendedprice double precision, l_discount double precision,
		l_returnflag text, l_linestatus text, l_shipdate timestamp
	) USING columnar`); err != nil {
		return out, err
	}

	flags := []string{"A", "N", "R"}
	status := []string{"O", "F"}
	total := a5Rows(sc)
	seed := uint64(7)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	rows := make([]types.Row, 0, 1000)
	for i := 0; i < total; i++ {
		// shipdate advances with i: seven years of ingest in append order
		day := i * 2556 / total
		ship := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
		rows = append(rows, types.Row{
			int64(i),
			int64(next()%7) + 1,
			float64(next()%50) + 1,
			float64(next()%90000)/100 + 10,
			float64(next()%11) / 100,
			flags[next()%3], status[next()%2],
			ship,
		})
		if len(rows) == 1000 || i == total-1 {
			if _, err := s.CopyFrom("lineitem", nil, rows); err != nil {
				return out, err
			}
			rows = rows[:0]
		}
	}
	// No boundMemory here, deliberately: A2 measures the I/O-footprint win
	// of columnar storage; A5 isolates the CPU-side execution win, which a
	// simulated per-page I/O stall would drown.

	queries := []struct {
		name string
		q    string
	}{
		{"Q1 grouped report", `SELECT l_returnflag, l_linestatus, sum(l_quantity),
			sum(l_extendedprice), avg(l_quantity), avg(l_discount), count(*)
			FROM lineitem GROUP BY l_returnflag, l_linestatus
			ORDER BY l_returnflag, l_linestatus`},
		// the wide variant: a third group column takes the cardinality to
		// 3×2×7 = 42 groups, the dashboard-rollup shape where the per-row
		// group lookup used to dominate (and the group-ID fold pays off)
		{"Q1 wide groups", `SELECT l_returnflag, l_linestatus, l_linenumber,
			sum(l_quantity), sum(l_extendedprice), avg(l_quantity),
			avg(l_discount), count(*)
			FROM lineitem GROUP BY l_returnflag, l_linestatus, l_linenumber
			ORDER BY l_returnflag, l_linestatus, l_linenumber`},
		{"Q6 filtered sum", `SELECT sum(l_extendedprice * l_discount) FROM lineitem
			WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
			AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24`},
	}
	variants := []struct {
		name string
		vec  bool
		par  int
	}{
		{"row-at-a-time", false, 0},
		{"vectorized x1", true, 1},
		{"vectorized", true, 0}, // default parallel degree
	}
	for _, q := range queries {
		for _, v := range variants {
			eng.SetFeatures(engine.Features{NoVectorized: !v.vec, VecParallelism: v.par})
			if _, err := s.Exec(q.q); err != nil { // warm caches and pool
				return out, fmt.Errorf("%s %s: %w", q.name, v.name, err)
			}
			// start each cell with a fresh GC budget so a collection pause
			// triggered by earlier cells' garbage doesn't land mid-loop and
			// inflate even the best-of-runs sample
			runtime.GC()
			pre := ObsSnapshot()
			lat := make([]time.Duration, 0, a5Runs)
			for i := 0; i < a5Runs; i++ {
				start := time.Now()
				if _, err := s.Exec(q.q); err != nil {
					return out, err
				}
				lat = append(lat, time.Since(start))
			}
			d := ObsSnapshot().Delta(pre)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			out.Points = append(out.Points, Point{
				Config: fmt.Sprintf("%s, %s", q.name, v.name),
				Value:  float64(lat[a5Runs/2].Microseconds()) / 1000,
				Extra: map[string]float64{
					"vec_batches":       float64(d.Sum("columnar_vec_batches_total")),
					"vec_rows":          float64(d.Sum("columnar_vec_rows_total")),
					"stripes_skipped":   float64(d.Sum("columnar_vec_stripes_skipped_total")),
					"vec_group_batches": float64(d.Sum("columnar_vec_group_batches_total")),
					// best-of-runs: what the speedup assertions compare —
					// medians absorb scheduler noise on loaded CI boxes,
					// minima measure the actual per-row CPU work
					"best_ms": float64(lat[0].Microseconds()) / 1000,
				},
			})
		}
	}

	q3, err := ablationVectorizedJoin(s, eng, sc)
	if err != nil {
		return out, err
	}
	out.Points = append(out.Points, q3...)

	dash, err := ablationVectorizedDashboard(s, eng, sc)
	if err != nil {
		return out, err
	}
	out.Points = append(out.Points, dash...)

	topn, err := ablationTopNPushdown(sc)
	if err != nil {
		return out, err
	}
	out.Points = append(out.Points, topn...)
	return out, nil
}

// ablationVectorizedJoin is the row-store leg of A5: TPC-H Q3 — customer ⋈
// orders ⋈ lineitem, the repo benchmark's q_join — over heap tables on the
// same node, row at a time vs through the batched heap scan and the
// vectorized hash join. What each cell's Extra records is the work split
// the speed-up stands for, as counts: heap batches and rows that entered the
// kernels, and the rows the joins built their tables on and probed with. The
// row path's planner is left-deep and builds on its right input, which in
// Q3 is the larger one both times; the vectorized join builds on whichever
// input turned out smaller.
func ablationVectorizedJoin(s *engine.Session, eng *engine.Engine, sc Scale) ([]Point, error) {
	for _, ddl := range []string{
		`CREATE TABLE customer (c_custkey bigint PRIMARY KEY, c_mktsegment text)`,
		`CREATE TABLE orders (o_orderkey bigint PRIMARY KEY, o_custkey bigint, o_orderdate timestamp, o_shippriority bigint)`,
		`CREATE TABLE lineitem_row (l_orderkey bigint, l_linenumber bigint, l_extendedprice double precision,
			l_discount double precision, l_shipdate timestamp, PRIMARY KEY (l_orderkey, l_linenumber))`,
	} {
		if _, err := s.Exec(ddl); err != nil {
			return nil, err
		}
	}
	seed := uint64(3)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	orderCount := sc.Orders * 4
	var customers, orders, lines []types.Row
	for c := 1; c <= orderCount/10; c++ {
		customers = append(customers, types.Row{int64(c), segments[next()%5]})
	}
	for o := 1; o <= orderCount; o++ {
		date := time.Date(1992+int(next()%7), 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(next()%365))
		orders = append(orders, types.Row{int64(o), int64(next()%uint64(len(customers))) + 1, date, int64(0)})
		for l, n := 1, 1+int(next()%7); l <= n; l++ {
			lines = append(lines, types.Row{int64(o), int64(l), float64(next()%90000)/100 + 900,
				float64(next()%11) / 100, date.AddDate(0, 0, 1+int(next()%120))})
		}
	}
	for table, rows := range map[string][]types.Row{"customer": customers, "orders": orders, "lineitem_row": lines} {
		if _, err := s.CopyFrom(table, nil, rows); err != nil {
			return nil, err
		}
	}
	const q3 = `SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
		FROM customer, orders, lineitem_row
		WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND o_orderdate < '1995-03-15'::timestamp AND l_shipdate > '1995-03-15'::timestamp
		GROUP BY l_orderkey, o_orderdate, o_shippriority
		ORDER BY revenue DESC, o_orderdate LIMIT 10`
	var points []Point
	for _, v := range []struct {
		name string
		vec  bool
	}{{"row-at-a-time", false}, {"vectorized", true}} {
		eng.SetFeatures(engine.Features{NoVectorized: !v.vec})
		if _, err := s.Exec(q3); err != nil { // warm caches
			return nil, fmt.Errorf("Q3 %s: %w", v.name, err)
		}
		runtime.GC()
		pre := ObsSnapshot()
		lat := make([]time.Duration, 0, a5Runs)
		for i := 0; i < a5Runs; i++ {
			start := time.Now()
			if _, err := s.Exec(q3); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(start))
		}
		d := ObsSnapshot().Delta(pre)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		points = append(points, Point{
			Config: "Q3 row-store join, " + v.name,
			Value:  float64(lat[a5Runs/2].Microseconds()) / 1000,
			Extra: map[string]float64{
				"heap_vec_batches": float64(d.Sum("heap_vec_batches_total")),
				"heap_vec_rows":    float64(d.Sum("heap_vec_rows_total")),
				"join_build_rows":  float64(d.Sum("vec_join_build_rows_total")),
				"join_probe_rows":  float64(d.Sum("vec_join_probe_rows_total")),
				"table_rows":       float64(a5Runs * (len(customers) + len(orders) + len(lines))),
				"best_ms":          float64(lat[0].Microseconds()) / 1000,
			},
		})
	}
	return points, nil
}

// ablationVectorizedDashboard is the jsonb leg of A5: the §4.2 dashboard — a
// trigram GIN search, the ILIKE as its recheck, a day cast out of the
// document as the group key and jsonb_array_length as what is summed — over
// generated push events on the same node, row at a time vs through the
// batched fetch of the index's candidates and the derived-column kernels.
// Each cell's Extra records the work split as counts: the candidates the
// vectorized scan fetched and the ones that passed its recheck, beside the
// events that mention postgres, counted here from the generated documents —
// no other word of the generator's shares a trigram run with it, so the index
// names exactly those.
func ablationVectorizedDashboard(s *engine.Session, eng *engine.Engine, sc Scale) ([]Point, error) {
	if err := gharchive.Setup(s, false, true); err != nil {
		return nil, err
	}
	events := gharchive.NewGenerator(11, 7).Batch(max(sc.Orders*4, 4000))
	matching := 0
	for _, ev := range events {
		messages, err := ev[1].(jsonb.Value).PathQueryArray("$.payload.commits[*].message")
		if err != nil {
			return nil, err
		}
		if strings.Contains(messages.String(), "postgres") {
			matching++
		}
	}
	for lo := 0; lo < len(events); lo += 1000 {
		if _, err := s.CopyFrom("github_events", nil, events[lo:min(lo+1000, len(events))]); err != nil {
			return nil, err
		}
	}
	var points []Point
	for _, v := range []struct {
		name string
		vec  bool
	}{{"row-at-a-time", false}, {"vectorized", true}} {
		eng.SetFeatures(engine.Features{NoVectorized: !v.vec})
		if _, err := s.Exec(gharchive.DashboardSQL); err != nil { // warm caches
			return nil, fmt.Errorf("dashboard %s: %w", v.name, err)
		}
		runtime.GC()
		pre := ObsSnapshot()
		lat := make([]time.Duration, 0, a5Runs)
		for i := 0; i < a5Runs; i++ {
			start := time.Now()
			if _, err := s.Exec(gharchive.DashboardSQL); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(start))
		}
		d := ObsSnapshot().Delta(pre)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		points = append(points, Point{
			Config: "dashboard GIN scan, " + v.name,
			Value:  float64(lat[a5Runs/2].Microseconds()) / 1000,
			Extra: map[string]float64{
				"gin_vec_candidates": float64(d.Sum("gin_vec_candidates_total")),
				"gin_vec_rows":       float64(d.Sum("gin_vec_rows_total")),
				"heap_vec_rows":      float64(d.Sum("heap_vec_rows_total")),
				"matching_events":    float64(a5Runs * matching),
				"best_ms":            float64(lat[0].Microseconds()) / 1000,
			},
		})
	}
	return points, nil
}

// ablationTopNPushdown measures the distributed TopN leg of A5: a grouped
// dashboard query (GROUP BY a non-distribution column, ORDER BY the group
// key, LIMIT k) over a 2-worker cluster, with the worker-side TopN
// pushdown on vs ablated off. The win is not primarily latency at test
// scale — it is shipped rows: Extra records how many rows the coordinator
// merge collected and how many the workers pruned, which is the
// O(workers × k) contract made visible. The table is row-store, so the
// worker's TopN heap does all the pruning (topn_pruned); topn_bound, the
// rows a vectorized grouped scan cuts before grouping them, stays zero.
func ablationTopNPushdown(sc Scale) ([]Point, error) {
	variants := []struct {
		name    string
		disable bool
	}{
		{"TopN pushdown", false},
		{"TopN no-pushdown", true},
	}
	var points []Point
	for _, v := range variants {
		c, err := cluster.New(cluster.Config{
			Workers: 2, ShardCount: sc.ShardCount, Trace: ClusterTrace,
			Citus:    citus.Config{DeadlockInterval: -1},
			Features: engine.Features{NoTopNPushdown: v.disable},
		})
		if err != nil {
			return nil, err
		}
		s := c.Session()
		if _, err := s.Exec(`CREATE TABLE dash_events (
			tenant bigint, bucket bigint, val double precision)`); err != nil {
			c.Close()
			return nil, err
		}
		if _, err := s.Exec(`SELECT create_distributed_table('dash_events', 'tenant')`); err != nil {
			c.Close()
			return nil, err
		}
		seed := uint64(11)
		next := func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed >> 33
		}
		total := sc.Orders * 4
		buckets := total / 8
		if buckets < 64 {
			buckets = 64
		}
		rows := make([]types.Row, 0, 1000)
		for i := 0; i < total; i++ {
			rows = append(rows, types.Row{
				int64(next() % 64), int64(i % buckets), float64(next()%1000) / 10,
			})
			if len(rows) == 1000 || i == total-1 {
				if _, err := s.CopyFrom("dash_events", nil, rows); err != nil {
					c.Close()
					return nil, err
				}
				rows = rows[:0]
			}
		}
		q := `SELECT bucket, count(*), sum(val) FROM dash_events
			GROUP BY bucket ORDER BY bucket LIMIT 10`
		if _, err := s.Exec(q); err != nil { // warm plan cache and pools
			c.Close()
			return nil, err
		}
		const runs = 7
		pre := ObsSnapshot()
		lat := make([]time.Duration, 0, runs)
		for i := 0; i < runs; i++ {
			start := time.Now()
			if _, err := s.Exec(q); err != nil {
				c.Close()
				return nil, err
			}
			lat = append(lat, time.Since(start))
		}
		d := ObsSnapshot().Delta(pre)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		points = append(points, Point{
			Config: "dashboard TopN, " + v.name,
			Value:  float64(lat[runs/2].Microseconds()) / 1000,
			Extra: map[string]float64{
				"merge_rows":     float64(d.Sum("citus_merge_rows_total")),
				"topn_pruned":    float64(d.Sum("vec_topn_pruned_rows_total")),
				"topn_bound":     float64(d.Sum("columnar_vec_topn_bound_rows_total")),
				"topn_pushdowns": float64(d.Sum("citus_topn_pushdowns_total")),
			},
		})
		c.Close()
	}
	return points, nil
}

// AblationReplicaRouting measures the replica-aware routing win (A6): the
// same concurrent single-shard read workload against a 2-worker cluster
// with and without one sync standby per worker. With standbys, reads
// round-robin across both placements of each shard — twice the serving
// capacity — and each point's Extra carries the routed-read counter split
// (primary vs standby placements) proving the fan-out happened.
func AblationReplicaRouting(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A6", Metric: "concurrent router reads/s (higher is better)"}
	for _, variant := range []struct {
		name string
		rf   int
	}{
		{"single placement", 0},
		{"replicated (2 placements)", 1},
	} {
		tput, primary, standby, err := replicaReadThroughput(sc, variant.rf)
		if err != nil {
			return out, fmt.Errorf("%s: %w", variant.name, err)
		}
		out.Points = append(out.Points, Point{
			Config: variant.name,
			Value:  tput,
			Extra: map[string]float64{
				"primary_reads": float64(primary),
				"standby_reads": float64(standby),
			},
		})
	}
	return out, nil
}

// replicaReadThroughput boots a 2-worker cluster (rf standbys per worker,
// sync replication so standbys are current) and hammers it with concurrent
// single-shard reads, returning reads/second plus the routed-read counter
// split over the measured window.
func replicaReadThroughput(sc Scale, rf int) (float64, int64, int64, error) {
	c, err := cluster.New(cluster.Config{
		Workers:           2,
		ShardCount:        sc.ShardCount,
		ReplicationFactor: rf,
		ReplicationMode:   repl.ModeSync,
		Trace:             ClusterTrace,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE rr (k bigint PRIMARY KEY, v bigint)"); err != nil {
		return 0, 0, 0, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('rr', 'k')"); err != nil {
		return 0, 0, 0, err
	}
	keys := int64(sc.Orders)
	rows := make([]types.Row, keys)
	for i := range rows {
		rows[i] = types.Row{int64(i), int64(i)}
	}
	if _, err := s.CopyFrom("rr", nil, rows); err != nil {
		return 0, 0, 0, err
	}

	const workers = 8
	const readsPer = 400
	// warm pools, plan cache, and replica streams
	for i := 0; i < 16; i++ {
		if _, err := s.Exec("SELECT v FROM rr WHERE k = $1", int64(i)%keys); err != nil {
			return 0, 0, 0, err
		}
	}

	pre := ObsSnapshot()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.Session()
			k := int64(w * 7919)
			for i := 0; i < readsPer; i++ {
				k = (k*6364136223846793005 + 1442695040888963407) % keys
				if k < 0 {
					k += keys
				}
				if _, err := sess.Exec("SELECT v FROM rr WHERE k = $1", k); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	d := ObsSnapshot().Delta(pre)
	primary := d.Get(`executor_routed_reads_total{placement="primary"}`)
	standby := d.Get(`executor_routed_reads_total{placement="standby"}`)
	return float64(workers*readsPer) / elapsed.Seconds(), primary, standby, nil
}

// AblationSSI measures what distributed serializability costs and what it
// buys (A7). The cost side is the cached-router TPC-C mix (Citus 4+1,
// stored procedures delegated by warehouse id) with every session at
// SERIALIZABLE, run under full SSI and again with the machinery disabled
// (plain snapshot isolation): TPC-C transactions are single-warehouse in
// the common case, so the SIREAD bookkeeping and commit-time checks should
// stay within ~15% of the SI median. The win side is a cross-shard
// write-skew micro-benchmark — pairs of accounts on different workers,
// two transactions each reading both balances and withdrawing from
// opposite sides — where SSI must abort one side of every conflicting
// pair (zero anomalies) and plain SI commits both (every pair violates
// the invariant). Extra carries the ssi_* counter deltas proving which
// machinery ran.
func AblationSSI(sc Scale) (Series, error) {
	out := Series{Figure: "Ablation A7", Metric: "TPC-C NOPM at SERIALIZABLE / write-skew anomalies (of 8 pairs)"}
	variants := []struct {
		name    string
		disable bool
	}{
		{"SSI on", false},
		{"SSI off (plain SI)", true},
	}
	for _, v := range variants {
		nopm, p50, d, err := serializableTPCC(sc, v.disable)
		if err != nil {
			return out, fmt.Errorf("TPC-C %s: %w", v.name, err)
		}
		out.Points = append(out.Points, Point{
			Config: "TPC-C serializable, " + v.name,
			Value:  nopm,
			Extra: map[string]float64{
				"p50_ms":       p50,
				"rw_conflicts": float64(d.Sum("ssi_rw_conflicts_total")),
				"ssi_aborts":   float64(d.Sum("ssi_aborts_total") + d.Sum("ssi_dist_aborts_total")),
				"dist_checks":  float64(d.Sum("ssi_dist_checks_total")),
			},
		})
	}
	for _, v := range variants {
		anomalies, aborts, d, err := writeSkewMicro(sc, v.disable)
		if err != nil {
			return out, fmt.Errorf("write-skew %s: %w", v.name, err)
		}
		out.Points = append(out.Points, Point{
			Config: "write-skew micro, " + v.name,
			Value:  float64(anomalies),
			Extra: map[string]float64{
				"serialization_aborts": float64(aborts),
				"rw_conflicts":         float64(d.Sum("ssi_rw_conflicts_total")),
				"dist_checks":          float64(d.Sum("ssi_dist_checks_total")),
			},
		})
	}
	return out, nil
}

// serializableTPCC runs the Figure 6 Citus 4+1 TPC-C configuration with
// every virtual user's session at SERIALIZABLE, returning NOPM, the
// New-Order p50 in ms, and the obs delta over the measured window.
func serializableTPCC(sc Scale, disableSSI bool) (float64, float64, obs.Snapshot, error) {
	c, err := cluster.New(cluster.Config{
		Workers:      4,
		ShardCount:   sc.ShardCount,
		SyncMetadata: true, // workers plan the delegated procedures (MX)
		Trace:        ClusterTrace,
		Features:     engine.Features{NoSSI: disableSSI},
	})
	if err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	defer c.Close()
	cfg := tpcc.Config{
		Warehouses:           sc.Warehouses,
		Districts:            4,
		CustomersPerDistrict: sc.TPCCCustomers,
		Items:                sc.TPCCItems,
		VUsers:               sc.TPCCUsers,
		Duration:             sc.TPCCRun,
		ThinkTime:            time.Millisecond,
		Distributed:          true,
	}
	for _, eng := range c.Engines {
		tpcc.RegisterProcedures(eng, cfg)
	}
	for _, node := range c.Nodes {
		tpcc.RegisterDelegation(node)
	}
	if err := tpcc.Load(c.Session(), cfg); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	boundMemory(c, sc)
	pre := ObsSnapshot()
	res := tpcc.Run(func(int) *engine.Session {
		s := c.Session()
		_, _ = s.Exec("SET transaction_isolation = 'serializable'")
		return s
	}, cfg)
	d := ObsSnapshot().Delta(pre)
	return res.NOPM, float64(res.NewOrderP50.Microseconds()) / 1000, d, nil
}

// writeSkewMicro drives writeSkewPairs deterministic cross-shard write-skew
// interleavings (each pair's two account shards on different workers, so
// only the coordinator's merged conflict graph can see the cycle) and
// returns how many pairs committed the anomaly and how many second COMMITs
// were aborted with a serialization failure.
func writeSkewMicro(sc Scale, disableSSI bool) (int, int, obs.Snapshot, error) {
	const pairs = 8
	c, err := cluster.New(cluster.Config{
		Workers:    2,
		ShardCount: sc.ShardCount,
		Trace:      ClusterTrace,
		Citus:      citus.Config{DeadlockInterval: -1, RecoveryInterval: -1},
		Features:   engine.Features{NoSSI: disableSSI},
	})
	if err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	defer c.Close()
	s := c.Session()
	if _, err := s.Exec("CREATE TABLE ws (k bigint PRIMARY KEY, balance bigint)"); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('ws', 'k')"); err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	// Pair keys from two distinct workers: every pair's rw-antidependency
	// edges land on different nodes.
	nodeOf := func(k int64) (int, error) {
		sh, err := c.Meta.ShardForValue("ws", k)
		if err != nil {
			return 0, err
		}
		return c.Meta.PrimaryPlacement(sh.ID)
	}
	first, err := nodeOf(0)
	if err != nil {
		return 0, 0, obs.Snapshot{}, err
	}
	var aKeys, bKeys []int64
	for k := int64(0); k < 100000 && (len(aKeys) < pairs || len(bKeys) < pairs); k++ {
		n, err := nodeOf(k)
		if err != nil {
			return 0, 0, obs.Snapshot{}, err
		}
		if n == first {
			aKeys = append(aKeys, k)
		} else {
			bKeys = append(bKeys, k)
		}
	}
	if len(aKeys) < pairs || len(bKeys) < pairs {
		return 0, 0, obs.Snapshot{}, fmt.Errorf("could not place %d key pairs on distinct workers", pairs)
	}
	for p := 0; p < pairs; p++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO ws VALUES (%d, 100), (%d, 100)", aKeys[p], bKeys[p])); err != nil {
			return 0, 0, obs.Snapshot{}, err
		}
	}

	pre := ObsSnapshot()
	anomalies, aborts := 0, 0
	for p := 0; p < pairs; p++ {
		a, b := aKeys[p], bKeys[p]
		s1, s2 := c.Session(), c.Session()
		for _, sess := range []*engine.Session{s1, s2} {
			if _, err := sess.Exec("SET transaction_isolation = 'serializable'"); err != nil {
				return 0, 0, obs.Snapshot{}, err
			}
			if _, err := sess.Exec("BEGIN"); err != nil {
				return 0, 0, obs.Snapshot{}, err
			}
			if _, err := sess.Exec(fmt.Sprintf("SELECT balance FROM ws WHERE k = %d OR k = %d", a, b)); err != nil {
				return 0, 0, obs.Snapshot{}, err
			}
		}
		if _, err := s1.Exec(fmt.Sprintf("UPDATE ws SET balance = balance - 150 WHERE k = %d", a)); err != nil {
			return 0, 0, obs.Snapshot{}, err
		}
		if _, err := s2.Exec(fmt.Sprintf("UPDATE ws SET balance = balance - 150 WHERE k = %d", b)); err != nil {
			return 0, 0, obs.Snapshot{}, err
		}
		if _, err := s1.Exec("COMMIT"); err != nil {
			return 0, 0, obs.Snapshot{}, fmt.Errorf("first COMMIT of pair %d: %w", p, err)
		}
		if _, err := s2.Exec("COMMIT"); err != nil {
			aborts++
			_, _ = s2.Exec("ROLLBACK")
		}
		res, err := s.Exec(fmt.Sprintf("SELECT sum(balance) FROM ws WHERE k = %d OR k = %d", a, b))
		if err != nil {
			return 0, 0, obs.Snapshot{}, err
		}
		if sum, _ := res.Rows[0][0].(int64); sum < 0 {
			anomalies++
		}
	}
	return anomalies, aborts, ObsSnapshot().Delta(pre), nil
}
