package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/trace"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// The deployment every workload runs on: the paper's Citus 4+1 over real
// TCP sockets (the citusd shape), with every simulated delay off.
const (
	workers    = 4
	shardCount = 16
	// modelledIOms is what one buffer-pool miss would have cost under the
	// program's I/O simulation (150µs). It is reported, never slept.
	modelledIOms = 0.150
	// stallFloorUs: client latencies above 50ms add to client.stall_ms.
	stallFloorUs = 50_000
	// traceRing holds the coordinator's most recent spans for
	// citus.coord_self_ms in the traced repetition.
	traceRing = 1 << 16
)

func clusterConfig(traced bool) cluster.Config {
	cfg := cluster.Config{
		Workers:    workers,
		ShardCount: shardCount,
		UseTCP:     true,
		NetworkRTT: 0,
		Trace:      trace.Config{SampleRate: -1},
	}
	if traced {
		cfg.Trace = trace.Config{RingSize: traceRing}
	}
	return cfg
}

// refuseSimulatedTime keeps sleeps out of the measurement: on this kind of
// host time.Sleep(100µs) costs about 1.1ms, so a simulated RTT or page
// miss would measure the host timer and not the program.
func refuseSimulatedTime(cfg cluster.Config) error {
	if cfg.NetworkRTT != 0 || cfg.IOLatency != 0 {
		return fmt.Errorf("simulated time must be off (NetworkRTT=%v IOLatency=%v)", cfg.NetworkRTT, cfg.IOLatency)
	}
	return nil
}

// workload is one traffic mix. A fresh value is built for every
// repetition from the same seed, so every repetition sees the same inputs.
type workload interface {
	// Clients is the number of closed-loop client connections.
	Clients() int
	// Sets names the latency sample sets the clients record into; the
	// first OpSets of them hold whole operations, the rest statements
	// inside operations.
	Sets() []string
	OpSets() int
	// Setup creates the schema, loads the data and sizes the buffer pools.
	Setup(r *rep) error
	// WarmSteps is the number of steps each client runs before timing, so
	// that pools, prepared statements and plan caches are full.
	WarmSteps() int
	// Step runs one client's next scheduled operation.
	Step(c *client)
	// Exhausted reports that a fixed schedule has nothing left to run.
	Exhausted() bool
	// Finish completes untimed work the output checks depend on.
	Finish(r *rep) error
	// Check compares the program's final state, and what its counters
	// moved by during the measured phase, with what the generator knows.
	Check(r *rep, res *repResult) error
	// Statements returns generated statement texts per class for the
	// parser micro-measurement.
	Statements(rng *rand.Rand, n int) []string
}

// rep is one repetition: a fresh cluster, set up, warmed and measured.
type rep struct {
	name    string
	w       workload
	c       *cluster.Cluster
	admin   *wire.Conn
	clients []*client
}

// client is one closed-loop connection with its private recorder.
type client struct {
	id   int
	conn *wire.Conn
	rng  *rand.Rand

	epoch     time.Time
	lat       [][]float64 // by sample set, µs
	attempted int
	failed    int
	wrong     error // first wrong answer; stops the run

	tracing bool
	spans   []span
	curOp   int64
	nextID  int64
	stmtDur time.Duration // duration of the last statement
}

func (c *client) reset(nsets int, epoch time.Time, tracing bool) {
	c.lat = make([][]float64, nsets)
	c.attempted, c.failed = 0, 0
	c.epoch, c.tracing, c.spans = epoch, tracing, nil
}

// op times one operation. A failed operation is counted and leaves no
// latency sample.
func (c *client) op(set int, name string, fn func() error) error {
	start := time.Now()
	var id int64
	if c.tracing {
		id = c.newSpanID()
		c.curOp = id
	}
	err := fn()
	d := time.Since(start)
	c.attempted++
	if err != nil {
		c.failed++
	} else {
		c.lat[set] = append(c.lat[set], float64(d.Nanoseconds())/1e3)
	}
	if c.tracing {
		c.spans = append(c.spans, span{ID: id, Op: id, Client: c.id, Name: name,
			Start: start.Sub(c.epoch).Nanoseconds(), End: start.Add(d).Sub(c.epoch).Nanoseconds()})
		c.curOp = 0
	}
	return err
}

func (c *client) newSpanID() int64 {
	c.nextID++
	return int64(c.id+1)<<40 | c.nextID
}

// stmt times one call into the program and, when tracing, records it as a
// child span of the current operation.
func (c *client) stmt(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	c.stmtDur = time.Since(start)
	if c.tracing {
		c.spans = append(c.spans, span{ID: c.newSpanID(), Parent: c.curOp, Op: c.curOp, Client: c.id, Name: name,
			Start: start.Sub(c.epoch).Nanoseconds(), End: start.Add(c.stmtDur).Sub(c.epoch).Nanoseconds()})
	}
	return err
}

func (c *client) query(name, text string, params ...types.Datum) (*engine.Result, error) {
	var res *engine.Result
	err := c.stmt(name, func() (err error) {
		res, err = c.conn.Query(text, params...)
		return err
	})
	return res, err
}

func (c *client) copyRows(name, table string, cols []string, rows []types.Row) error {
	return c.stmt(name, func() error {
		n, err := c.conn.Copy(table, cols, rows)
		if err == nil && n != len(rows) {
			err = fmt.Errorf("COPY %s loaded %d of %d rows", table, n, len(rows))
		}
		return err
	})
}

// sample records an auxiliary latency (a statement inside an operation).
func (c *client) sample(set int, d time.Duration) {
	c.lat[set] = append(c.lat[set], float64(d.Nanoseconds())/1e3)
}

// bad records a wrong answer: the program replied, but not with what the
// generator knows to be true.
func (c *client) bad(format string, args ...any) {
	if c.wrong == nil {
		c.wrong = fmt.Errorf(format, args...)
	}
}

// repResult is what one repetition measured.
type repResult struct {
	SetupS    float64
	ElapsedS  float64
	Attempted int
	Failed    int
	Sets      []string // names of the sample sets; the first OpSets hold whole operations
	OpSets    int
	Samples   [][]float64 // by set, µs
	HeapMB    float64
	Noisy     bool
	CalMs     float64 // the calibration loop's time before the repetition
	CalDrift  float64 // its relative change by the end of the repetition
	Raw       rawLayers
	Spans     []span
}

func (r *repResult) ops() float64 { return float64(r.Attempted - r.Failed) }

// calibrate times a fixed CPU loop; a repetition whose before and after
// calibrations differ by more than 10% shared the host with someone else.
func calibrate() time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 4_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink = x
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

var calSink uint64

// newRep boots a cluster, sets the workload up and warms every client.
func newRep(name string, seed int64, sz sizes, traced bool) (*rep, error) {
	cfg := clusterConfig(traced)
	if err := refuseSimulatedTime(cfg); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("booting cluster: %w", err)
	}
	r := &rep{name: name, w: w, c: c, admin: c.Conn()}
	if err := w.Setup(r); err != nil {
		r.close()
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	for i := 0; i < w.Clients(); i++ {
		cl := &client{id: i, conn: c.Conn(), rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 17))}
		cl.reset(len(w.Sets()), time.Now(), false)
		r.clients = append(r.clients, cl)
	}
	err = r.eachClient(func(cl *client) error {
		for i := 0; i < w.WarmSteps() && cl.wrong == nil; i++ {
			w.Step(cl)
		}
		if cl.wrong == nil && cl.failed > 0 {
			return fmt.Errorf("%d of %d warm-up operations failed", cl.failed, cl.attempted)
		}
		return cl.wrong
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	return r, nil
}

func (r *rep) close() {
	for _, cl := range r.clients {
		cl.conn.Close()
	}
	r.admin.Close()
	r.c.Close()
}

// measure drives the closed loop for the given time, then runs the output
// checks. Any wrong answer is an error.
func (r *rep) measure(d time.Duration, traced bool) (*repResult, error) {
	w, nsets := r.w, len(r.w.Sets())
	res := &repResult{Sets: w.Sets(), OpSets: w.OpSets()}
	// Heap is read here, after a forced collection and before the clock
	// starts: the loaded and warmed state is the same on every run, whereas
	// the heap at the end grows with however many operations the measured
	// time allowed.
	runtime.GC()
	before := takeCounters(r.c)
	res.HeapMB = float64(before.mem.HeapAlloc) / (1 << 20)
	start := time.Now()
	deadline := start.Add(d)
	for _, cl := range r.clients {
		cl.reset(nsets, start, traced)
	}
	_ = r.eachClient(func(cl *client) error {
		for cl.wrong == nil && !w.Exhausted() && time.Now().Before(deadline) {
			w.Step(cl)
		}
		return nil
	})
	res.ElapsedS = time.Since(start).Seconds()
	after := takeCounters(r.c)

	res.Samples = make([][]float64, nsets)
	for _, cl := range r.clients {
		if cl.wrong != nil {
			return nil, fmt.Errorf("%s: wrong answer: %w", r.name, cl.wrong)
		}
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		for i := range cl.lat {
			res.Samples[i] = append(res.Samples[i], cl.lat[i]...)
		}
		res.Spans = append(res.Spans, cl.spans...)
		cl.lat, cl.spans = nil, nil
	}
	if res.Attempted == res.Failed {
		return nil, fmt.Errorf("%s: no operation succeeded (%d attempted)", r.name, res.Attempted)
	}
	if err := w.Finish(r); err != nil {
		return nil, fmt.Errorf("%s finish: %w", r.name, err)
	}
	res.Raw = after.since(before)
	res.Raw.endState(r.c)
	if traced {
		res.Raw.CoordSelfMs = coordSelfMs(r.c.Engines[0].Tracer.Dump())
	}
	if err := w.Check(r, res); err != nil {
		return nil, fmt.Errorf("%s: output check failed: %w", r.name, err)
	}
	return res, nil
}

// runRep is one repetition: a fresh cluster set up, warmed, measured and
// checked, between two readings of the host-noise calibration loop.
func runRep(name string, seed int64, sz sizes, d time.Duration, traced bool) (*repResult, error) {
	calBefore := calibrate()
	setupStart := time.Now()
	r, err := newRep(name, seed, sz, traced)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setup := time.Since(setupStart)
	res, err := r.measure(d, traced)
	if err != nil {
		return nil, err
	}
	res.SetupS = setup.Seconds()
	calAfter := calibrate()
	res.CalMs = float64(calBefore.Nanoseconds()) / 1e6
	res.CalDrift = float64(calAfter-calBefore) / float64(calBefore)
	res.Noisy = res.CalDrift > 0.10 || res.CalDrift < -0.10
	return res, nil
}

// eachClient runs fn for every client at once and waits for all of them.
func (r *rep) eachClient(fn func(*client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			errs[i] = fn(cl)
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exec runs a set-up or check statement on the admin connection.
func (r *rep) exec(text string, params ...types.Datum) (*engine.Result, error) {
	res, err := r.admin.Query(text, params...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", firstLine(text), err)
	}
	return res, nil
}

// load COPYs rows through the coordinator in batches.
func (r *rep) load(table string, cols []string, rows []types.Row, batch int) error {
	for len(rows) > 0 {
		n := batch
		if n > len(rows) {
			n = len(rows)
		}
		if _, err := r.admin.Copy(table, cols, rows[:n]); err != nil {
			return fmt.Errorf("COPY %s: %w", table, err)
		}
		rows = rows[n:]
	}
	return nil
}

// scalarInt runs a query that returns one integer.
func (r *rep) scalarInt(text string) (int64, error) {
	res, err := r.exec(text)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", firstLine(text), len(res.Rows))
	}
	return asInt(res.Rows[0][0])
}

func asInt(d types.Datum) (int64, error) {
	switch v := d.(type) {
	case int64:
		return v, nil
	case float64:
		return int64(v), nil
	case nil:
		return 0, nil
	}
	return 0, fmt.Errorf("want a number, got %T", d)
}

func asFloat(d types.Datum) (float64, error) {
	switch v := d.(type) {
	case int64:
		return float64(v), nil
	case float64:
		return v, nil
	case nil:
		return 0, nil
	}
	return 0, fmt.Errorf("want a number, got %T", d)
}

func firstLine(s string) string {
	for i, ch := range s {
		if ch == '\n' {
			return s[:i]
		}
	}
	if len(s) > 80 {
		return s[:80]
	}
	return s
}

// counters is a point-in-time reading of everything the per-layer ledger
// derives counts from.
type counters struct {
	obs        obs.Snapshot
	poolHits   int64
	poolMisses int64
	pages      int
	mem        runtime.MemStats
	cpu        time.Duration
	at         time.Time
}

func takeCounters(c *cluster.Cluster) counters {
	k := counters{obs: obs.Default().Snapshot(), at: time.Now()}
	for _, eng := range c.Engines {
		h, m := eng.Pool.Stats()
		k.poolHits += h
		k.poolMisses += m
		k.pages += eng.TotalPages()
	}
	runtime.ReadMemStats(&k.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return k
}
