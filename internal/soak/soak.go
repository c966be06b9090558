// Package soak is the open-loop production soak harness: it drives mixed
// tenant traffic (TPC-C, YCSB, gharchive-style ILIKE dashboards, a 2PC
// ledger, and a serializable bank) against a replicated multi-node cluster
// with Poisson arrivals at configured per-class rates — open loop, so an
// overloaded or failing cluster drops arrivals instead of silently slowing
// the generator down — while cluster invariants are checked continuously
// and latency SLOs (p50/p99/p999 per class) are tracked from internal/obs
// histograms.
//
// The harness composes the internal/fault machinery: one seed drives both
// the fault registry RNG and the arrival/workload RNGs, so a failing soak
// reproduces from `citusbench -soak -soak-seed <n>`. Worker failovers are
// injected mid-run; after each one (and at the end) the harness pauses the
// writers, quiesces 2PC, drains replication, and checks the invariants the
// cluster promises:
//
//   - no acked write lost: every acknowledged ledger batch is present in
//     the ledger log (sync replication; async mode is allowed a bounded
//     tail around each failover);
//   - bounded staleness: no live async standby lags its primary by more
//     than MaxAsyncLag records (checked continuously);
//   - write-skew absence: serializable bank pairs never overdraw (each
//     pair's balance sum stays >= 0);
//   - 2PC atomicity: every multi-shard ledger batch is all-or-none and no
//     prepared transaction dangles after quiesce;
//   - placement consistency: exactly one primary per shard, never on a
//     standby or down node, colocated shards aligned, catalog version
//     monotonic (checked continuously and after every failover).
//
// On any violation the run dumps seed + config + violations + obs metrics
// + per-engine trace rings to an artifact directory (CHAOS_ARTIFACT_DIR).
package soak

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/workload/gharchive"
	"citusgo/internal/workload/tpcc"
	"citusgo/internal/workload/ycsb"
)

// Class names, used as the obs label, the classRates/classSLOs key, and the
// fault key of PointSoakAck.
const (
	ClassTPCC    = "tpcc"
	ClassYCSB    = "ycsb"
	ClassILike   = "ilike"
	ClassLedger  = "ledger"
	ClassSSIBank = "ssibank"
	ClassMove    = "move"
)

// Classes lists every workload class in report order.
var Classes = []string{ClassTPCC, ClassYCSB, ClassILike, ClassLedger, ClassSSIBank, ClassMove}

var (
	metOps = obs.Default().Counter("soak_ops_total",
		"soak operations by workload class and result (ok, error, retry, drop)", "class", "result")
	metLatency = obs.Default().Histogram("soak_latency",
		"open-loop operation latency from scheduled Poisson arrival to completion, nanoseconds", nil, "class")
	metTenantOps = obs.Default().Counter("soak_tenant_ops_total",
		"soak operations per tenant (TPC-C warehouse), the load stats adaptive placement will consume", "class", "tenant")
	metChecks = obs.Default().Counter("soak_invariant_checks_total",
		"invariant checks executed by the soak checker", "invariant")
	metViolations = obs.Default().Counter("soak_invariant_violations_total",
		"invariant violations detected by the soak checker", "invariant")
	metFailovers = obs.Default().Counter("soak_failovers_total",
		"worker failovers injected by the soak conductor").With()
)

// SLO is a per-class latency objective; zero fields are unchecked.
type SLO struct {
	P50, P99, P999 time.Duration
}

// Config parameterizes one soak run. The zero value is usable: every field
// has a default sized for a short smoke run.
type Config struct {
	Duration   time.Duration // open-loop traffic window (default 2s)
	Workers    int           // worker nodes (default 3)
	ShardCount int           // shards per distributed table (default 8)

	ReplicationFactor int       // standbys per worker (default 1)
	ReplicationMode   repl.Mode // sync (default) or async WAL shipping
	MaxAsyncLag       int64     // async staleness bound in records (default 64)

	// Seed drives the fault registry and every workload/arrival RNG.
	// 0 resolves FAULT_SEED from the environment, else the wall clock.
	Seed int64

	Tenants int // TPC-C warehouses = tenant count (default 4)

	// RateScale multiplies every class's arrivals/sec in classRates
	// (default 1.0).
	RateScale float64

	// FailOnSLO fails the run on a class outside its classSLOs. SLO verdicts
	// are always reported; latency on shared CI runners is noisy — the
	// invariants are the hard gate.
	FailOnSLO bool

	// Faults arms the background brew: probabilistic replication
	// ship/apply delays, executor task delays, and COMMIT PREPARED
	// failures, all reproducible from Seed.
	Faults bool

	// Failovers is how many worker failovers the conductor injects,
	// spread evenly across the run (each crashes a primary, promotes its
	// standby, and rejoins the crashed node as a standby).
	Failovers int

	// CanaryLostAck deliberately loses exactly one acknowledged ledger
	// batch (via fault.PointSoakAck): the checker must catch it, proving
	// the no-acked-write-lost invariant is live. Used by the checker
	// self-test in `make soak-smoke`.
	CanaryLostAck bool

	// ArtifactDir receives the violation dump; "" uses CHAOS_ARTIFACT_DIR
	// (and dumps nothing when that is unset too).
	ArtifactDir string

	Logf func(format string, args ...any) // progress log; nil = silent
}

func (cfg Config) withDefaults() Config {
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers == 0 {
		cfg.Workers = 3
	}
	if cfg.ShardCount == 0 {
		cfg.ShardCount = 8
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = 1
	}
	if cfg.MaxAsyncLag == 0 {
		cfg.MaxAsyncLag = 64
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 4
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1.0
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// maxInFlight bounds concurrent operations per class (the ledger is always
// single-writer). Arrivals beyond the bound are dropped and counted,
// preserving open-loop semantics.
const maxInFlight = 4

// classRates is the mixed-tenant traffic shape in arrivals/sec, sized so
// the short CI smoke stays comfortably inside one core while still running
// every class concurrently.
var classRates = map[string]float64{
	ClassTPCC:    40,
	ClassYCSB:    120,
	ClassILike:   8,
	ClassLedger:  12,
	ClassSSIBank: 30,
	ClassMove:    0.5,
}

// classSLOs are deliberately loose: the point of the report is the
// p50/p99/p999 numbers themselves, with verdicts that only trip on
// something pathological.
var classSLOs = map[string]SLO{
	ClassTPCC:    {P50: 50 * time.Millisecond, P99: 500 * time.Millisecond, P999: 2 * time.Second},
	ClassYCSB:    {P50: 20 * time.Millisecond, P99: 250 * time.Millisecond, P999: time.Second},
	ClassILike:   {P50: 100 * time.Millisecond, P99: time.Second, P999: 4 * time.Second},
	ClassLedger:  {P50: 100 * time.Millisecond, P99: time.Second, P999: 4 * time.Second},
	ClassSSIBank: {P50: 50 * time.Millisecond, P99: 500 * time.Millisecond, P999: 2 * time.Second},
	ClassMove:    {P50: time.Second, P99: 4 * time.Second, P999: 8 * time.Second},
}

// runner is one soak run's live state.
type runner struct {
	cfg  Config
	seed int64
	c    *cluster.Cluster

	classes []*classDriver

	start time.Time
	stop  chan struct{}
	wg    sync.WaitGroup

	// failoverActive gates the continuous checks that would false-positive
	// mid-promotion (down-primary, staleness of a draining group).
	failoverActive atomic.Bool

	ledger *ledgerState
	bank   *bankState

	lastCatalogVersion atomic.Int64

	mu          sync.Mutex
	violations  []Violation
	failovers   int
	leakSamples []LeakSample
}

// classDriver is one workload class: its Poisson dispatcher feeds the
// arrivals channel; maxInFlight workers (each owning a session and an RNG)
// consume it. The gate is the quiesce mechanism: every operation runs under
// RLock, so a checkpoint taking Lock observes the class fully drained.
type classDriver struct {
	name     string
	rate     float64
	arrivals chan time.Time
	gate     sync.RWMutex
	op       func(w *classWorker) error

	ok, errs, retries, drops *obs.Counter
	lat                      *obs.Histogram
	// base values at run start: the obs counters are process-global, so a
	// second Run in the same process must report per-run deltas.
	ok0, errs0, retries0, drops0 int64
}

// classWorker is one concurrent executor of a class.
type classWorker struct {
	sess *engine.Session
	rng  *rand.Rand
}

// ResolveSeed applies the soak's seed resolution order: explicit > the
// FAULT_SEED environment variable > wall clock.
func ResolveSeed(seed int64) int64 {
	if seed != 0 {
		return seed
	}
	if env := os.Getenv("FAULT_SEED"); env != "" {
		if v, err := strconv.ParseInt(env, 10, 64); err == nil && v != 0 {
			return v
		}
	}
	return time.Now().UnixNano()
}

// Run executes one soak end to end and returns its report. The returned
// error covers harness/setup failures only; invariant and SLO outcomes are
// in the report (Report.Passed).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	seed := ResolveSeed(cfg.Seed)
	fault.Reset()
	fault.SetSeed(seed)
	defer fault.Reset()
	cfg.Logf("soak: seed %d (reproduce with -soak-seed %d)", seed, seed)

	c, err := cluster.New(cluster.Config{
		Workers:               cfg.Workers,
		ShardCount:            cfg.ShardCount,
		ReplicationFactor:     cfg.ReplicationFactor,
		ReplicationMode:       cfg.ReplicationMode,
		MaxAsyncLag:           cfg.MaxAsyncLag,
		LocalDeadlockInterval: 20 * time.Millisecond,
		Citus: citus.Config{
			RecoveryInterval: 25 * time.Millisecond,
			RecoveryGrace:    200 * time.Millisecond,
			DeadlockInterval: 50 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("soak: booting cluster: %w", err)
	}
	defer c.Close()

	r := &runner{cfg: cfg, seed: seed, c: c, stop: make(chan struct{})}
	r.lastCatalogVersion.Store(c.Meta.Version())
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("soak: setup: %w", err)
	}

	if cfg.Faults {
		r.armFaultBrew()
	}
	if cfg.CanaryLostAck {
		// Deterministic: fires on the 4th ledger acknowledgment, once.
		fault.Arm(fault.Rule{Point: fault.PointSoakAck, Key: ClassLedger,
			Action: fault.ActError, After: 3, Count: 1})
	}

	cfg.Logf("soak: %v open-loop traffic, %d tenants, %d workers (rf=%d %s), %d failover(s)",
		cfg.Duration, cfg.Tenants, cfg.Workers, cfg.ReplicationFactor,
		modeName(cfg.ReplicationMode), cfg.Failovers)

	start := time.Now()
	r.start = start
	for i, d := range r.classes {
		r.wg.Add(1)
		go r.dispatch(d, int64(i))
		workers := maxInFlight
		if d.name == ClassLedger || d.name == ClassMove {
			workers = 1 // one ledger writer by design; one move of the group at a time
		}
		for wi := 0; wi < workers; wi++ {
			w := &classWorker{
				sess: c.Session(),
				rng:  rand.New(rand.NewSource(seed*1315423911 + int64(i)*257 + int64(wi))),
			}
			if d.name == ClassSSIBank {
				if _, err := w.sess.Exec("SET transaction_isolation = 'serializable'"); err != nil {
					return nil, fmt.Errorf("soak: serializable session: %w", err)
				}
			}
			r.wg.Add(1)
			go r.work(d, w)
		}
	}
	checkerDone := make(chan struct{})
	go r.continuousChecks(checkerDone)
	conductorDone := make(chan struct{})
	go r.conduct(conductorDone)

	<-time.After(cfg.Duration)
	close(r.stop)
	r.wg.Wait()
	<-conductorDone
	<-checkerDone

	// Final settle + full invariant sweep over the quiesced cluster.
	r.checkpoint("final")

	rep := r.buildReport(time.Since(start))
	if len(rep.Violations) > 0 || len(rep.LeakFlags) > 0 {
		rep.ArtifactPath = r.dumpArtifact(rep)
	}
	return rep, nil
}

// setup creates and loads every workload's schema and registers the TPC-C
// procedures on every engine — including standbys, so a promoted standby
// can serve CALLs. The soak deliberately does NOT register worker
// delegation: CALLs run through the coordinator's distributed planner,
// which is placement-aware and therefore stays correct across failovers.
func (r *runner) setup() error {
	cfg := r.cfg
	s := r.c.Session()
	t0 := time.Now()

	tcfg := tpcc.Config{Warehouses: cfg.Tenants, Distributed: true}
	if err := tpcc.Load(s, tcfg); err != nil {
		return fmt.Errorf("tpcc load: %w", err)
	}
	for _, eng := range r.c.Engines {
		tpcc.RegisterProcedures(eng, tcfg)
	}
	for _, node := range r.c.Meta.Nodes() {
		if eng := r.c.StandbyEngine(node.ID); eng != nil {
			tpcc.RegisterProcedures(eng, tcfg)
		}
	}

	if err := ycsb.Load(s, ycsb.Config{Rows: 500, Distributed: true}); err != nil {
		return fmt.Errorf("ycsb load: %w", err)
	}

	if err := gharchive.Setup(s, true, true); err != nil {
		return fmt.Errorf("gharchive setup: %w", err)
	}
	gen := gharchive.NewGenerator(r.seed, 3)
	if _, err := s.CopyFrom("github_events", []string{"event_id", "data"}, gen.Batch(600)); err != nil {
		return fmt.Errorf("gharchive load: %w", err)
	}

	ledger, err := newLedgerState(r)
	if err != nil {
		return fmt.Errorf("ledger setup: %w", err)
	}
	r.ledger = ledger

	bank, err := newBankState(r)
	if err != nil {
		return fmt.Errorf("bank setup: %w", err)
	}
	r.bank = bank

	for _, name := range Classes {
		d := &classDriver{
			name:     name,
			rate:     classRates[name] * cfg.RateScale,
			arrivals: make(chan time.Time, maxInFlight),
			ok:       metOps.With(name, "ok"),
			errs:     metOps.With(name, "error"),
			retries:  metOps.With(name, "retry"),
			drops:    metOps.With(name, "drop"),
			lat:      metLatency.With(name),
		}
		d.ok0, d.errs0, d.retries0, d.drops0 =
			d.ok.Value(), d.errs.Value(), d.retries.Value(), d.drops.Value()
		switch name {
		case ClassTPCC:
			d.op = r.opTPCC
		case ClassYCSB:
			d.op = r.opYCSB
		case ClassILike:
			d.op = r.opILike
		case ClassLedger:
			d.op = r.opLedger
		case ClassSSIBank:
			d.op = r.opBank
		case ClassMove:
			d.op = r.opMove
		}
		r.classes = append(r.classes, d)
	}
	r.cfg.Logf("soak: schemas loaded in %s", time.Since(t0).Round(time.Millisecond))
	return nil
}

// armFaultBrew arms the background fault schedule: enough friction that
// replication runs behind the executor and some COMMIT PREPAREDs fail
// (exercising 2PC recovery), while every invariant must still hold.
func (r *runner) armFaultBrew() {
	fault.Arm(fault.Rule{Point: fault.PointReplShip, Action: fault.ActDelay, Delay: 100 * time.Microsecond, Prob: 0.2})
	fault.Arm(fault.Rule{Point: fault.PointReplApply, Action: fault.ActDelay, Delay: 100 * time.Microsecond, Prob: 0.2})
	fault.Arm(fault.Rule{Point: fault.PointExecutorTask, Action: fault.ActDelay, Delay: 50 * time.Microsecond, Prob: 0.1})
	fault.Arm(fault.Rule{Point: fault.Point2PCCommit, Action: fault.ActError, Prob: 0.05})
}

// dispatch is the open-loop Poisson arrival generator for one class: it
// draws exponential inter-arrival gaps at the class rate and offers each
// arrival to the worker pool without ever blocking — a full queue means the
// cluster is not keeping up, and the arrival is dropped and counted rather
// than back-pressuring the generator (the difference between open- and
// closed-loop load).
func (r *runner) dispatch(d *classDriver, classIdx int64) {
	defer r.wg.Done()
	if d.rate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(r.seed*31 + classIdx))
	next := time.Now()
	for {
		gap := time.Duration(rng.ExpFloat64() / d.rate * float64(time.Second))
		// Clamp pathological tail draws so a low-rate class still notices
		// r.stop promptly.
		if gap > time.Second {
			gap = time.Second
		}
		next = next.Add(gap)
		if wait := time.Until(next); wait > 0 {
			select {
			case <-r.stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-r.stop:
				return
			default:
			}
		}
		select {
		case d.arrivals <- next:
		default:
			d.drops.Inc()
		}
	}
}

// work consumes arrivals for one class worker. Latency is measured from
// the scheduled Poisson arrival, not from operation start, so queueing
// delay counts against the SLO (no coordinated omission).
func (r *runner) work(d *classDriver, w *classWorker) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case t := <-d.arrivals:
			d.gate.RLock()
			err := d.op(w)
			d.gate.RUnlock()
			d.lat.Observe(time.Since(t).Nanoseconds())
			switch {
			case err == nil:
				d.ok.Inc()
			case isRetryable(err):
				d.retries.Inc()
			default:
				d.errs.Inc()
			}
		}
	}
}

// conduct injects the configured failovers at even fractions of the run:
// crash a primary worker, promote its standby, give the promoted topology
// a moment of live traffic, rejoin the crashed node as a standby, then run
// a full quiesced invariant checkpoint.
func (r *runner) conduct(done chan<- struct{}) {
	defer close(done)
	n := r.cfg.Failovers
	for i := 0; i < n; i++ {
		at := r.cfg.Duration * time.Duration(i+1) / time.Duration(n+1)
		select {
		case <-r.stop:
			return
		case <-time.After(time.Until(r.start.Add(at))):
		}
		r.injectFailover(i)
	}
}

func (r *runner) injectFailover(i int) {
	// Victims rotate over the original workers; skip nodes that are no
	// longer primaries (failed over earlier in this run).
	victim := 0
	for off := 0; off < r.cfg.Workers; off++ {
		idx := 1 + (i+off)%r.cfg.Workers
		if node, ok := r.c.Meta.Node(idx + 1); ok && !node.Standby && !node.Down {
			victim = idx
			break
		}
	}
	if victim == 0 {
		r.violate("failover", "no eligible primary worker left to fail over")
		return
	}
	r.failoverActive.Store(true)
	r.ledger.markFailover()
	r.cfg.Logf("soak: failing over worker node %d", victim+1)
	newID, err := r.c.Failover(victim)
	if err != nil {
		r.failoverActive.Store(false)
		r.violate("failover", "failover of node %d: %v", victim+1, err)
		return
	}
	// Let traffic run against the promoted primary before rejoining.
	select {
	case <-r.stop:
	case <-time.After(150 * time.Millisecond):
	}
	if err := r.c.RestartWorker(victim); err != nil {
		r.violate("failover", "rejoin of node %d: %v", victim+1, err)
	} else if eng := r.c.StandbyEngine(victim + 1); eng != nil {
		// The rejoined standby is a promotion candidate for a later
		// failover: it needs the TPC-C procedures like everyone else.
		tpcc.RegisterProcedures(eng, tpcc.Config{Warehouses: r.cfg.Tenants, Distributed: true})
	}
	r.failoverActive.Store(false)
	r.cfg.Logf("soak: node %d promoted, node %d rejoined as standby", newID, victim+1)
	r.mu.Lock()
	r.failovers++
	r.mu.Unlock()
	metFailovers.Inc()
	r.checkpoint(fmt.Sprintf("post-failover-%d", i+1))
}

// continuousChecks runs the always-on invariant sweep (placement
// consistency, catalog-version monotonicity, bounded staleness) every
// 200ms for the whole run.
func (r *runner) continuousChecks(done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.checkPlacement()
			r.checkStaleness()
		}
	}
}

func (r *runner) violate(invariant, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	metViolations.With(invariant).Inc()
	r.cfg.Logf("soak: INVARIANT VIOLATION [%s]: %s (seed %d)", invariant, detail, r.seed)
	r.mu.Lock()
	r.violations = append(r.violations, Violation{Invariant: invariant, Detail: detail})
	r.mu.Unlock()
}

func modeName(m repl.Mode) string {
	if m == repl.ModeAsync {
		return "async"
	}
	return "sync"
}
