// Package fault is a deterministic, always-compiled fault-injection
// registry. Production code declares named injection points by calling
// Check/CheckKey at real seams (wire send/recv, pool dial, 2PC steps, WAL
// appends, ...). Tests arm rules against those points to force errors,
// delays, panics, dropped connections, or blocking gates — with
// trigger-on-Nth-hit counters and a seeded RNG for probabilistic modes, so
// every schedule is reproducible from a single FAULT_SEED.
//
// When no rules are armed the cost of a Check is one atomic load (see
// BenchmarkCheckDisarmed), which is why the registry can stay compiled into
// production builds instead of hiding behind a build tag.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/obs"
)

// Injection point names. Each constant is a seam in production code that
// calls Check/CheckKey; see docs/fault.md for the catalog with key
// semantics.
const (
	PointWireSend        = "wire.send"         // key: request kind (e.g. "query")
	PointWireRecv        = "wire.recv"         // key: request kind
	PointPoolDial        = "pool.dial"         // key: node name
	PointPoolCheckout    = "pool.checkout"     // key: node name
	PointExecutorTask    = "executor.task"     // key: "read" | "write" | "result"
	Point2PCPrepare      = "2pc.prepare"       // key: worker node ID (decimal)
	Point2PCCommitRecord = "2pc.commit_record" // key: global transaction ID
	Point2PCCommit       = "2pc.commit"        // key: worker node ID (decimal)
	Point2PCAbort        = "2pc.abort"         // key: worker node ID (decimal)
	PointWALAppend       = "wal.append"        // key: record type string
	PointWALFsync        = "wal.fsync"         // key: "<record type>@<node name>"
	PointMetaSync        = "metadata.sync"     // key: target node name
	PointRebalanceMove   = "rebalance.move"    // key: move stage ("create_shard", "snapshot_copy", "catchup", "metadata_flip", "drop_source")
	PointReplShip        = "repl.ship"         // key: standby node name (per shipped record)
	PointReplApply       = "repl.apply"        // key: standby node name (before applying a record)
	PointReplPromote     = "repl.promote"      // key: promotion stage ("drain", "flip")
	PointSSICheck        = "ssi.check"         // key: distributed txn id ("" for local txns)
	PointNodeCall        = "node.call"         // key: the node function a coordinator calls (e.g. "citus_node_wait_edges")
	PointSoakAck         = "soak.ack"          // key: soak workload class; canary for the soak's acked-write ledger
	PointEngineBlockOpen = "engine.block_open" // key: distributed txn id; a worker session opening a coordinator's transaction block
)

// Action says what an armed rule does when it fires.
type Action int

const (
	// ActError makes Check return Rule.Err (ErrInjected when unset).
	ActError Action = iota
	// ActDelay sleeps Rule.Delay, then lets execution continue.
	ActDelay
	// ActPanic panics with InjectedPanic{Point} — simulates a process
	// crash at the seam.
	ActPanic
	// ActDropConn makes Check return ErrDropConn; connection-owning seams
	// (wire) additionally close the underlying transport so the failure
	// looks like a peer reset, not a clean error reply.
	ActDropConn
	// actGate blocks the hitting goroutine until the test releases it.
	// Armed via ArmGate, not directly.
	actGate
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActDelay:
		return "delay"
	case ActPanic:
		return "panic"
	case ActDropConn:
		return "drop-conn"
	case actGate:
		return "gate"
	}
	return "unknown"
}

// ErrInjected is the default error returned by ActError rules.
var ErrInjected = errors.New("fault: injected error")

// ErrDropConn is returned by ActDropConn rules; wire treats it as a broken
// transport and closes the connection.
var ErrDropConn = errors.New("fault: injected connection drop")

// InjectedPanic is the value ActPanic rules panic with.
type InjectedPanic struct{ Point string }

func (p InjectedPanic) Error() string { return "fault: injected panic at " + p.Point }

// Rule arms one behavior at one injection point.
type Rule struct {
	Point string // required: one of the Point* constants
	Key   string // optional: fire only when CheckKey's key matches ("" = any)

	Action Action
	Err    error         // ActError payload; ErrInjected when nil
	Delay  time.Duration // ActDelay duration

	After int     // skip the first After matching hits
	Count int     // fire at most Count times (0 = unlimited)
	Prob  float64 // if in (0,1): fire each eligible hit with this probability
}

type rule struct {
	Rule
	hits     atomic.Int64
	fired    atomic.Int64
	disabled atomic.Bool

	gateArrived chan struct{}
	gateRelease chan error
}

// disable removes the rule from the armed count exactly once.
func (r *rule) disable() {
	if r.disabled.CompareAndSwap(false, true) {
		armedCount.Add(-1)
	}
}

var (
	// armedCount is the disarmed fast path: zero means every Check is a
	// single atomic load and an immediate return.
	armedCount atomic.Int32

	mu    sync.RWMutex
	rules []*rule

	totalsMu  sync.Mutex
	hitTotal  map[string]int64
	fireTotal map[string]int64

	rngMu   sync.Mutex
	rngSeed int64
	rng     *rand.Rand

	metInjected = obs.Default().Counter("fault_injected_total",
		"Fault-injection rules fired, by injection point.", "point")
)

func init() {
	seed := int64(1)
	if s := os.Getenv("FAULT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	rngSeed = seed
	rng = rand.New(rand.NewSource(seed))
	hitTotal = make(map[string]int64)
	fireTotal = make(map[string]int64)
}

// SetSeed reseeds the probabilistic-mode RNG. Chaos tests call this with a
// logged seed so any failure reproduces with FAULT_SEED=<seed>.
func SetSeed(seed int64) {
	rngMu.Lock()
	rngSeed = seed
	rng = rand.New(rand.NewSource(seed))
	rngMu.Unlock()
}

// Seed returns the RNG seed currently in effect.
func Seed() int64 {
	rngMu.Lock()
	defer rngMu.Unlock()
	return rngSeed
}

// Arm installs a rule. Rules at the same point fire independently in
// arming order (a delay rule can compose with an error rule).
func Arm(r Rule) {
	if r.Point == "" {
		panic("fault: Arm with empty Point")
	}
	armRule(&rule{Rule: r})
}

func armRule(r *rule) {
	mu.Lock()
	rules = append(rules, r)
	mu.Unlock()
	armedCount.Add(1)
}

// ArmGate installs a one-shot blocking gate at (point, key). The returned
// arrived channel closes when a goroutine hits the gate; that goroutine
// then blocks until release is called. release(nil) resumes it normally;
// release(err) makes its Check return err. Gates are how chaos tests stop
// the world at an exact 2PC step, crash a worker, and resume.
func ArmGate(point, key string) (arrived <-chan struct{}, release func(error)) {
	r := &rule{
		Rule:        Rule{Point: point, Key: key, Action: actGate, Count: 1},
		gateArrived: make(chan struct{}),
		gateRelease: make(chan error, 1),
	}
	armRule(r)
	return r.gateArrived, func(err error) {
		select {
		case r.gateRelease <- err:
		default:
		}
	}
}

// Disarm removes every rule at the given point.
func Disarm(point string) {
	mu.Lock()
	kept := rules[:0]
	for _, r := range rules {
		if r.Point == point {
			r.disable()
			continue
		}
		kept = append(kept, r)
	}
	rules = kept
	mu.Unlock()
}

// Reset disarms every rule and zeroes the hit/fired totals. The RNG seed
// is preserved; call SetSeed to change it.
func Reset() {
	mu.Lock()
	for _, r := range rules {
		r.disable()
	}
	rules = nil
	mu.Unlock()
	totalsMu.Lock()
	hitTotal = make(map[string]int64)
	fireTotal = make(map[string]int64)
	totalsMu.Unlock()
}

// Hits returns how many times any rule at point matched a Check (fired or
// not), since the last Reset.
func Hits(point string) int64 {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	return hitTotal[point]
}

// Fired returns how many times rules at point actually fired since the
// last Reset.
func Fired(point string) int64 {
	totalsMu.Lock()
	defer totalsMu.Unlock()
	return fireTotal[point]
}

// Armed reports whether any rule is armed: a seam whose key costs something
// to build asks first.
func Armed() bool { return armedCount.Load() != 0 }

// Check reports the injected fault (if any) for a point with no key.
func Check(point string) error { return CheckKey(point, "") }

// CheckKey reports the injected fault (if any) for a point and key. The
// disarmed fast path is a single atomic load. With rules armed, every rule
// matching (point, key) is evaluated in arming order: delays sleep and
// continue, gates block until released, error/drop/panic actions stop the
// scan.
func CheckKey(point, key string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return checkSlow(point, key)
}

func checkSlow(point, key string) error {
	mu.RLock()
	var matched []*rule
	for _, r := range rules {
		if r.Point == point && (r.Key == "" || r.Key == key) && !r.disabled.Load() {
			matched = append(matched, r)
		}
	}
	mu.RUnlock()
	if len(matched) == 0 {
		return nil
	}
	totalsMu.Lock()
	hitTotal[point]++
	totalsMu.Unlock()
	for _, r := range matched {
		if !r.tryFire() {
			continue
		}
		totalsMu.Lock()
		fireTotal[point]++
		totalsMu.Unlock()
		metInjected.With(point).Add(1)
		switch r.Action {
		case ActDelay:
			time.Sleep(r.Delay)
		case ActError:
			if r.Err != nil {
				return r.Err
			}
			return fmt.Errorf("%w at %s", ErrInjected, point)
		case ActDropConn:
			return fmt.Errorf("%w at %s", ErrDropConn, point)
		case ActPanic:
			panic(InjectedPanic{Point: point})
		case actGate:
			close(r.gateArrived)
			if err := <-r.gateRelease; err != nil {
				return err
			}
		}
	}
	return nil
}

// tryFire consumes one firing slot, honoring After, Prob, and Count.
func (r *rule) tryFire() bool {
	if r.disabled.Load() {
		return false
	}
	hit := r.hits.Add(1)
	if hit <= int64(r.After) {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 {
		rngMu.Lock()
		roll := rng.Float64()
		rngMu.Unlock()
		if roll >= r.Prob {
			return false
		}
	}
	if r.Count <= 0 {
		r.fired.Add(1)
		return true
	}
	for {
		f := r.fired.Load()
		if f >= int64(r.Count) {
			return false
		}
		if r.fired.CompareAndSwap(f, f+1) {
			if f+1 == int64(r.Count) {
				r.disable()
			}
			return true
		}
	}
}
