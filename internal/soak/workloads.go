package soak

// The six workload-class operations. Each op runs on one classWorker's
// coordinator session; errors are classified by the caller (retryable
// serialization/deadlock aborts vs real errors). The ledger and bank
// classes carry extra state because they feed invariant checks.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/engine"
	"citusgo/internal/fault"
	"citusgo/internal/ssi"
	"citusgo/internal/workload/gharchive"
)

// isRetryable classifies errors that a production client would simply
// retry: serialization failures (SSI pivot aborts), deadlock victims, a
// multi-shard write that waited out a shard move and found one of its
// shards moved (the statement fails whole), and a move that gave way to the
// group's writers. Everything else (crashed nodes, injected faults,
// sync-repl timeouts) counts as an error.
func isRetryable(err error) bool {
	if errors.Is(err, ssi.ErrSerializationFailure) || errors.Is(err, citus.ErrWriteBlockTimeout) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "could not serialize") || strings.Contains(msg, "deadlock") ||
		strings.Contains(msg, engine.ErrRelationGone.Error())
}

// ---------------------------------------------------------------------------
// TPC-C (multi-tenant OLTP; warehouse = tenant)

// opTPCC drives a slice of the TPC-C mix (New-Order / Payment /
// Order-Status) through the coordinator's distributed planner. The tenant
// (warehouse) is drawn per arrival, and per-tenant op counts feed
// soak_tenant_ops_total — the load stats the adaptive-placement follow-on
// will consume.
func (r *runner) opTPCC(w *classWorker) error {
	cfg := r.cfg
	wh := int64(w.rng.Intn(cfg.Tenants) + 1)
	d := int64(w.rng.Intn(10) + 1)
	c := int64(w.rng.Intn(30) + 1)
	metTenantOps.With(ClassTPCC, fmt.Sprintf("%d", wh)).Inc()
	roll := w.rng.Float64()
	switch {
	case roll < 0.45: // New-Order
		olCnt := int64(5 + w.rng.Intn(6))
		_, err := w.sess.Exec(fmt.Sprintf("CALL new_order(%d, %d, %d, %d, %d, %d)",
			wh, d, c, olCnt, w.rng.Int63(), 0))
		return err
	case roll < 0.88: // Payment
		_, err := w.sess.Exec(fmt.Sprintf("CALL payment(%d, %d, %d, %d, %d, %f)",
			wh, d, wh, d, c, 1+w.rng.Float64()*4999))
		return err
	default: // Order-Status
		_, err := w.sess.Exec(fmt.Sprintf("CALL order_status(%d, %d, %d)", wh, d, c))
		return err
	}
}

// ---------------------------------------------------------------------------
// YCSB (high-performance CRUD)

const ycsbRows = 500

// opYCSB is YCSB workload A: 50% point reads, 50% single-field updates,
// uniform key distribution.
func (r *runner) opYCSB(w *classWorker) error {
	key := int64(w.rng.Intn(ycsbRows))
	if w.rng.Float64() < 0.5 {
		_, err := w.sess.Exec("SELECT * FROM usertable WHERE ycsb_key = $1", key)
		return err
	}
	field := w.rng.Intn(10)
	_, err := w.sess.Exec(
		fmt.Sprintf("UPDATE usertable SET field%d = $1 WHERE ycsb_key = $2", field),
		fmt.Sprintf("soak-%d", w.rng.Int63()), key)
	return err
}

// ---------------------------------------------------------------------------
// gharchive ILIKE dashboard (real-time analytics)

// opILike runs the paper's dashboard query — a multi-shard scan with an
// ILIKE predicate and a grouped aggregate — the analytics tenant sharing
// the cluster with the OLTP classes.
func (r *runner) opILike(w *classWorker) error {
	_, err := w.sess.Exec(gharchive.DashboardSQL)
	return err
}

// ---------------------------------------------------------------------------
// Ledger (2PC atomicity + no-acked-write-lost)

// ledgerState backs the acked-write invariant: a single sequential writer
// updates a fixed set of keys on distinct workers (forcing 2PC on every
// batch) and inserts the batch id into soak_ledger_log inside the same
// transaction. Every batch whose COMMIT was acknowledged must be in the
// log afterwards — modulo a bounded tail around each failover in async
// mode.
type ledgerState struct {
	keys []int64

	mu        sync.Mutex
	nextBatch int64
	acked     []int64
	// failoverMarks records the highest acked batch at each injected
	// failover: in async replication, acked batches within MaxAsyncLag of
	// a mark are allowed to be lost (bounded staleness is the contract).
	failoverMarks []int64
}

func newLedgerState(r *runner) (*ledgerState, error) {
	s := r.c.Session()
	if _, err := s.Exec("CREATE TABLE soak_ledger (k bigint PRIMARY KEY, v bigint)"); err != nil {
		return nil, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('soak_ledger', 'k')"); err != nil {
		return nil, err
	}
	if _, err := s.Exec("CREATE TABLE soak_ledger_log (batch bigint PRIMARY KEY)"); err != nil {
		return nil, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('soak_ledger_log', 'batch')"); err != nil {
		return nil, err
	}
	keys, err := crossWorkerKeys(r, "soak_ledger", 2)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if _, err := s.Exec("INSERT INTO soak_ledger (k, v) VALUES ($1, $2)", k, int64(0)); err != nil {
			return nil, err
		}
	}
	return &ledgerState{keys: keys}, nil
}

func (l *ledgerState) markFailover() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.acked); n > 0 {
		l.failoverMarks = append(l.failoverMarks, l.acked[n-1])
	}
}

// opLedger runs one multi-shard ledger batch: update every cross-worker
// key to the batch id and log the batch, in one 2PC transaction. The
// PointSoakAck fault seam sits between execution and COMMIT: when the
// canary rule fires, the batch is rolled back but *acknowledged anyway* —
// the exact ack-before-durable bug the no-acked-write-lost checker exists
// to catch.
func (r *runner) opLedger(w *classWorker) error {
	l := r.ledger
	l.mu.Lock()
	l.nextBatch++
	batch := l.nextBatch
	l.mu.Unlock()

	if _, err := w.sess.Exec("BEGIN"); err != nil {
		return err
	}
	for _, k := range l.keys {
		if _, err := w.sess.Exec("UPDATE soak_ledger SET v = $1 WHERE k = $2", batch, k); err != nil {
			_, _ = w.sess.Exec("ROLLBACK")
			return err
		}
	}
	if _, err := w.sess.Exec("INSERT INTO soak_ledger_log (batch) VALUES ($1)", batch); err != nil {
		_, _ = w.sess.Exec("ROLLBACK")
		return err
	}
	if err := fault.CheckKey(fault.PointSoakAck, ClassLedger); err != nil {
		_, _ = w.sess.Exec("ROLLBACK")
		l.ack(batch) // the simulated bug: acknowledged without committing
		return nil
	}
	if _, err := w.sess.Exec("COMMIT"); err != nil {
		// A failed COMMIT may still have committed (the commit record can
		// be durable before the error); the invariant check is therefore
		// one-directional — only *acked* batches must be in the log.
		return err
	}
	l.ack(batch)
	return nil
}

func (l *ledgerState) ack(batch int64) {
	l.mu.Lock()
	l.acked = append(l.acked, batch)
	l.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Shard moves (the rebalancer under traffic)

// opMove moves the shard group of the ledger's first key — its ledger row,
// the log's shard of the same index and every other co-located shard of it
// — to another worker, and the next time on, under the mixed traffic, with
// the acked-write and 2PC-atomicity checks watching the ledger. A move whose
// write block gave way to the group's writers (citus.ErrWriteBlockTimeout)
// is retried, as that error asks, after a pause — 20 ms, doubling to 320 ms
// — and counted as a retry each time, until it is done, fails otherwise, or
// the run stops. The block waits for the group's writers at most one
// deadlock-detection interval, which the soak keeps short, and a 2PC commit
// the fault brew delays can hold the group longer than that. A retry that
// falls in a failover waits it out and looks the placement up again.
func (r *runner) opMove(w *classWorker) error {
	if r.failoverActive.Load() {
		return nil
	}
	retries := metOps.With(ClassMove, "retry")
	pause := 20 * time.Millisecond
	for {
		err := r.moveLedgerGroup(w)
		if !errors.Is(err, citus.ErrWriteBlockTimeout) {
			return err
		}
		for wait := true; wait; wait = r.failoverActive.Load() {
			select {
			case <-r.stop:
				return err
			case <-time.After(pause):
			}
		}
		retries.Inc()
		pause = min(2*pause, 320*time.Millisecond)
	}
}

// moveLedgerGroup makes one attempt at opMove's move.
func (r *runner) moveLedgerGroup(w *classWorker) error {
	sh, err := r.c.Meta.ShardForValue("soak_ledger", r.ledger.keys[0])
	if err != nil {
		return err
	}
	from, err := r.c.Meta.PrimaryPlacement(sh.ID)
	if err != nil {
		return err
	}
	for _, n := range r.c.Meta.WorkerNodes() {
		if n.ID != from && !n.Down {
			return r.c.Coordinator().MoveShardPlacement(w.sess, sh.ID, from, n.ID)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Serializable bank (write-skew absence)

// bankState backs the write-skew invariant: account pairs on distinct
// workers, withdrawals allowed only while the pair's sum covers them. Under
// serializable isolation the sum can never go negative; a sum below zero
// is exactly the cross-node write-skew anomaly SSI must prevent.
type bankState struct {
	pairs [][2]int64
}

const bankWithdraw = 150
const bankDeposit = 100
const bankSeedBalance = 100

func newBankState(r *runner) (*bankState, error) {
	s := r.c.Session()
	if _, err := s.Exec("CREATE TABLE soak_bank (k bigint PRIMARY KEY, balance bigint)"); err != nil {
		return nil, err
	}
	if _, err := s.Exec("SELECT create_distributed_table('soak_bank', 'k')"); err != nil {
		return nil, err
	}
	nPairs := r.cfg.Tenants
	if nPairs < 2 {
		nPairs = 2
	}
	keys, err := crossWorkerKeys(r, "soak_bank", 2*nPairs)
	if err != nil {
		return nil, err
	}
	b := &bankState{}
	for i := 0; i+1 < len(keys); i += 2 {
		b.pairs = append(b.pairs, [2]int64{keys[i], keys[i+1]})
	}
	for _, k := range keys {
		if _, err := s.Exec("INSERT INTO soak_bank (k, balance) VALUES ($1, $2)", k, int64(bankSeedBalance)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// opBank runs one serializable bank transaction on a random pair: read
// both balances, then either deposit (always safe) or withdraw if the
// pair's sum covers it. Serialization aborts roll back and count as
// retries, exactly like a production client.
func (r *runner) opBank(w *classWorker) error {
	pair := r.bank.pairs[w.rng.Intn(len(r.bank.pairs))]
	target := pair[w.rng.Intn(2)]
	if _, err := w.sess.Exec("BEGIN"); err != nil {
		return err
	}
	res, err := w.sess.Exec(
		fmt.Sprintf("SELECT balance FROM soak_bank WHERE k = %d OR k = %d", pair[0], pair[1]))
	if err != nil {
		_, _ = w.sess.Exec("ROLLBACK")
		return err
	}
	var sum int64
	for _, row := range res.Rows {
		if v, ok := row[0].(int64); ok {
			sum += v
		}
	}
	var stmt string
	switch {
	case w.rng.Float64() < 0.35 || sum < bankWithdraw:
		stmt = fmt.Sprintf("UPDATE soak_bank SET balance = balance + %d WHERE k = %d", bankDeposit, target)
	default:
		stmt = fmt.Sprintf("UPDATE soak_bank SET balance = balance - %d WHERE k = %d", bankWithdraw, target)
	}
	if _, err := w.sess.Exec(stmt); err != nil {
		_, _ = w.sess.Exec("ROLLBACK")
		return err
	}
	if _, err := w.sess.Exec("COMMIT"); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------

// crossWorkerKeys probes the hash ring for n keys whose primary placements
// alternate between two distinct worker nodes, so consecutive key pairs
// always span a network hop (multi-shard 2PC, cross-node conflict graphs).
func crossWorkerKeys(r *runner, table string, n int) ([]int64, error) {
	byNode := map[int][]int64{}
	var nodes []int
	for k := int64(0); k < 20000; k++ {
		sh, err := r.c.Meta.ShardForValue(table, k)
		if err != nil {
			return nil, err
		}
		nodeID, err := r.c.Meta.PrimaryPlacement(sh.ID)
		if err != nil {
			return nil, err
		}
		if nodeID == 1 {
			continue // keep the coordinator out of the 2PC fan-out
		}
		if len(byNode[nodeID]) == 0 {
			nodes = append(nodes, nodeID)
		}
		byNode[nodeID] = append(byNode[nodeID], k)
		if len(nodes) >= 2 {
			a, b := byNode[nodes[0]], byNode[nodes[1]]
			if len(a) >= (n+1)/2 && len(b) >= n/2 {
				out := make([]int64, 0, n)
				for i := 0; len(out) < n; i++ {
					out = append(out, a[i])
					if len(out) < n {
						out = append(out, b[i])
					}
				}
				return out, nil
			}
		}
	}
	return nil, fmt.Errorf("no %d cross-worker keys found for %s", n, table)
}
