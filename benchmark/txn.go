package main

import (
	"fmt"
	"math/rand"

	"citusgo/internal/types"
)

// txn_mixed is the pgbench two-update transaction of the paper's §4.1.1 on
// two co-located tables:
//
//	BEGIN; UPDATE a1 SET v = v + d WHERE key = k1;
//	       UPDATE a2 SET v = v - d WHERE key = k2; COMMIT
//
// Half the transactions are class local (k2 = k1: both rows on one worker,
// single-node delegated commit), half class cross (k2 lives on a different
// worker: always two-phase commit). The same lock, WAL, wire and commit
// code is used two ways in one run.

// sample sets
const (
	txnLocal = iota
	txnCross
	txnCommitLocal
	txnCommitCross
)

const (
	txnUpdateA1 = "UPDATE a1 SET v = v + $1 WHERE key = $2"
	txnUpdateA2 = "UPDATE a2 SET v = v - $1 WHERE key = $2"
)

type txnWorkload struct {
	seed int64
	sz   sizes
	// nodeOf is the worker that holds each key (both tables: co-located).
	nodeOf []int
	// sumDelta adds up, per client, the deltas of committed transactions.
	sumDelta []int64
}

func newTxn(seed int64, sz sizes) *txnWorkload {
	w := &txnWorkload{seed: seed, sz: sz}
	w.sumDelta = make([]int64, w.Clients())
	return w
}

func (w *txnWorkload) Clients() int { return 2 }
func (w *txnWorkload) Sets() []string {
	return []string{"local", "cross", "commit_local", "commit_cross"}
}
func (w *txnWorkload) OpSets() int       { return 2 }
func (w *txnWorkload) WarmSteps() int    { return w.sz.TxnWarm }
func (w *txnWorkload) Exhausted() bool   { return false }
func (w *txnWorkload) Finish(*rep) error { return nil }

func (w *txnWorkload) Setup(r *rep) error {
	for _, tbl := range []string{"a1", "a2"} {
		if _, err := r.exec(fmt.Sprintf("CREATE TABLE %s (key bigint PRIMARY KEY, v bigint, filler text)", tbl)); err != nil {
			return err
		}
		colocate := ""
		if tbl == "a2" {
			colocate = ", colocate_with := 'a1'"
		}
		if _, err := r.exec(fmt.Sprintf("SELECT create_distributed_table('%s', 'key'%s)", tbl, colocate)); err != nil {
			return err
		}
		rows := make([]types.Row, w.sz.TxnRows)
		for i := range rows {
			rows[i] = types.Row{int64(i), int64(0), fieldValue(w.seed, int64(i), 0, 0)}
		}
		if err := r.load(tbl, []string{"key", "v", "filler"}, rows, 1000); err != nil {
			return err
		}
	}
	w.nodeOf = make([]int, w.sz.TxnRows)
	for key := range w.nodeOf {
		shard, err := r.c.Meta.ShardForValue("a1", int64(key))
		if err != nil {
			return err
		}
		if w.nodeOf[key], err = r.c.Meta.PrimaryPlacement(shard.ID); err != nil {
			return err
		}
	}
	return nil
}

// pickKey draws from the keys this client owns, so that two clients never
// wait for each other's row locks and no transaction fails.
func (w *txnWorkload) pickKey(c *client) int64 {
	n := w.Clients()
	return int64(c.rng.Intn(w.sz.TxnRows/n)*n + c.id)
}

func (w *txnWorkload) Step(c *client) {
	class := c.rng.Intn(2)
	delta := int64(1 + c.rng.Intn(100))
	key1 := w.pickKey(c)
	key2 := key1
	for class == txnCross && w.nodeOf[key2] == w.nodeOf[key1] {
		key2 = w.pickKey(c)
	}
	names := [2]string{"txn_local", "txn_cross"}
	err := c.op(class, names[class], func() error {
		if _, err := c.query("begin", "BEGIN"); err != nil {
			return err
		}
		for _, u := range [2]struct {
			name, text string
			key        int64
		}{{"update_a1", txnUpdateA1, key1}, {"update_a2", txnUpdateA2, key2}} {
			res, err := c.query(u.name, u.text, delta, u.key)
			if err != nil {
				_, _ = c.query("rollback", "ROLLBACK")
				return err
			}
			if res.Affected != 1 {
				c.bad("%s of key %d affected %d rows", u.name, u.key, res.Affected)
			}
		}
		if _, err := c.query("commit", "COMMIT"); err != nil {
			return err
		}
		c.sample(txnCommitLocal+class, c.stmtDur)
		return nil
	})
	if err == nil {
		w.sumDelta[c.id] += delta
	}
}

func (w *txnWorkload) Check(r *rep, res *repResult) error {
	if res.Failed > 0 {
		return nil // a failed COMMIT leaves its outcome unknown to the generator
	}
	var want int64
	for _, d := range w.sumDelta {
		want += d
	}
	a1, err := r.scalarInt("SELECT sum(v) FROM a1")
	if err != nil {
		return err
	}
	a2, err := r.scalarInt("SELECT sum(v) FROM a2")
	if err != nil {
		return err
	}
	if a1 != want || a2 != -want {
		return fmt.Errorf("sum(a1.v)=%d sum(a2.v)=%d, committed deltas sum to %d", a1, a2, want)
	}
	// Every cross transaction took two-phase commit and every local one
	// the single-node path, exactly.
	local, cross := int64(len(res.Samples[txnLocal])), int64(len(res.Samples[txnCross]))
	got2pc := res.Raw.Obs.Get("dtxn_2pc_commits_total")
	got1 := res.Raw.Obs.Get("dtxn_single_node_commits_total")
	if got2pc != cross || got1 != local {
		return fmt.Errorf("2PC commits %d (cross transactions %d), single-node commits %d (local transactions %d)",
			got2pc, cross, got1, local)
	}
	return nil
}

func (w *txnWorkload) Statements(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		tbl, sign := "a1", "+"
		if i%2 == 1 {
			tbl, sign = "a2", "-"
		}
		out = append(out, fmt.Sprintf("UPDATE %s SET v = v %s %d WHERE key = %d", tbl, sign, 1+rng.Intn(100), rng.Intn(w.sz.TxnRows)))
	}
	return out
}
