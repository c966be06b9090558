package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/types"
)

// analytics_fanout is the multi-shard path: one client runs rounds of four
// queries, each fanning out to all 16 shards.
//
//	q_grouped   Q1-style report over 42 groups            (columnar, vec group fold)
//	q_filtered  Q6-style date-range sum                   (columnar, stripe skipping)
//	q_topn      GROUP BY l_partkey ORDER BY .. LIMIT 10   (columnar, TopN pushdown)
//	q_join      TPC-H Q3: customer x orders x lineitem    (row store, co-located join)
//
// Every reply is compared with aggregates the generator computed in Go.

// sample sets
const (
	qGrouped = iota
	qFiltered
	qTopN
	qJoin
)

var analyticNames = [4]string{"q_grouped", "q_filtered", "q_topn", "q_join"}

var analyticSQL = [4]string{
	`SELECT l_returnflag, l_linestatus, l_linenumber, sum(l_quantity), sum(l_extendedprice),
		avg(l_quantity), avg(l_discount), count(*)
	FROM lineitem GROUP BY l_returnflag, l_linestatus, l_linenumber
	ORDER BY l_returnflag, l_linestatus, l_linenumber`,
	`SELECT sum(l_extendedprice * l_discount) FROM lineitem
	WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
	AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24`,
	`SELECT l_partkey, count(*), sum(l_quantity) FROM lineitem
	GROUP BY l_partkey ORDER BY l_partkey LIMIT 10`,
	`SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
	FROM customer, orders, lineitem_row
	WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
	AND o_orderdate < '1995-03-15'::timestamp AND l_shipdate > '1995-03-15'::timestamp
	GROUP BY l_orderkey, o_orderdate, o_shippriority
	ORDER BY revenue DESC, o_orderdate LIMIT 10`,
}

var analyticDDL = []string{
	`CREATE TABLE lineitem (l_orderkey bigint, l_partkey bigint, l_linenumber bigint,
		l_quantity double precision, l_extendedprice double precision, l_discount double precision,
		l_returnflag text, l_linestatus text, l_shipdate timestamp) USING columnar`,
	`SELECT create_distributed_table('lineitem', 'l_orderkey')`,
	`CREATE TABLE customer (c_custkey bigint PRIMARY KEY, c_mktsegment text)`,
	`SELECT create_reference_table('customer')`,
	`CREATE TABLE orders (o_orderkey bigint PRIMARY KEY, o_custkey bigint, o_orderdate timestamp, o_shippriority bigint)`,
	`SELECT create_distributed_table('orders', 'o_orderkey')`,
	`CREATE TABLE lineitem_row (l_orderkey bigint, l_linenumber bigint, l_extendedprice double precision,
		l_discount double precision, l_shipdate timestamp, PRIMARY KEY (l_orderkey, l_linenumber))`,
	`SELECT create_distributed_table('lineitem_row', 'l_orderkey', colocate_with := 'orders')`,
}

// groupAgg is the generator's own fold of one q_grouped group.
type groupAgg struct {
	flag, status   string
	line           int64
	qty, price, ds float64
	n              int64
}

// joinRow is one expected q_join row.
type joinRow struct {
	orderkey int64
	revenue  float64
	date     time.Time
}

type analyticsWorkload struct {
	seed  int64
	sz    sizes
	round int

	wantGrouped  []groupAgg
	wantFiltered float64
	wantTopN     [][3]float64 // partkey, count, sum(qty)
	wantJoin     []joinRow
}

func newAnalytics(seed int64, sz sizes) *analyticsWorkload {
	return &analyticsWorkload{seed: seed, sz: sz}
}

func (w *analyticsWorkload) Clients() int   { return 1 }
func (w *analyticsWorkload) Sets() []string { return analyticNames[:] }
func (w *analyticsWorkload) OpSets() int    { return 4 }
func (w *analyticsWorkload) WarmSteps() int { return 4 * w.sz.AnalyticWarm }

func (w *analyticsWorkload) Exhausted() bool   { return false }
func (w *analyticsWorkload) Finish(*rep) error { return nil }

func day(y int, m time.Month, d int) time.Time { return time.Date(y, m, d, 0, 0, 0, 0, time.UTC) }

func (w *analyticsWorkload) Setup(r *rep) error {
	for _, ddl := range analyticDDL {
		if _, err := r.exec(ddl); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	if err := w.loadColumnar(r, rng); err != nil {
		return err
	}
	return w.loadRowStore(r, rng)
}

// loadColumnar generates lineitem in ship-date order, the natural append
// order, so that min/max stripe statistics can skip most of q_filtered's
// date range, and folds the three columnar queries' answers on the way.
func (w *analyticsWorkload) loadColumnar(r *rep, rng *rand.Rand) error {
	flags := []string{"A", "N", "R"}
	status := []string{"F", "O"}
	groups := make(map[[3]int]*groupAgg)
	parts := make(map[int64]*[2]float64)
	lo, hi := day(1994, 1, 1), day(1995, 1, 1)
	total := w.sz.LineRows
	const batch = 2000
	rows := make([]types.Row, 0, batch)
	for i := 0; i < total; i++ {
		ship := day(1992, 1, 1).AddDate(0, 0, i*2556/total)
		partkey := int64(rng.Intn(w.sz.Parts) + 1)
		line := int64(rng.Intn(7) + 1)
		qty := float64(rng.Intn(50) + 1)
		price := float64(rng.Intn(90000))/100 + 10
		discount := float64(rng.Intn(11)) / 100
		fi, si := rng.Intn(3), rng.Intn(2)
		rows = append(rows, types.Row{int64(i), partkey, line, qty, price, discount, flags[fi], status[si], ship})

		g := groups[[3]int{fi, si, int(line)}]
		if g == nil {
			g = &groupAgg{flag: flags[fi], status: status[si], line: line}
			groups[[3]int{fi, si, int(line)}] = g
		}
		g.qty, g.price, g.ds, g.n = g.qty+qty, g.price+price, g.ds+discount, g.n+1
		if !ship.Before(lo) && ship.Before(hi) && discount >= 0.03 && discount <= 0.07 && qty < 24 {
			w.wantFiltered += price * discount
		}
		p := parts[partkey]
		if p == nil {
			p = new([2]float64)
			parts[partkey] = p
		}
		p[0], p[1] = p[0]+1, p[1]+qty

		if len(rows) == batch || i == total-1 {
			if err := r.load("lineitem", nil, rows, batch); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	for _, g := range groups {
		w.wantGrouped = append(w.wantGrouped, *g)
	}
	sort.Slice(w.wantGrouped, func(i, j int) bool {
		a, b := w.wantGrouped[i], w.wantGrouped[j]
		if a.flag != b.flag {
			return a.flag < b.flag
		}
		if a.status != b.status {
			return a.status < b.status
		}
		return a.line < b.line
	})
	keys := make([]int64, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys[:min(10, len(keys))] {
		w.wantTopN = append(w.wantTopN, [3]float64{float64(k), parts[k][0], parts[k][1]})
	}
	return nil
}

// loadRowStore generates customer, orders and lineitem_row and computes
// Q3's ten rows.
func (w *analyticsWorkload) loadRowStore(r *rep, rng *rand.Rand) error {
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	building := make(map[int64]bool)
	var customers, orders, lines []types.Row
	for c := 1; c <= w.sz.Customers; c++ {
		seg := segments[rng.Intn(len(segments))]
		building[int64(c)] = seg == "BUILDING"
		customers = append(customers, types.Row{int64(c), seg})
	}
	cut := day(1995, 3, 15)
	for o := 1; o <= w.sz.Orders; o++ {
		cust := int64(rng.Intn(w.sz.Customers) + 1)
		date := day(1992+rng.Intn(7), 1, 1).AddDate(0, 0, rng.Intn(365))
		orders = append(orders, types.Row{int64(o), cust, date, int64(0)})
		var revenue float64
		for l, n := 1, 1+rng.Intn(7); l <= n; l++ {
			price := float64(rng.Intn(50)+1) * (900 + float64(rng.Intn(10000))/100)
			discount := float64(rng.Intn(11)) / 100
			ship := date.AddDate(0, 0, 1+rng.Intn(120))
			lines = append(lines, types.Row{int64(o), int64(l), price, discount, ship})
			if ship.After(cut) {
				revenue += price * (1 - discount)
			}
		}
		if building[cust] && date.Before(cut) && revenue > 0 {
			w.wantJoin = append(w.wantJoin, joinRow{int64(o), revenue, date})
		}
	}
	sort.Slice(w.wantJoin, func(i, j int) bool {
		a, b := w.wantJoin[i], w.wantJoin[j]
		if a.revenue != b.revenue {
			return a.revenue > b.revenue
		}
		return a.date.Before(b.date)
	})
	w.wantJoin = w.wantJoin[:min(10, len(w.wantJoin))]
	if err := r.load("customer", nil, customers, 2000); err != nil {
		return err
	}
	if err := r.load("orders", nil, orders, 2000); err != nil {
		return err
	}
	return r.load("lineitem_row", nil, lines, 2000)
}

// Step runs the next query of the round.
func (w *analyticsWorkload) Step(c *client) {
	q := w.round % 4
	w.round++
	_ = c.op(q, analyticNames[q], func() error {
		res, err := c.query(analyticNames[q], analyticSQL[q])
		if err != nil {
			return err
		}
		if err := w.verify(q, res); err != nil {
			c.bad("%s: %v", analyticNames[q], err)
		}
		return nil
	})
}

// near compares floating-point aggregates: the program sums per shard and
// merges, the generator sums in load order.
func near(got types.Datum, want float64) bool {
	g, err := asFloat(got)
	return err == nil && math.Abs(g-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func (w *analyticsWorkload) verify(q int, res *engine.Result) error {
	switch q {
	case qGrouped:
		if len(res.Rows) != len(w.wantGrouped) {
			return fmt.Errorf("%d groups, generator has %d", len(res.Rows), len(w.wantGrouped))
		}
		for i, g := range w.wantGrouped {
			row := res.Rows[i]
			n := float64(g.n)
			if row[0] != types.Datum(g.flag) || row[1] != types.Datum(g.status) || row[2] != types.Datum(g.line) ||
				!near(row[3], g.qty) || !near(row[4], g.price) || !near(row[5], g.qty/n) || !near(row[6], g.ds/n) || !near(row[7], n) {
				return fmt.Errorf("group %d is %v, generator has %+v", i, row, g)
			}
		}
	case qFiltered:
		if len(res.Rows) != 1 || !near(res.Rows[0][0], w.wantFiltered) {
			return fmt.Errorf("got %v, generator has %v", res.Rows, w.wantFiltered)
		}
	case qTopN:
		if len(res.Rows) != len(w.wantTopN) {
			return fmt.Errorf("%d rows, generator has %d", len(res.Rows), len(w.wantTopN))
		}
		for i, want := range w.wantTopN {
			row := res.Rows[i]
			if !near(row[0], want[0]) || !near(row[1], want[1]) || !near(row[2], want[2]) {
				return fmt.Errorf("row %d is %v, generator has %v", i, row, want)
			}
		}
	case qJoin:
		if len(res.Rows) != len(w.wantJoin) {
			return fmt.Errorf("%d rows, generator has %d", len(res.Rows), len(w.wantJoin))
		}
		for i, want := range w.wantJoin {
			row := res.Rows[i]
			date, ok := row[2].(time.Time)
			if row[0] != types.Datum(want.orderkey) || !near(row[1], want.revenue) || !ok || !date.Equal(want.date) {
				return fmt.Errorf("row %d is %v, generator has %+v", i, row, want)
			}
		}
	}
	return nil
}

// Check has nothing left to do: every reply was verified when it arrived,
// and the queries change no state.
func (w *analyticsWorkload) Check(r *rep, res *repResult) error {
	for q, s := range res.Samples {
		if len(s) == 0 {
			return fmt.Errorf("%s never completed", analyticNames[q])
		}
	}
	// the columnar queries must have taken the vectorized path
	if res.Raw.Obs.Get("columnar_vec_queries_total") == 0 {
		return fmt.Errorf("no query ran vectorized: the columnar path was not exercised")
	}
	return nil
}

func (w *analyticsWorkload) Statements(_ *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, analyticSQL[i%4])
	}
	return out
}
