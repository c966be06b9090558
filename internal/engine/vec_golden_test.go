package engine

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// vecGoldenQueries is the query matrix the vectorized path must answer
// identically to the row path: the TPC-H-subset shapes A5 benchmarks
// (Q1/Q6 over lineitem) plus the aggregate/filter/NULL/typing edges.
var vecGoldenQueries = []struct {
	name string
	q    string
	// vectorizable marks queries that must route through vecAggNode;
	// the rest must fall back (and still match, trivially).
	vectorizable bool
	params       []types.Datum
}{
	{"q6_sum_product", `SELECT sum(l_extendedprice * l_discount) FROM lineitem
		WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`, true, nil},
	{"q1_grouped", `SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
		avg(l_quantity), avg(l_discount), count(*) FROM lineitem
		WHERE l_shipdate <= '1998-09-02'
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, true, nil},
	{"count_star_unfiltered", `SELECT count(*) FROM lineitem`, true, nil},
	{"min_max_mixed_types", `SELECT min(l_returnflag), max(l_returnflag), min(l_shipdate),
		max(l_shipdate), min(l_orderkey), max(l_quantity) FROM lineitem`, true, nil},
	{"null_aggregates", `SELECT count(*), count(l_comment_len), sum(l_comment_len),
		avg(l_comment_len), min(l_comment_len), max(l_comment_len) FROM lineitem`, true, nil},
	{"empty_selection", `SELECT sum(l_quantity), count(*), min(l_shipdate) FROM lineitem
		WHERE l_quantity < -1`, true, nil},
	{"param_filter", `SELECT count(*), sum(l_extendedprice) FROM lineitem
		WHERE l_quantity < $1 AND l_orderkey >= $2`, true,
		[]types.Datum{float64(17), int64(100)}},
	{"grouped_having", `SELECT l_returnflag, count(*) FROM lineitem
		GROUP BY l_returnflag HAVING count(*) > 5 ORDER BY 1`, true, nil},
	{"int_division_mod", `SELECT sum(l_orderkey / 7), sum(l_orderkey % 5) FROM lineitem
		WHERE l_orderkey > 3`, true, nil},
	{"group_by_int", `SELECT l_linenumber, count(*), avg(l_extendedprice) FROM lineitem
		GROUP BY l_linenumber ORDER BY l_linenumber`, true, nil},
	{"unary_minus", `SELECT sum(-l_discount), min(-l_orderkey) FROM lineitem`, true, nil},
	{"avg_int_is_float", `SELECT avg(l_orderkey) FROM lineitem`, true, nil},
	{"flipped_comparison", `SELECT count(*) FROM lineitem WHERE 10 > l_quantity`, true, nil},
	{"sum_constant", `SELECT sum(2), count(l_orderkey) FROM lineitem WHERE l_linenumber = 3`, true, nil},
	{"is_null", `SELECT count(*) FROM lineitem WHERE l_comment_len IS NULL`, true, nil},
	{"is_not_null", `SELECT count(*), sum(l_comment_len) FROM lineitem
		WHERE l_comment_len IS NOT NULL`, true, nil},
	{"is_null_conjunct", `SELECT count(*), sum(l_quantity) FROM lineitem
		WHERE l_comment_len IS NULL AND l_quantity < 25 AND l_returnflag = 'R'`, true, nil},
	{"is_not_null_grouped", `SELECT l_returnflag, count(*), avg(l_comment_len) FROM lineitem
		WHERE l_comment_len IS NOT NULL GROUP BY l_returnflag ORDER BY 1`, true, nil},

	// OR chains of col-vs-const disjuncts compile into selection-vector
	// unions (the PR-10 eligibility widening)
	{"or_filter", `SELECT count(*) FROM lineitem
		WHERE l_returnflag = 'R' OR l_quantity > 30`, true, nil},
	{"or_chain_three", `SELECT count(*), sum(l_quantity) FROM lineitem
		WHERE l_returnflag = 'R' OR l_quantity > 45 OR l_comment_len IS NULL`, true, nil},
	{"or_and_mix", `SELECT count(*) FROM lineitem
		WHERE (l_returnflag = 'A' OR l_returnflag = 'R') AND l_quantity < 25`, true, nil},
	{"or_between_grouped", `SELECT l_linestatus, count(*), avg(l_extendedprice) FROM lineitem
		WHERE l_quantity BETWEEN 5 AND 15 OR l_discount > 0.08
		GROUP BY l_linestatus ORDER BY 1`, true, nil},
	{"or_param", `SELECT count(*) FROM lineitem
		WHERE l_quantity < $1 OR l_orderkey >= $2`, true,
		[]types.Datum{float64(3), int64(950)}},

	// wide GROUP BY keys go through composite dictionary slots
	{"group_by_five_cols", `SELECT l_returnflag, l_linestatus, l_linenumber,
		l_quantity, l_comment_len, count(*) FROM lineitem
		GROUP BY 1, 2, 3, 4, 5 ORDER BY 1, 2, 3, 4, 5`, true, nil},
	{"grouped_topn_agg", `SELECT l_returnflag, l_linestatus, count(*), sum(l_extendedprice)
		FROM lineitem GROUP BY 1, 2 ORDER BY count(*) DESC, 1, 2 LIMIT 3`, true, nil},
	{"grouped_topn_offset", `SELECT l_linenumber, sum(l_quantity) FROM lineitem
		GROUP BY l_linenumber ORDER BY l_linenumber LIMIT 3 OFFSET 2`, true, nil},

	// fallback shapes: must stay on the row path and still agree
	{"fallback_or_like_branch", `SELECT count(*) FROM lineitem
		WHERE l_returnflag LIKE 'R%' OR l_quantity > 30`, false, nil},
	{"fallback_or_col_vs_col", `SELECT count(*) FROM lineitem
		WHERE l_quantity > l_discount OR l_returnflag = 'R'`, false, nil},
	{"fallback_distinct_agg", `SELECT count(DISTINCT l_returnflag) FROM lineitem`, false, nil},
	{"fallback_like", `SELECT count(*) FROM lineitem WHERE l_returnflag LIKE 'R%'`, false, nil},
	{"fallback_group_expr", `SELECT l_orderkey % 2, count(*) FROM lineitem
		GROUP BY l_orderkey % 2 ORDER BY 1`, false, nil},
	{"fallback_agg_cast_arg", `SELECT sum(l_orderkey::float) FROM lineitem`, false, nil},
	{"fallback_is_null_expr", `SELECT count(*) FROM lineitem
		WHERE (l_orderkey % 2) IS NULL`, false, nil},
}

// loadVecGoldenLineitem creates a columnar lineitem subset and fills it
// with deterministic pseudo-random data across several stripes (a
// checkpoint between two transactions cuts one), including NULLs and an
// aborted transaction's segment at the end of the last stripe.
func loadVecGoldenLineitem(t *testing.T, s *Session, rows int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE lineitem (
		l_orderkey bigint,
		l_linenumber bigint,
		l_quantity double precision,
		l_extendedprice double precision,
		l_discount double precision,
		l_returnflag text,
		l_linestatus text,
		l_shipdate timestamp,
		l_comment_len bigint
	) USING columnar`)

	flags := []string{"A", "N", "R"}
	status := []string{"O", "F"}
	seed := uint64(42)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	const batch = 200 // one txn, and one stripe, per batch
	for lo := 0; lo < rows; lo += batch {
		if lo > 0 {
			s.Eng.Checkpoint()
		}
		mustExec(t, s, "BEGIN")
		for i := lo; i < rows && i < lo+batch; i++ {
			day := int(next() % 2500)
			com := "NULL"
			if next()%5 != 0 {
				com = fmt.Sprintf("%d", next()%50)
			}
			q := fmt.Sprintf(
				`INSERT INTO lineitem VALUES (%d, %d, %d.0, %d.%02d, 0.%02d, '%s', '%s', '%s', %s)`,
				i, int(next()%7)+1, int(next()%50)+1,
				int(next()%90000)+1000, int(next()%100), int(next()%11),
				flags[next()%3], status[next()%2],
				fmt.Sprintf("%d-%02d-%02d", 1992+day/365, day%12+1, day%28+1),
				com)
			mustExec(t, s, q)
		}
		mustExec(t, s, "COMMIT")
	}
	// an aborted segment must stay invisible to both paths
	mustExec(t, s, "BEGIN")
	mustExec(t, s, `INSERT INTO lineitem VALUES (999999, 1, 1.0, 1.0, 0.99, 'X', 'X', '2099-01-01', 0)`)
	mustExec(t, s, "ROLLBACK")
}

// datumsClose compares two result datums: identical dynamic type, exact
// for everything but float64, which allows the last-ulp differences a
// parallel partial-sum merge can introduce.
func datumsClose(a, b types.Datum) bool {
	af, aIsF := a.(float64)
	bf, bIsF := b.(float64)
	if aIsF != bIsF {
		return false
	}
	if aIsF {
		if af == bf {
			return true
		}
		diff := math.Abs(af - bf)
		scale := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= 1e-9*scale
	}
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	return types.Compare(a, b) == 0
}

func rowsMatch(t *testing.T, name string, vecRows, rowRows []types.Row) {
	t.Helper()
	if len(vecRows) != len(rowRows) {
		t.Fatalf("%s: vectorized returned %d rows, row path %d", name, len(vecRows), len(rowRows))
	}
	for r := range vecRows {
		if len(vecRows[r]) != len(rowRows[r]) {
			t.Fatalf("%s row %d: width %d vs %d", name, r, len(vecRows[r]), len(rowRows[r]))
		}
		for c := range vecRows[r] {
			if !datumsClose(vecRows[r][c], rowRows[r][c]) {
				t.Fatalf("%s row %d col %d: vectorized=%v (%T) row-path=%v (%T)",
					name, r, c, vecRows[r][c], vecRows[r][c], rowRows[r][c], rowRows[r][c])
			}
		}
	}
}

// TestVectorizedGolden proves the tentpole's correctness claim: every
// query shape returns identical rows through the vectorized and
// row-at-a-time paths, at parallel-scan degree 1 and 3, and routes
// through the intended path (asserted via the vec batch counter).
func TestVectorizedGolden(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadVecGoldenLineitem(t, s, 1000)

	for _, degree := range []int{1, 3} {
		for _, tc := range vecGoldenQueries {
			t.Run(fmt.Sprintf("par%d/%s", degree, tc.name), func(t *testing.T) {
				e.SetFeatures(Features{VecParallelism: degree})
				preQueries := metVecQueries.Value()
				vecRes, err := s.Exec(tc.q, tc.params...)
				if err != nil {
					t.Fatalf("vectorized exec: %v", err)
				}
				gotQueries := metVecQueries.Value() - preQueries
				if tc.vectorizable && gotQueries == 0 {
					t.Errorf("expected the vectorized path, but it never ran")
				}
				if !tc.vectorizable && gotQueries != 0 {
					t.Errorf("expected row-path fallback, but the vectorized path ran")
				}

				e.SetFeatures(Features{NoVectorized: true})
				preQueries = metVecQueries.Value()
				rowRes, err := s.Exec(tc.q, tc.params...)
				if err != nil {
					t.Fatalf("row-path exec: %v", err)
				}
				if d := metVecQueries.Value() - preQueries; d != 0 {
					t.Fatalf("NoVectorized still ran the vectorized path %d times", d)
				}
				rowsMatch(t, tc.name, vecRes.Rows, rowRes.Rows)
			})
		}
	}
	e.SetFeatures(Features{})
}

// TestVectorizedEmptyTable pins the SQL aggregate-over-empty-input rule
// (one row, count 0, NULL sums) on both paths.
func TestVectorizedEmptyTable(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE empty_col (a bigint, b double precision) USING columnar`)
	for _, on := range []bool{true, false} {
		e.SetFeatures(Features{NoVectorized: !on})
		res := mustExec(t, s, `SELECT count(*), sum(a), avg(b), min(a) FROM empty_col`)
		expectRows(t, res, "0|NULL|NULL|NULL")
		res = mustExec(t, s, `SELECT a, count(*) FROM empty_col GROUP BY a`)
		if len(res.Rows) != 0 {
			t.Fatalf("grouped aggregate over empty input returned %d rows", len(res.Rows))
		}
	}
	e.SetFeatures(Features{})
}

// TestVectorizedStripeSkipping asserts the min/max chunk statistics prune
// stripes: a predicate outside every stripe's range reads no chunks.
func TestVectorizedStripeSkipping(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE skiptest (k bigint, v double precision) USING columnar`)
	// three stripes with disjoint key ranges: a checkpoint freezes the stripe
	// a load filled, and the next load starts another
	for stripe := 0; stripe < 3; stripe++ {
		mustExec(t, s, "BEGIN")
		for i := 0; i < 50; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO skiptest VALUES (%d, %d.5)", stripe*1000+i, i))
		}
		mustExec(t, s, "COMMIT")
		e.Checkpoint()
	}
	e.SetFeatures(Features{VecParallelism: 1})
	defer e.SetFeatures(Features{})

	preSkip, preBatch := metVecStripesSkipped.Value(), metVecBatches.Value()
	res := mustExec(t, s, `SELECT count(*) FROM skiptest WHERE k >= 1000 AND k < 1050`)
	expectRows(t, res, "50")
	if skipped := metVecStripesSkipped.Value() - preSkip; skipped != 2 {
		t.Errorf("expected 2 stripes skipped via min/max stats, got %d", skipped)
	}
	if batches := metVecBatches.Value() - preBatch; batches != 1 {
		t.Errorf("expected exactly 1 chunk batch read, got %d", batches)
	}

	// a predicate outside every stripe: all skipped, zero chunk I/O
	preSkip, preBatch = metVecStripesSkipped.Value(), metVecBatches.Value()
	res = mustExec(t, s, `SELECT count(*), sum(v) FROM skiptest WHERE k > 999999`)
	expectRows(t, res, "0|NULL")
	if skipped := metVecStripesSkipped.Value() - preSkip; skipped != 3 {
		t.Errorf("expected all 3 stripes skipped, got %d", skipped)
	}
	if batches := metVecBatches.Value() - preBatch; batches != 0 {
		t.Errorf("fully-skipped scan still read %d batches", batches)
	}
}

// vecTopNGoldenQueries extends the matrix with ORDER BY ... LIMIT over a
// vectorized grouped aggregate. cuts says what the TopN bound pushed into
// the scan must do there: cut rows (the first ORDER BY key is a group
// column), skip whole stripes as well, or stay out (ineligible shape, or
// fewer groups than k).
var vecTopNGoldenQueries = []struct {
	name   string
	q      string
	cuts   bool
	skips  bool
	params []types.Datum
}{
	// l_comment_len is NULL in a fifth of the rows: ascending the NULL
	// group is the first row, descending the NULL rows are cut
	{"asc_null_keys", `SELECT l_comment_len, count(*), sum(l_quantity) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len LIMIT 5`, true, false, nil},
	{"asc_limit_1_null_first", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len LIMIT 1`, true, false, nil},
	{"desc_null_keys", `SELECT l_comment_len, count(*), avg(l_discount) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len DESC LIMIT 5`, true, false, nil},
	{"desc_offset", `SELECT l_comment_len, min(l_shipdate) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len DESC LIMIT 3 OFFSET 4`, true, false, nil},
	{"positional", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY 1 ORDER BY 1 LIMIT 3`, true, false, nil},
	{"param_limit_offset", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len LIMIT $1 OFFSET $2`, true, false,
		[]types.Datum{int64(4), int64(2)}},
	{"filtered", `SELECT l_linenumber, sum(l_extendedprice) FROM lineitem
		WHERE l_quantity < 25 AND l_returnflag <> 'N'
		GROUP BY l_linenumber ORDER BY l_linenumber LIMIT 2`, true, false, nil},
	{"multi_col_all_keys", `SELECT l_comment_len, l_returnflag, count(*) FROM lineitem
		GROUP BY l_comment_len, l_returnflag ORDER BY l_comment_len DESC, l_returnflag LIMIT 7`, true, false, nil},
	{"multi_col_prefix_agg_tiebreak", `SELECT l_comment_len, l_returnflag, count(*) FROM lineitem
		GROUP BY l_comment_len, l_returnflag ORDER BY l_comment_len, count(*) DESC LIMIT 7`, true, false, nil},
	{"second_group_col_first", `SELECT l_returnflag, l_comment_len, sum(l_quantity) FROM lineitem
		GROUP BY l_returnflag, l_comment_len ORDER BY l_comment_len DESC, l_returnflag LIMIT 6`, true, false, nil},
	{"hidden_order_key", `SELECT count(*), sum(l_quantity) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len DESC LIMIT 4`, true, false, nil},
	{"timestamp_key", `SELECT l_shipdate, count(*) FROM lineitem
		GROUP BY l_shipdate ORDER BY l_shipdate DESC LIMIT 10`, true, false, nil},
	{"text_key", `SELECT l_returnflag, count(*) FROM lineitem
		GROUP BY l_returnflag ORDER BY l_returnflag LIMIT 2`, true, false, nil},
	// l_orderkey rises with the load order, so later stripes start behind
	// the bound and are never read
	{"stripe_skip", `SELECT l_orderkey, sum(l_quantity) FROM lineitem
		GROUP BY l_orderkey ORDER BY l_orderkey LIMIT 5`, true, true, nil},

	{"k_exceeds_groups", `SELECT l_returnflag, l_linestatus, count(*) FROM lineitem
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag DESC, l_linestatus LIMIT 50`, false, false, nil},
	{"limit_zero", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len LIMIT 0`, false, false, nil},
	{"limit_null", `SELECT l_linenumber, count(*) FROM lineitem
		GROUP BY l_linenumber ORDER BY l_linenumber LIMIT NULL`, false, false, nil},
	{"having_blocks", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len HAVING count(*) > 14 ORDER BY l_comment_len LIMIT 5`, false, false, nil},
	{"aggregate_first_blocks", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len ORDER BY count(*) DESC, l_comment_len LIMIT 5`, false, false, nil},
	{"expression_key_blocks", `SELECT l_comment_len, count(*) FROM lineitem
		GROUP BY l_comment_len ORDER BY l_comment_len % 7, l_comment_len LIMIT 5`, false, false, nil},
	{"distinct_blocks", `SELECT DISTINCT l_linestatus, count(*) FROM lineitem
		GROUP BY l_linestatus, l_returnflag ORDER BY l_linestatus LIMIT 1`, false, false, nil},
	{"float_key_blocks", `SELECT l_quantity, count(*) FROM lineitem
		GROUP BY l_quantity ORDER BY l_quantity LIMIT 5`, false, false, nil},
}

// TestVectorizedTopNBoundGolden: with the TopN bound pushed into the
// grouped scan, every shape returns the rows of the row-at-a-time path at
// parallel degree 1 and 3, and the bound's counters move exactly where the
// shape is eligible.
func TestVectorizedTopNBoundGolden(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadVecGoldenLineitem(t, s, 1000)
	defer e.SetFeatures(Features{})

	for _, degree := range []int{1, 3} {
		for _, tc := range vecTopNGoldenQueries {
			t.Run(fmt.Sprintf("par%d/%s", degree, tc.name), func(t *testing.T) {
				e.SetFeatures(Features{VecParallelism: degree})
				preQueries := metVecQueries.Value()
				preRows, preStripes := metVecTopNBoundRows.Value(), metVecTopNBoundStripes.Value()
				vecRes, err := s.Exec(tc.q, tc.params...)
				if err != nil {
					t.Fatalf("vectorized exec: %v", err)
				}
				if metVecQueries.Value() == preQueries {
					t.Errorf("expected the vectorized path, but it never ran")
				}
				cutRows := metVecTopNBoundRows.Value() - preRows
				skipped := metVecTopNBoundStripes.Value() - preStripes
				if tc.cuts != (cutRows > 0) {
					t.Errorf("bound cut %d rows, want cuts=%v", cutRows, tc.cuts)
				}
				if tc.skips != (skipped > 0) {
					t.Errorf("bound skipped %d stripes, want skips=%v", skipped, tc.skips)
				}

				e.SetFeatures(Features{NoVectorized: true})
				rowRes, err := s.Exec(tc.q, tc.params...)
				if err != nil {
					t.Fatalf("row-path exec: %v", err)
				}
				rowsMatch(t, tc.name, vecRes.Rows, rowRes.Rows)
			})
		}
	}
}

// TestVectorizedTopNBoundExplain pins the EXPLAIN line of a bounded scan.
func TestVectorizedTopNBoundExplain(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE ex (part bigint, qty double precision) USING columnar`)
	expectRows(t, mustExec(t, s, `EXPLAIN SELECT part, sum(qty) FROM ex
		GROUP BY part ORDER BY part DESC LIMIT 10 OFFSET 5`), `
TopN
  Project
    Vectorized HashAggregate
      TopN bound: part DESC k=15
      Vectorized Columnar Scan on ex`)
	// k is unknown until a parameterised LIMIT is bound
	expectRows(t, mustExec(t, s, `EXPLAIN SELECT part, sum(qty) FROM ex
		GROUP BY part ORDER BY part LIMIT $1`, int64(3)), `
TopN
  Project
    Vectorized HashAggregate
      TopN bound: part ASC k=?
      Vectorized Columnar Scan on ex`)
	// a float key is never bounded
	expectRows(t, mustExec(t, s, `EXPLAIN SELECT qty, count(*) FROM ex
		GROUP BY qty ORDER BY qty LIMIT 3`), `
TopN
  Project
    Vectorized HashAggregate
      Vectorized Columnar Scan on ex`)
	// nor is a scan whose aggregate argument can fail on a row
	expectRows(t, mustExec(t, s, `EXPLAIN SELECT part, sum(10 / part) FROM ex
		GROUP BY part ORDER BY part LIMIT 3`), `
TopN
  Project
    Vectorized HashAggregate
      Vectorized Columnar Scan on ex`)
}

// TestVectorizedTopNBoundKeepsRowErrors: a division by zero in a row of a
// group far behind the top k still fails the query on both paths — the
// bound, which would cut that row before its argument is evaluated, is
// declined for aggregate arguments that can fail.
func TestVectorizedTopNBoundKeepsRowErrors(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE zz (k bigint, x bigint) USING columnar`)
	for k := 0; k < 50; k++ {
		x := 1
		if k == 40 {
			x = 0
		}
		mustExec(t, s, fmt.Sprintf(`INSERT INTO zz VALUES (%d, %d)`, k, x))
	}
	defer e.SetFeatures(Features{})
	for _, q := range []string{
		`SELECT k, sum(10 / x) FROM zz GROUP BY k ORDER BY k LIMIT 2`,
		`SELECT k, sum(1 + k % x) FROM zz GROUP BY k ORDER BY k LIMIT 2`,
	} {
		for _, vectorized := range []bool{true, false} {
			e.SetFeatures(Features{NoVectorized: !vectorized})
			if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("%s (vectorized=%v): err %v, want division by zero", q, vectorized, err)
			}
		}
	}
}

// TestTimestampLiteralMidnight is the regression test for comparing a
// timestamp column with a bare date literal: as text, midnight
// ("1994-01-01 00:00:00") sorted after "1994-01-01"; typed, they are equal.
// The columnar table answers through the vectorized and the row-at-a-time
// path, the heap table through a sequential scan and a btree range.
func TestTimestampLiteralMidnight(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE ev_col (id bigint, ts timestamp) USING columnar`)
	mustExec(t, s, `CREATE TABLE ev_heap (id bigint PRIMARY KEY, ts timestamp)`)
	mustExec(t, s, `CREATE TABLE ev_idx (id bigint PRIMARY KEY, ts timestamp)`)
	mustExec(t, s, `CREATE INDEX ev_idx_ts ON ev_idx (ts)`)
	for i, ts := range []string{"1993-12-31 23:59:59", "1994-01-01", "1994-01-01 00:00:01", "1994-01-02 00:00:00"} {
		for _, tab := range []string{"ev_col", "ev_heap", "ev_idx"} {
			mustExec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, '%s')`, tab, i, ts))
		}
	}
	defer e.SetFeatures(Features{})
	for _, tc := range []struct {
		where string
		want  string
	}{
		{"ts > '1994-01-01'", "2"},
		{"ts >= '1994-01-01'", "3"},
		{"ts <= '1994-01-01'", "2"},
		{"ts < '1994-01-01'", "1"},
		{"ts = '1994-01-01'", "1"},
		{"'1994-01-01' < ts", "2"},
		{"ts BETWEEN '1994-01-01' AND '1994-01-02'", "3"},
		{"ts > '1994-01-01' OR ts = '1993-12-31 23:59:59'", "3"},
	} {
		for _, vectorized := range []bool{true, false} {
			e.SetFeatures(Features{NoVectorized: !vectorized})
			for _, tab := range []string{"ev_col", "ev_heap", "ev_idx"} {
				res := mustExec(t, s, fmt.Sprintf(`SELECT count(*) FROM %s WHERE %s`, tab, tc.where))
				if got := strings.TrimSpace(rowsToString(res.Rows)); got != tc.want {
					t.Errorf("%s WHERE %s (vectorized=%v): count %s, want %s", tab, tc.where, vectorized, got, tc.want)
				}
			}
		}
	}
}

// loadVecJoinTables creates the row-store Q3 tables — customer, orders,
// lineitem_row, the benchmark's q_join schema — and fills them from a
// deterministic generator: the orders outnumber the customers of one market
// segment, and the lineitems outnumber the orders a customer ⋈ orders join
// leaves, so each of Q3's two joins has its smaller input on the left.
func loadVecJoinTables(tb testing.TB, s *Session, customers, orders int) {
	tb.Helper()
	exec := func(q string) {
		if _, err := s.Exec(q); err != nil {
			tb.Fatalf("exec %q: %v", q, err)
		}
	}
	exec(`CREATE TABLE customer (c_custkey bigint PRIMARY KEY, c_mktsegment text)`)
	exec(`CREATE TABLE orders (o_orderkey bigint PRIMARY KEY, o_custkey bigint,
		o_orderdate timestamp, o_shippriority bigint)`)
	exec(`CREATE TABLE lineitem_row (l_orderkey bigint, l_linenumber bigint,
		l_extendedprice double precision, l_discount double precision, l_shipdate timestamp,
		PRIMARY KEY (l_orderkey, l_linenumber))`)
	seed := uint64(11)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	day := func(d int) string { return fmt.Sprintf("%d-%02d-%02d", 1992+d/336, d/28%12+1, d%28+1) }
	exec("BEGIN")
	for c := 1; c <= customers; c++ {
		exec(fmt.Sprintf(`INSERT INTO customer VALUES (%d, '%s')`, c, segments[next()%5]))
	}
	for o := 1; o <= orders; o++ {
		d := int(next() % (4 * 336))
		exec(fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, '%s', 0)`, o, 1+next()%uint64(customers), day(d)))
		for l, n := 1, 1+int(next()%7); l <= n; l++ {
			exec(fmt.Sprintf(`INSERT INTO lineitem_row VALUES (%d, %d, %d.%02d, 0.%02d, '%s')`,
				o, l, 900+next()%50000, next()%100, next()%11, day(d+1+int(next()%120))))
		}
	}
	exec("COMMIT")
}

const vecJoinQ3 = `SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate, o_shippriority
	FROM customer, orders, lineitem_row
	WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
	AND o_orderdate < '1995-03-15'::timestamp AND l_shipdate > '1995-03-15'::timestamp
	GROUP BY l_orderkey, o_orderdate, o_shippriority
	ORDER BY revenue DESC, o_orderdate LIMIT 10`

// vecJoinQueries must run through the vectorized join — or, marked so, fall
// back — and answer as the row path does, row for row: the join hands its
// matches on in the row path's order.
var vecJoinQueries = []struct {
	name, q      string
	vectorizable bool
}{
	{"q3", vecJoinQ3, true},
	{"q3_no_limit", `SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)), o_orderdate
		FROM customer, orders, lineitem_row
		WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
		AND l_shipdate > '1995-03-15' GROUP BY l_orderkey, o_orderdate`, true},
	{"explicit_join_on_filter", `SELECT o_custkey, count(*), min(l_shipdate), max(l_extendedprice)
		FROM orders JOIN lineitem_row ON o_orderkey = l_orderkey AND l_discount < 0.05
		WHERE o_orderdate >= '1994-01-01' GROUP BY o_custkey`, true},
	{"smaller_input_on_the_right", `SELECT o_custkey, count(*), sum(l_extendedprice) FROM lineitem_row, orders
		WHERE l_orderkey = o_orderkey AND o_orderdate < '1993-01-01' GROUP BY o_custkey`, true},
	{"ungrouped", `SELECT count(*), sum(l_extendedprice), avg(l_discount) FROM orders, lineitem_row
		WHERE o_orderkey = l_orderkey AND o_custkey < 40`, true},
	{"two_keys", `SELECT a.l_linenumber, count(*) FROM lineitem_row a JOIN lineitem_row b
		ON a.l_orderkey = b.l_orderkey AND a.l_linenumber = b.l_linenumber GROUP BY a.l_linenumber`, true},
	{"duplicate_keys_both_sides", `SELECT a.l_linenumber, b.l_linenumber, count(*), sum(a.l_discount)
		FROM lineitem_row a, lineitem_row b WHERE a.l_orderkey = b.l_orderkey AND a.l_discount < 0.03
		GROUP BY a.l_linenumber, b.l_linenumber`, true},
	{"residual_or_across_sides", `SELECT count(*), sum(l_discount) FROM orders JOIN lineitem_row
		ON o_orderkey = l_orderkey AND (o_custkey < 10 OR l_discount > 0.08)`, true},
	{"where_or_across_sides", `SELECT count(*) FROM orders, lineitem_row
		WHERE o_orderkey = l_orderkey AND (o_custkey = 3 OR l_linenumber = 1)`, true},
	{"empty_side", `SELECT count(*), sum(l_discount) FROM orders, lineitem_row
		WHERE o_orderkey = l_orderkey AND o_custkey < 0`, true},
	{"heap_scan_alone", `SELECT l_linenumber, count(*), sum(l_extendedprice * l_discount) FROM lineitem_row
		WHERE l_shipdate > '1995-03-15' GROUP BY l_linenumber`, true},
	{"heap_or_selects_nothing", `SELECT count(*), sum(l_discount) FROM lineitem_row
		WHERE l_linenumber = 98 OR l_linenumber = 99`, true},

	{"fallback_left_join", `SELECT count(*), count(l_orderkey) FROM orders LEFT JOIN lineitem_row
		ON o_orderkey = l_orderkey AND l_discount > 0.09`, false},
	{"fallback_expression_key", `SELECT count(*) FROM orders, lineitem_row WHERE o_orderkey + 1 = l_orderkey`, false},
	{"fallback_non_equi", `SELECT count(*) FROM orders, customer WHERE o_custkey < c_custkey AND o_orderkey < 20`, false},
	{"fallback_col_vs_col_residual", `SELECT count(*) FROM orders JOIN lineitem_row
		ON o_orderkey = l_orderkey AND l_shipdate > o_orderdate`, false},
	{"fallback_key_types_differ", `SELECT count(*) FROM orders, lineitem_row WHERE o_orderkey = l_discount`, false},
	{"fallback_index_scan_side", `SELECT count(*) FROM orders, lineitem_row
		WHERE o_orderkey = l_orderkey AND o_orderkey = 7`, false},
}

// vecWork reads the four work counters of the vectorized path outside
// columnar storage.
func vecWork() [4]int64 {
	return [4]int64{metHeapVecBatches.Value(), metHeapVecRows.Value(),
		metVecJoinBuildRows.Value(), metVecJoinProbeRows.Value()}
}

func TestVectorizedJoinGolden(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadVecJoinTables(t, s, 120, 750)
	defer e.SetFeatures(Features{})
	for _, tc := range vecJoinQueries {
		t.Run(tc.name, func(t *testing.T) {
			e.SetFeatures(Features{})
			before := vecWork()
			vecRes := mustExec(t, s, tc.q)
			if ran := vecWork() != before; ran != tc.vectorizable {
				t.Errorf("vectorized path ran: %v, want %v", ran, tc.vectorizable)
			}
			e.SetFeatures(Features{NoVectorized: true})
			before = vecWork()
			rowRes := mustExec(t, s, tc.q)
			if vecWork() != before {
				t.Errorf("NoVectorized still moved the vectorized counters")
			}
			rowsMatch(t, tc.name, vecRes.Rows, rowRes.Rows)
		})
	}
}

// TestVectorizedHeapDeclinesUnderSerializable: a SERIALIZABLE transaction's
// sequential scan of a heap table checks every tuple version, visible or not,
// against concurrent writers, and its GIN scan every candidate's, which the
// batched scans do not do — so its aggregates are planned row at a time, and
// go back to the vectorized path when the session leaves SERIALIZABLE.
func TestVectorizedHeapDeclinesUnderSerializable(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadVecJoinTables(t, s, 120, 750)
	loadPushEvents(t, s, 200, true)
	ran := func(q string) bool {
		heapBefore, ginBefore := vecWork(), ginWork()
		mustExec(t, s, q)
		return vecWork() != heapBefore || ginWork() != ginBefore
	}
	const heapAgg = `SELECT count(*), sum(l_discount) FROM lineitem_row WHERE l_linenumber < 3`
	if !ran(heapAgg) || !ran(vecJoinQ3) || !ran(dashboardSQL) {
		t.Fatal("READ COMMITTED: the heap aggregates did not run vectorized")
	}
	mustExec(t, s, `SET transaction_isolation = 'serializable'`)
	if ran(heapAgg) || ran(vecJoinQ3) || ran(dashboardSQL) {
		t.Error("SERIALIZABLE: a heap aggregate ran through a batched scan")
	}
	expectRows(t, mustExec(t, s, "EXPLAIN "+heapAgg), `
Project
  Aggregate
    Seq Scan on lineitem_row (filtered)`)
	expectRows(t, mustExec(t, s, "EXPLAIN "+dashboardSQL), `
Sort
  Project
    HashAggregate
      Bitmap Heap Scan on github_events
        -> Bitmap Index Scan using text_search_idx (trigram)`)
	mustExec(t, s, `SET transaction_isolation = 'read committed'`)
	if !ran(heapAgg) || !ran(dashboardSQL) {
		t.Error("back at READ COMMITTED a heap aggregate stayed on the row path")
	}
}

// TestGINSourceChargesWhatGINScanCharges: the vectorized dashboard reads the
// trigram index's candidates through the buffer pool exactly as the
// row-at-a-time Bitmap Heap Scan does — one access a candidate, hit for hit
// and miss for miss with the cache a few pages short — and counts every
// candidate, and every one the recheck let through, under the GIN scan's own
// counters.
func TestGINSourceChargesWhatGINScanCharges(t *testing.T) {
	const countSQL = `SELECT count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%'`
	var charged [2][2]int64
	var answers [2]string
	for i, vectorized := range []bool{false, true} {
		e := newTestEngine(t)
		s := e.NewSession()
		loadPushEvents(t, s, 2000, true)
		mustExec(t, s, `DELETE FROM github_events WHERE event_id < 'evt-000000000100'`)
		e.SetFeatures(Features{NoVectorized: !vectorized})
		candidates := int64(len(search(t, ginOf(t, e, "github_events"), "%postgres%")))
		passed := mustExec(t, s, countSQL).Rows[0][0].(int64)
		if passed == 0 || passed >= candidates {
			t.Fatalf("%d of %d candidates pass the recheck: the deleted ones must not", passed, candidates)
		}
		e.Pool.SetCapacity(8)
		e.Pool.SetIOLatency(0, 1) // count, do not sleep
		hits, misses := e.Pool.Stats()
		before := ginWork()
		answers[i] = rowsToString(mustExec(t, s, dashboardSQL).Rows)
		hitsAfter, missesAfter := e.Pool.Stats()
		charged[i] = [2]int64{hitsAfter - hits, missesAfter - misses}
		if got := charged[i][0] + charged[i][1]; got != candidates {
			t.Errorf("vectorized=%v: %d page accesses for %d candidates", vectorized, got, candidates)
		}
		want := [2]int64{}
		if vectorized {
			want = [2]int64{candidates, passed}
		}
		if after := ginWork(); [2]int64{after[0] - before[0], after[1] - before[1]} != want {
			t.Errorf("vectorized=%v: gin_vec counters moved by %d candidates and %d rows, want %v",
				vectorized, after[0]-before[0], after[1]-before[1], want)
		}
	}
	if charged[0] != charged[1] || charged[0][1] == 0 {
		t.Errorf("(hits, misses): row at a time %v, vectorized %v", charged[0], charged[1])
	}
	if answers[0] != answers[1] {
		t.Errorf("row at a time:\n%s\nvectorized:\n%s", answers[0], answers[1])
	}
}

// TestVectorizedJoinExplain pins the plan of Q3 and what EXPLAIN ANALYZE says
// of its execution: each join built on its smaller input, which here is the
// left one both times — the side the row path's join probes with.
func TestVectorizedJoinExplain(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadVecJoinTables(t, s, 120, 750)
	const plan = `
TopN
  Project
    Vectorized HashAggregate
      Vectorized Hash Join (o_orderkey = l_orderkey; build: smaller input)
        Vectorized Hash Join (c_custkey = o_custkey; build: smaller input)
          Vectorized Heap Scan on customer (filter: (c_mktsegment = 'BUILDING'))
          Vectorized Heap Scan on orders (filter: (o_orderdate < ('1995-03-15')::timestamp))
        Vectorized Heap Scan on lineitem_row (filter: (l_shipdate > ('1995-03-15')::timestamp))`
	expectRows(t, mustExec(t, s, "EXPLAIN "+vecJoinQ3), plan)

	before := vecWork()
	res := mustExec(t, s, "EXPLAIN ANALYZE "+vecJoinQ3)
	got := regexp.MustCompile(`Execution Time: .*`).ReplaceAllString(rowsToString(res.Rows), "Execution Time:")
	want := strings.TrimSpace(plan) + `
Vectorized Hash Join (c_custkey = o_custkey): built on the left input, 25 rows; probed with 603 rows; 134 matches
Vectorized Hash Join (o_orderkey = l_orderkey): built on the left input, 134 rows; probed with 733 rows; 39 matches
Actual Rows: 10
Execution Time:`
	if strings.TrimSpace(got) != want {
		t.Fatalf("EXPLAIN ANALYZE:\n%s\nwant:\n%s", got, want)
	}
	after := vecWork()
	if build, probe := after[2]-before[2], after[3]-before[3]; build != 25+134 || probe != 603+733 {
		t.Errorf("join counters moved by build %d, probe %d; want %d and %d", build, probe, 25+134, 603+733)
	}
	if rows := after[1] - before[1]; rows != 120+750+int64(e.TableRows("lineitem_row")) {
		t.Errorf("heap_vec_rows_total moved by %d, want every row of the three tables", rows)
	}
}

// BenchmarkVectorizedJoinQ3 runs Q3 over tables the size of one shard of the
// repo benchmark's q_join (1 200 customers, 750 orders, ~3 000 lineitems; a
// 16th of analytics_fanout's), row at a time and vectorized: the worker's
// share of a q_join task, without the wire and the coordinator around it.
func BenchmarkVectorizedJoinQ3(b *testing.B) {
	e := New(Config{Name: "bench"})
	defer e.Close()
	s := e.NewSession()
	loadVecJoinTables(b, s, 1200, 750)
	for _, vectorized := range []bool{false, true} {
		b.Run(fmt.Sprintf("vectorized=%v", vectorized), func(b *testing.B) {
			e.SetFeatures(Features{NoVectorized: !vectorized})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(vecJoinQ3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pushEvents generates n GitHub push events of the shape the repo benchmark's
// ingest_live COPYs (benchmark/ingest.go): one to four commits of three to
// eight words, "postgres" one word in 28, a created_at within seven days.
func pushEvents(seed int64, from, n int) []types.Row {
	words := []string{
		"fix", "bug", "add", "feature", "update", "docs", "refactor", "test",
		"remove", "improve", "cleanup", "merge", "branch", "release", "version",
		"postgres", "index", "query", "cache", "api", "server", "client",
		"support", "error", "handling", "performance", "initial", "commit",
	}
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]types.Row, n)
	for i := range rows {
		commits := make([]any, 1+rng.Intn(4))
		for c := range commits {
			msg := make([]string, 3+rng.Intn(6))
			for w := range msg {
				msg[w] = words[rng.Intn(len(words))]
			}
			commits[c] = map[string]any{
				"sha":     fmt.Sprintf("%08x%08x", rng.Uint32(), rng.Uint32()),
				"message": strings.Join(msg, " "),
				"author":  map[string]any{"name": fmt.Sprint("user", rng.Intn(1000))},
			}
		}
		ts := base.Add(time.Duration(rng.Intn(7*24*3600)) * time.Second)
		rows[i] = types.Row{fmt.Sprintf("evt-%012d", from+i), jsonb.FromGo(map[string]any{
			"type":       "PushEvent",
			"created_at": ts.Format(time.RFC3339),
			"actor":      map[string]any{"login": fmt.Sprint("user", rng.Intn(1000))},
			"repo":       map[string]any{"name": fmt.Sprint("org/repo", rng.Intn(200))},
			"payload":    map[string]any{"push_id": from + i, "commits": commits},
		})}
	}
	return rows
}

const (
	pushEventsDDL   = `CREATE TABLE github_events (event_id text PRIMARY KEY, data jsonb)`
	pushEventsIndex = `CREATE INDEX text_search_idx ON github_events USING gin
		((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) gin_trgm_ops)`
	// the §4.2 dashboard, as ingest_live sends it
	dashboardSQL = `SELECT (data->>'created_at')::date,
		sum(jsonb_array_length(data->'payload'->'commits'))
		FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%'
		GROUP BY 1 ORDER BY 1 ASC`
)

// loadPushEvents creates github_events, with its trigram index or without,
// and COPYs n generated events into it.
func loadPushEvents(tb testing.TB, s *Session, n int, indexed bool) {
	tb.Helper()
	ddl := []string{pushEventsDDL}
	if indexed {
		ddl = append(ddl, pushEventsIndex)
	}
	for _, q := range ddl {
		if _, err := s.Exec(q); err != nil {
			tb.Fatalf("exec %q: %v", q, err)
		}
	}
	if _, err := s.CopyFrom("github_events", nil, pushEvents(1, 0, n)); err != nil {
		tb.Fatal(err)
	}
}

// ginWork reads the two work counters of the vectorized GIN scan.
func ginWork() [2]int64 { return [2]int64{metGinVecCandidates.Value(), metGinVecRows.Value()} }

// vecDerivedQueries are aggregates over github_events whose group keys,
// arguments and LIKE filters are derived columns — or, marked so, something
// next to them that the compile step declines. With the trigram index they
// scan its candidates when their WHERE clause has a pattern it can search.
var vecDerivedQueries = []struct {
	name, q      string
	vectorizable bool
	viaGIN       bool // with the index in place
}{
	{"dashboard", dashboardSQL, true, true},
	{"dashboard_not_ilike", `SELECT (data->>'created_at')::date, count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text NOT ILIKE '%postgres%'
		GROUP BY 1 ORDER BY 1`, true, false},
	{"like_is_case_sensitive", `SELECT count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text LIKE '%Postgres%'`, true, true},
	{"short_pattern_scans_the_heap", `SELECT count(*), sum(jsonb_array_length(data->'payload'->'commits'))
		FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%pg%'`, true, false},
	{"inner_wildcards", `SELECT count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%fix%postgres_in%'`, true, true},
	{"parameter_pattern", `SELECT count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%' || 'index' || '%'`, true, true},
	{"two_likes_and_a_column_filter", `SELECT data->'repo'->>'name', count(*) FROM github_events
		WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%'
		AND data->'actor'->>'login' LIKE 'user1%' AND event_id <> 'evt-000000000100'
		GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 5`, true, true},
	{"text_key_and_timestamp_minmax", `SELECT data->>'type', min((data->>'created_at')::timestamp),
		max((data->>'created_at')::timestamp), count(data->'payload'->>'push_id') FROM github_events GROUP BY 1`, true, false},
	{"numeric_expression_over_derived_leaves", `SELECT sum(jsonb_array_length(data->'payload'->'commits') * 2 + 1),
		avg((data->'payload'->>'push_id')::bigint), max((data->'payload'->>'push_id')::double precision / 4)
		FROM github_events WHERE event_id <> 'evt-000000000300'`, true, false},
	{"array_index_steps", `SELECT data->'payload'->'commits'->0->'author'->>'name', count(*),
		min(data->'payload'->'commits'->1->>'sha') FROM github_events GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 3`, true, false},
	{"missing_keys_are_null", `SELECT data->'nowhere'->>'x', count(*), count(jsonb_array_length(data->'nowhere')),
		sum((data->>'nothing')::bigint) FROM github_events GROUP BY 1`, true, false},
	{"length_as_text_and_float", `SELECT jsonb_array_length(data->'payload'->'commits')::text,
		sum(jsonb_array_length(data->'payload'->'commits')::double precision) FROM github_events GROUP BY 1 ORDER BY 1`, true, false},

	{"fallback_jsonb_key", `SELECT data->'repo', count(*) FROM github_events GROUP BY 1 ORDER BY 2 DESC LIMIT 2`, false, false},
	{"fallback_parameter_key", `SELECT data->>$1, count(*) FROM github_events GROUP BY 1`, false, false},
	{"fallback_contains", `SELECT count(*) FROM github_events WHERE data @> '{"type": "PushEvent"}'::jsonb`, false, false},
	{"fallback_case_key", `SELECT CASE WHEN data->>'type' = 'PushEvent' THEN 1 ELSE 0 END, count(*)
		FROM github_events GROUP BY 1`, false, false},
	{"fallback_like_on_a_column", `SELECT count(*) FROM github_events WHERE event_id LIKE 'evt-0000000001%'`, false, false},
	{"fallback_like_in_or", `SELECT count(*) FROM github_events
		WHERE data->>'type' LIKE 'Pull%' OR event_id < 'evt-000000000010'`, false, false},
	{"fallback_path_without_text_cast", `SELECT jsonb_array_length(jsonb_path_query_array(data, '$.payload.commits[*].sha')), count(*)
		FROM github_events GROUP BY 1`, false, false},
	{"fallback_length_as_date", `SELECT count(jsonb_array_length(data->'nowhere')::date) FROM github_events`, false, false},
}

// TestVectorizedDerivedGolden: every query answers as the row path does, row
// for row, over the table with its trigram index and without; it runs through
// the path the table says; and with the index, the vectorized scan sees
// exactly the index's candidates.
func TestVectorizedDerivedGolden(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		e := newTestEngine(t)
		s := e.NewSession()
		loadPushEvents(t, s, 1500, indexed)
		// versions the scans must not see: deleted, and rolled back
		mustExec(t, s, `DELETE FROM github_events WHERE event_id < 'evt-000000000040'`)
		mustExec(t, s, "BEGIN")
		if _, err := s.CopyFrom("github_events", nil, pushEvents(9, 5000, 50)); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "ROLLBACK")
		for _, tc := range vecDerivedQueries {
			t.Run(fmt.Sprintf("indexed=%v/%s", indexed, tc.name), func(t *testing.T) {
				var params []types.Datum
				if strings.Contains(tc.q, "$1") {
					params = []types.Datum{"type"}
				}
				e.SetFeatures(Features{})
				defer e.SetFeatures(Features{})
				heapBefore, ginBefore := vecWork(), ginWork()
				vecRes := mustExec(t, s, tc.q, params...)
				viaGIN := ginWork() != ginBefore
				if ran := viaGIN || vecWork() != heapBefore; ran != tc.vectorizable {
					t.Errorf("vectorized path ran: %v, want %v", ran, tc.vectorizable)
				}
				if want := indexed && tc.viaGIN; viaGIN != want {
					t.Errorf("scanned GIN candidates: %v, want %v", viaGIN, want)
				}
				if viaGIN && vecWork() != heapBefore {
					t.Errorf("a GIN scan moved the heap_vec counters")
				}
				e.SetFeatures(Features{NoVectorized: true})
				heapBefore, ginBefore = vecWork(), ginWork()
				rowRes := mustExec(t, s, tc.q, params...)
				if vecWork() != heapBefore || ginWork() != ginBefore {
					t.Errorf("NoVectorized still moved the vectorized counters")
				}
				if len(rowRes.Rows) == 0 {
					t.Fatal("the query selects nothing: it compares nothing")
				}
				rowsMatch(t, tc.name, vecRes.Rows, rowRes.Rows)
			})
		}
	}
}

// TestVectorizedDerivedErrors: a cast or a jsonb_array_length that fails on a
// row fails the query exactly when the WHERE clause keeps that row, with the
// row path's error, and not at all when it drops it.
func TestVectorizedDerivedErrors(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE docs (id bigint PRIMARY KEY, data jsonb)`)
	mustExec(t, s, `INSERT INTO docs (id, data) VALUES
		(1, '{"at": "2024-03-01T10:00:00Z", "n": "7", "list": [1, 2], "msg": "keep"}'),
		(2, '{"at": "2024-03-01T23:30:00+02:00", "n": " 8 ", "list": [], "msg": "keep"}'),
		(3, '{"at": "yesterday", "n": "nine", "list": {"not": "an array"}, "msg": "drop"}'),
		(4, '{"at": null, "n": null, "list": null, "msg": "drop"}'),
		(5, NULL)`)
	defer e.SetFeatures(Features{})
	for _, tc := range []struct{ sel, wantErr string }{
		{`(data->>'at')::date, count(*)`, `invalid timestamp: "yesterday"`},
		{`count((data->>'at')::timestamp)`, `invalid timestamp: "yesterday"`},
		{`sum((data->>'n')::bigint)`, `invalid input for bigint: "nine"`},
		{`sum((data->>'n')::double precision + 1)`, `invalid input for double precision: "nine"`},
		{`sum(jsonb_array_length(data->'list'))`, `cannot get array length of a non-array`},
	} {
		groupBy := ""
		if strings.Contains(tc.sel, ", ") {
			groupBy = " GROUP BY 1 ORDER BY 1"
		}
		kept := `SELECT ` + tc.sel + ` FROM docs` + groupBy
		dropped := `SELECT ` + tc.sel + ` FROM docs WHERE data->>'msg' LIKE 'keep'` + groupBy
		var results [2]*Result
		for i, vectorized := range []bool{true, false} {
			e.SetFeatures(Features{NoVectorized: !vectorized})
			before := vecWork()
			if _, err := s.Exec(kept); err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s (vectorized=%v): error %v, want %s", kept, vectorized, err, tc.wantErr)
			}
			res, err := s.Exec(dropped)
			if err != nil {
				t.Fatalf("%s (vectorized=%v): %v", dropped, vectorized, err)
			}
			if ran := vecWork() != before; ran != vectorized {
				t.Errorf("%s (vectorized=%v): vectorized path ran: %v", tc.sel, vectorized, ran)
			}
			results[i] = res
		}
		rowsMatch(t, dropped, results[0].Rows, results[1].Rows)
	}
	// row 2's 23:30 at +02:00 is 21:30 UTC of the same day: the kept rows are one group
	e.SetFeatures(Features{})
	expectRows(t, mustExec(t, s, `SELECT (data->>'at')::date, sum((data->>'n')::bigint), sum(jsonb_array_length(data->'list'))
		FROM docs WHERE data->>'msg' LIKE 'keep' GROUP BY 1`), "2024-03-01 00:00:00|15|2")
}

// TestVectorizedDashboardExplain pins the plan of the dashboard over the
// trigram index, and that a table without one scans its heap.
func TestVectorizedDashboardExplain(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	loadPushEvents(t, s, 10, true)
	expectRows(t, mustExec(t, s, "EXPLAIN "+dashboardSQL), `
Sort
  Project
    Vectorized HashAggregate (derived keys: ((data ->> 'created_at'))::date)
      Vectorized Bitmap Heap Scan on github_events (recheck: ((jsonb_path_query_array(data, '$.payload.commits[*].message'))::text ILIKE '%postgres%'))
        -> Bitmap Index Scan using text_search_idx (trigram)`)
	mustExec(t, s, `CREATE TABLE plain_events (event_id text PRIMARY KEY, data jsonb)`)
	expectRows(t, mustExec(t, s, "EXPLAIN "+strings.Replace(dashboardSQL, "github_events", "plain_events", 1)), `
Sort
  Project
    Vectorized HashAggregate (derived keys: ((data ->> 'created_at'))::date)
      Vectorized Heap Scan on plain_events (filter: ((jsonb_path_query_array(data, '$.payload.commits[*].message'))::text ILIKE '%postgres%'))`)
	e.SetFeatures(Features{NoVectorized: true})
	defer e.SetFeatures(Features{})
	expectRows(t, mustExec(t, s, "EXPLAIN "+dashboardSQL), `
Sort
  Project
    HashAggregate
      Bitmap Heap Scan on github_events
        -> Bitmap Index Scan using text_search_idx (trigram)`)
}

// BenchmarkVectorizedDashboard runs the §4.2 dashboard over one shard's worth
// of ingest_live's events at the schedule's cap (100 000 events over 16
// shards: 6 250, ~39 % of which mention postgres), through the trigram index,
// row at a time and vectorized: the worker's share of a dashboard task.
func BenchmarkVectorizedDashboard(b *testing.B) {
	e := New(Config{Name: "bench"})
	defer e.Close()
	s := e.NewSession()
	loadPushEvents(b, s, 6250, true)
	for _, vectorized := range []bool{false, true} {
		b.Run(fmt.Sprintf("vectorized=%v", vectorized), func(b *testing.B) {
			e.SetFeatures(Features{NoVectorized: !vectorized})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(dashboardSQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
