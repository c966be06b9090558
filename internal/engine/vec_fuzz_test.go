package engine

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzVecParity generates random columnar tables and random aggregate
// queries — predicates (including OR chains), group keys, aggregate sets,
// and TopN tails — and asserts the vectorized path returns exactly what the
// row path returns, at parallel degrees 1 and 3. Shapes outside the
// vectorized subset are fine: they fall back and compare trivially, so the
// fuzzer also exercises the eligibility boundary itself.
//
// The table has a column of every vector kind — bigint, double precision,
// text (dictionary), timestamp, boolean, and jsonb for the boxed kind — and
// NULLs in every one of them, the group keys included, so that each typed
// kernel and the NULL mask are on the fuzzed path.
func FuzzVecParity(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(0xfeedface))
	f.Add(uint64(1<<40), uint64(3))
	// once false positives: ORDER BY sum(q) DESC tied two groups whose sums
	// differ in the last bit at parallel degree 3 (see randVecQuery)
	f.Add(uint64(570), uint64(307))

	f.Fuzz(func(t *testing.T, dataSeed, querySeed uint64) {
		dataRng := splitmix(dataSeed)
		e := newTestEngine(t)
		s := e.NewSession()
		mustExec(t, s, `CREATE TABLE fz (
			k bigint,
			q double precision,
			price double precision,
			flag text,
			status text,
			n bigint,
			ts timestamp,
			ok boolean,
			doc jsonb
		) USING columnar`)
		flags := []string{"A", "N", "R"}
		status := []string{"O", "F"}
		rows := 40 + int(dataRng()%160)
		const stripe = 60
		for lo := 0; lo < rows; lo += stripe {
			mustExec(t, s, "BEGIN")
			for i := lo; i < rows && i < lo+stripe; i++ {
				// one value in eight is NULL, in every column
				val := func(format string, args ...any) string {
					if dataRng()%8 == 0 {
						return "NULL"
					}
					return fmt.Sprintf(format, args...)
				}
				nval := "NULL"
				if dataRng()%4 != 0 {
					nval = fmt.Sprintf("%d", dataRng()%30)
				}
				mustExec(t, s, "INSERT INTO fz VALUES ("+strings.Join([]string{
					val("%d", int(dataRng()%1000)),
					val("%d.%d", dataRng()%50, dataRng()%10),
					val("%d.%02d", dataRng()%500, dataRng()%100),
					val("'%s'", flags[dataRng()%3]),
					val("'%s'", status[dataRng()%2]),
					nval,
					val("'2024-01-%02d %02d:00:00'", 1+dataRng()%28, dataRng()%24),
					val("%t", dataRng()%2 == 0),
					val(`'{"a": %d}'`, dataRng()%5),
				}, ", ")+")")
			}
			mustExec(t, s, "COMMIT")
		}

		qRng := splitmix(querySeed)
		q := randVecQuery(qRng)

		e.SetVecParallelism(1)
		e.SetVectorized(false)
		rowRes, rowErr := s.Exec(q)
		e.SetVectorized(true)
		for _, degree := range []int{1, 3} {
			e.SetVecParallelism(degree)
			vecRes, vecErr := s.Exec(q)
			if (rowErr == nil) != (vecErr == nil) {
				t.Fatalf("error disagreement for %q: row=%v vec=%v", q, rowErr, vecErr)
			}
			if rowErr != nil {
				return
			}
			rowsMatch(t, fmt.Sprintf("par%d %s", degree, q), vecRes.Rows, rowRes.Rows)
		}
		e.SetVecParallelism(0)
	})
}

// splitmix is a tiny deterministic PRNG over the fuzz seed.
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// randVecQuery assembles one aggregate query over the fz table.
func randVecQuery(rng func() uint64) string {
	numCols := []string{"k", "q", "price", "n"}
	allCols := []string{"k", "q", "price", "flag", "status", "n", "ts", "ok", "doc"}
	groupable := []string{"flag", "status", "n", "k", "q", "ts", "ok"}

	randPred := func() string {
		col := allCols[rng()%uint64(len(allCols))]
		day := func() string { return fmt.Sprintf("'2024-01-%02d'", 1+rng()%28) }
		switch rng() % 5 {
		case 0:
			return fmt.Sprintf("%s IS NULL", col)
		case 1:
			return fmt.Sprintf("%s IS NOT NULL", col)
		case 2:
			switch col {
			case "flag":
				return fmt.Sprintf("flag = '%s'", []string{"A", "N", "R"}[rng()%3])
			case "status":
				return fmt.Sprintf("status = '%s'", []string{"O", "F"}[rng()%2])
			case "ts":
				return fmt.Sprintf("ts BETWEEN %s AND %s", day(), day())
			case "ok", "doc":
				return fmt.Sprintf("ok = %t", rng()%2 == 0)
			}
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, rng()%20, 20+rng()%500)
		default:
			op := []string{"<", "<=", ">", ">=", "=", "<>"}[rng()%6]
			switch col {
			case "flag", "status":
				return fmt.Sprintf("%s %s 'N'", col, op)
			case "ts":
				return fmt.Sprintf("ts %s %s", op, day())
			case "ok", "doc":
				return fmt.Sprintf("ok %s true", op)
			}
			return fmt.Sprintf("%s %s %d", col, op, rng()%400)
		}
	}

	var conjuncts []string
	for i := uint64(0); i < rng()%4; i++ {
		if rng()%3 == 0 { // OR chain
			branches := []string{randPred(), randPred()}
			if rng()%2 == 0 {
				branches = append(branches, randPred())
			}
			conjuncts = append(conjuncts, "("+strings.Join(branches, " OR ")+")")
			continue
		}
		conjuncts = append(conjuncts, randPred())
	}

	var groups []string
	seen := map[string]bool{}
	for i := uint64(0); i < rng()%4; i++ {
		g := groupable[rng()%uint64(len(groupable))]
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}

	randAggArg := func() string {
		col := numCols[rng()%uint64(len(numCols))]
		switch rng() % 4 {
		case 0:
			return fmt.Sprintf("%s * %s", col, numCols[rng()%uint64(len(numCols))])
		case 1:
			return fmt.Sprintf("%s + %d", col, rng()%10)
		default:
			return col
		}
	}
	var sel []string
	sel = append(sel, groups...)
	nAggs := 1 + rng()%3
	for i := uint64(0); i < nAggs; i++ {
		switch rng() % 6 {
		case 0:
			sel = append(sel, "count(*)")
		case 1:
			sel = append(sel, fmt.Sprintf("count(%s)", allCols[rng()%uint64(len(allCols))]))
		case 2:
			sel = append(sel, fmt.Sprintf("sum(%s)", randAggArg()))
		case 3:
			sel = append(sel, fmt.Sprintf("avg(%s)", randAggArg()))
		case 4:
			sel = append(sel, fmt.Sprintf("min(%s)", allCols[rng()%uint64(len(allCols))]))
		default:
			sel = append(sel, fmt.Sprintf("max(%s)", allCols[rng()%uint64(len(allCols))]))
		}
	}

	q := "SELECT " + strings.Join(sel, ", ") + " FROM fz"
	if len(conjuncts) > 0 {
		q += " WHERE " + strings.Join(conjuncts, " AND ")
	}
	if len(groups) > 0 {
		q += " GROUP BY " + strings.Join(groups, ", ")
		if rng()%4 == 0 { // between the aggregate and the TopN: no scan-side bound
			q += fmt.Sprintf(" HAVING count(*) > %d", rng()%3)
		}
		if rng()%2 == 0 {
			// TopN tail: a prefix of the group keys — all of them half the
			// time — so the TopN bounds the grouped scan, and sometimes an
			// aggregate behind it (tiebreak, still bounded) or ahead of it
			// (never bounded). Ties fall to first-seen group order, which
			// both paths share — for a key both paths compute to the same
			// bits. A sum or avg over a double precision column is not such a
			// key: the partial sums of a parallel scan add in another order,
			// two groups that tie on paper can differ in the last bit, and
			// LIMIT then keeps another row. It stays in the select list, where
			// the comparison is to a tolerance, and out of the ORDER BY.
			dirs := make([]string, len(groups))
			for i := range groups {
				dirs[i] = groups[i]
				if rng()%2 == 0 {
					dirs[i] += " DESC"
				}
			}
			if rng()%2 == 0 {
				dirs = dirs[:1+rng()%uint64(len(dirs))]
			}
			agg := sel[len(groups)]
			floatSum := (strings.HasPrefix(agg, "sum(") || strings.HasPrefix(agg, "avg(")) &&
				(strings.Contains(agg, "q") || strings.Contains(agg, "price"))
			switch place := rng() % 4; {
			case floatSum:
			case place == 0:
				dirs = append(dirs, agg+" DESC")
			case place == 1:
				dirs = append([]string{agg + " DESC"}, dirs...)
			}
			q += " ORDER BY " + strings.Join(dirs, ", ")
			q += fmt.Sprintf(" LIMIT %d", rng()%8)
			if rng()%2 == 0 {
				q += fmt.Sprintf(" OFFSET %d", rng()%4)
			}
		}
	}
	return q
}
