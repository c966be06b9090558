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
func FuzzVecParity(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(0xfeedface))
	f.Add(uint64(1<<40), uint64(3))

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
			n bigint
		) USING columnar`)
		flags := []string{"A", "N", "R"}
		status := []string{"O", "F"}
		rows := 40 + int(dataRng()%160)
		const stripe = 60
		for lo := 0; lo < rows; lo += stripe {
			mustExec(t, s, "BEGIN")
			for i := lo; i < rows && i < lo+stripe; i++ {
				nval := "NULL"
				if dataRng()%4 != 0 {
					nval = fmt.Sprintf("%d", dataRng()%30)
				}
				mustExec(t, s, fmt.Sprintf(
					"INSERT INTO fz VALUES (%d, %d.%d, %d.%02d, '%s', '%s', %s)",
					int(dataRng()%1000), dataRng()%50, dataRng()%10,
					dataRng()%500, dataRng()%100,
					flags[dataRng()%3], status[dataRng()%2], nval))
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
	allCols := []string{"k", "q", "price", "flag", "status", "n"}
	groupable := []string{"flag", "status", "n", "k", "q"}

	randPred := func() string {
		col := allCols[rng()%uint64(len(allCols))]
		switch rng() % 5 {
		case 0:
			return fmt.Sprintf("%s IS NULL", col)
		case 1:
			return fmt.Sprintf("%s IS NOT NULL", col)
		case 2:
			if col == "flag" {
				return fmt.Sprintf("flag = '%s'", []string{"A", "N", "R"}[rng()%3])
			}
			if col == "status" {
				return fmt.Sprintf("status = '%s'", []string{"O", "F"}[rng()%2])
			}
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, rng()%20, 20+rng()%500)
		default:
			op := []string{"<", "<=", ">", ">=", "=", "<>"}[rng()%6]
			if col == "flag" || col == "status" {
				return fmt.Sprintf("%s %s 'N'", col, op)
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
			// both paths share.
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
			switch agg := sel[len(groups)] + " DESC"; rng() % 4 {
			case 0:
				dirs = append(dirs, agg)
			case 1:
				dirs = append([]string{agg}, dirs...)
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
