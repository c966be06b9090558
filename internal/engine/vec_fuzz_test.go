package engine

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzVecParity generates random tables and random aggregate queries —
// predicates (including OR chains), group keys, aggregate sets, and TopN
// tails, over one table or over an equi-join of two — and asserts the
// vectorized path returns exactly what the row path returns, at parallel
// degrees 1 and 3. Shapes outside the vectorized subset are fine: they fall
// back and compare trivially, so the fuzzer also exercises the eligibility
// boundary itself.
//
// The fact table exists twice, columnar (fz) and as a heap (fzh), with a
// column of every vector kind — bigint, double precision, text (dictionary),
// timestamp, boolean, and jsonb for the boxed kind — and NULLs in every one of
// them, the group keys included, so that each typed kernel and the NULL mask
// are on the fuzzed path. The heap twin is then worked on by other sessions:
// rows updated and deleted, by transactions that committed, that rolled back
// and that are still open when the query runs, and rows inserted by the latter
// two kinds — every case of the visibility rules under the batched scan. The
// same two sessions put rows into the columnar table between the committed
// ones, so its stripes — several, cut by checkpoints between some of the load's
// transactions — hold segments of committed, rolled-back and open
// transactions interleaved. The
// second table (dim, a heap) is small, sometimes empty, sometimes all NULL in
// its keys, and repeats its key values, as the fact table does: joins on one
// or two of (k, dk), (flag, dflag), (n, dn) have duplicates on both sides and
// either side may be the smaller.
//
// The jsonb column holds documents for the derived columns (vec_derived.go):
// keys present, missing and JSON null, an array and now and then something
// else under jsonb_array_length, timestamps plain, with a zone offset and —
// for one data seed in four — unparsable, numbers as numbers, as text, padded
// and in a form only one of bigint and double precision takes, messages in
// ASCII, upper case and outside ASCII. Half the data seeds give the heap twin
// a trigram GIN index over its messages, built before the load or after, so
// that a searchable pattern makes both paths scan its candidates. Queries draw
// group keys, aggregate arguments and [NOT] LIKE / ILIKE filters from that
// set, with patterns that have _, an inner %, a backslash, fewer than three
// characters or none. A cast that fails must fail both paths or neither: the
// comparison is of errors first, then of rows.
//
// Rows are compared in order: the vectorized join hands its matches on in the
// row path's order, so group order, and with it every tie a TopN breaks, is
// the same. Float sums are compared to a tolerance (a parallel columnar scan
// adds its partial sums in another order).
func FuzzVecParity(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(0xdeadbeef), uint64(0xfeedface))
	f.Add(uint64(1<<40), uint64(3))
	// once false positives: ORDER BY sum(q) DESC tied two groups whose sums
	// differ in the last bit at parallel degree 3 (see randVecQuery)
	f.Add(uint64(570), uint64(307))
	// joins: comma and JOIN syntax, the small table on either side, one key
	// and two, an empty and an all-NULL small table; and from seed 100 on,
	// derived columns over the jsonb documents
	for seed := uint64(100); seed < 124; seed++ {
		f.Add(seed, seed*7+3)
	}

	f.Fuzz(func(t *testing.T, dataSeed, querySeed uint64) { vecParityCase(t, dataSeed, querySeed) })
}

// vecParityCase builds the tables of dataSeed, runs the query of querySeed
// both ways and compares. It returns the query and the error both paths
// answered it with, if they did.
func vecParityCase(t *testing.T, dataSeed, querySeed uint64) (string, error) {
	{
		dataRng := splitmix(dataSeed)
		e := newTestEngine(t)
		s := e.NewSession()
		const factCols = `(
			k bigint,
			q double precision,
			price double precision,
			flag text,
			status text,
			n bigint,
			ts timestamp,
			ok boolean,
			doc jsonb
		)`
		mustExec(t, s, `CREATE TABLE fz `+factCols+` USING columnar`)
		mustExec(t, s, `CREATE TABLE fzh `+factCols)
		const msgsIndex = `CREATE INDEX fzh_msgs ON fzh USING gin ((jsonb_path_query_array(doc, '$.msgs[*]')::text) gin_trgm_ops)`
		indexed, indexFirst := dataRng()%2 == 0, dataRng()%2 == 0
		if indexed && indexFirst {
			mustExec(t, s, msgsIndex)
		}
		mustExec(t, s, `CREATE TABLE dim (dk bigint, dflag text, dn bigint, dq double precision, dts timestamp)`)
		flags := []string{"A", "N", "R"}
		status := []string{"O", "F"}
		// one value in eight is NULL, in every column
		val := func(format string, args ...any) string {
			if dataRng()%8 == 0 {
				return "NULL"
			}
			return fmt.Sprintf(format, args...)
		}
		messages := []string{"fix postgres bug", "Add POSTGRES index", "ünïcode Ärger im Büro", "100% done_ok",
			`back\\slash and \"quote\"`, "ab", "İstanbul \u212Aelvin", "", "postgresql 9.6 to 16"}
		badValues := dataRng()%4 == 0 // a timestamp no cast takes, a string where an array should be
		doc := func() string {
			var fields []string
			field := func(name, format string, args ...any) {
				switch dataRng() % 8 {
				case 0: // missing
				case 1:
					fields = append(fields, fmt.Sprintf(`"%s": null`, name))
				default:
					fields = append(fields, fmt.Sprintf(`"%s": `+format, append([]any{name}, args...)...))
				}
			}
			field("a", "%d", dataRng()%5)
			day, hour := 1+dataRng()%5, dataRng()%24
			switch pick := dataRng() % 16; {
			case pick == 0 && badValues:
				field("at", `"the day before"`)
			case pick < 4:
				field("at", `"2024-01-%02dT%02d:30:00+05:00"`, day, hour)
			case pick < 6:
				field("at", `"2024-01-%02d"`, day)
			case pick < 8:
				field("at", `"2024-01-%02dT%02d:00:00Z"`, day, hour)
			default:
				field("at", `"2024-01-%02d %02d:15:00.5"`, day, hour)
			}
			field("n", []string{`%d`, `%d`, `"%d"`, `"%d"`, `" %d "`, `" %d "`, `"%de1"`, `%d.5`}[dataRng()%8], dataRng()%40)
			msgs := make([]string, dataRng()%4)
			for i := range msgs {
				msgs[i] = `"` + messages[dataRng()%uint64(len(messages))] + `"`
			}
			field("msgs", "[%s]", strings.Join(msgs, ", "))
			if pick := dataRng() % 16; pick == 0 && badValues {
				field("tags", `"none"`)
			} else {
				field("tags", "[%s]", strings.TrimSuffix(strings.Repeat("1, ", int(pick%4)), ", "))
			}
			field("o", `{"k": "v%d", "arr": [1, 2, %d]}`, dataRng()%3, dataRng()%3)
			return "'{" + strings.Join(fields, ", ") + "}'"
		}
		factRow := func() string {
			nval := "NULL"
			if dataRng()%4 != 0 {
				nval = fmt.Sprintf("%d", dataRng()%30)
			}
			return "(" + strings.Join([]string{
				val("%d", int(dataRng()%1000)),
				val("%d.%d", dataRng()%50, dataRng()%10),
				val("%d.%02d", dataRng()%500, dataRng()%100),
				val("'%s'", flags[dataRng()%3]),
				val("'%s'", status[dataRng()%2]),
				nval,
				val("'2024-01-%02d %02d:00:00'", 1+dataRng()%28, dataRng()%24),
				val("%t", dataRng()%2 == 0),
				val("%s", doc()),
			}, ", ") + ")"
		}
		// The load: transactions of 60 rows, now and then a checkpoint between
		// two, which freezes the stripe and starts another. Two other sessions
		// — one that will roll back, one still open when the queries run —
		// put rows of their own into fz between the committed ones: segments
		// of three transactions interleaved in one stripe.
		rolledBack, open := e.NewSession(), e.NewSession()
		mustExec(t, rolledBack, "BEGIN")
		mustExec(t, open, "BEGIN")
		defer open.Exec("ROLLBACK")
		rows := 40 + int(dataRng()%160)
		const batch = 60
		for lo := 0; lo < rows; lo += batch {
			mustExec(t, s, "BEGIN")
			for i := lo; i < rows && i < lo+batch; i++ {
				row := factRow()
				mustExec(t, s, "INSERT INTO fz VALUES "+row)
				mustExec(t, s, "INSERT INTO fzh VALUES "+row)
				if dataRng()%8 == 0 {
					mustExec(t, []*Session{rolledBack, open}[dataRng()%2], "INSERT INTO fz VALUES "+factRow())
				}
			}
			mustExec(t, s, "COMMIT")
			if dataRng()%3 == 0 {
				e.Checkpoint()
			}
		}

		if indexed && !indexFirst {
			mustExec(t, s, msgsIndex)
		}

		// dim: up to 40 rows — none at all one time in eight — whose keys are
		// drawn from a few of the fact table's values, so that they repeat;
		// one time in eight every key is NULL
		dimRows, nullKeys := int(dataRng()%41), dataRng()%8 == 0
		if dataRng()%8 == 0 {
			dimRows = 0
		}
		for i := 0; i < dimRows; i++ {
			key := func(format string, args ...any) string {
				if nullKeys {
					return "NULL"
				}
				return val(format, args...)
			}
			mustExec(t, s, "INSERT INTO dim VALUES ("+strings.Join([]string{
				key("%d", int(dataRng()%1000)/(1+int(dataSeed%50))),
				key("'%s'", flags[dataRng()%3]),
				key("%d", dataRng()%30),
				val("%d.%d", dataRng()%50, dataRng()%10),
				val("'2024-01-%02d'", 1+dataRng()%28),
			}, ", ")+")")
		}

		// Other sessions at the heap twin. Committed: an update and a delete.
		// Rolled back: an insert, an update and a delete. And still open while
		// the queries run: the same three.
		change := func(o *Session) {
			mustExec(t, o, "INSERT INTO fzh VALUES "+factRow()+", "+factRow())
			mustExec(t, o, fmt.Sprintf("UPDATE fzh SET q = q + 1, n = %d WHERE k %% 7 = %d", dataRng()%30, dataRng()%7))
			mustExec(t, o, fmt.Sprintf("DELETE FROM fzh WHERE k %% 11 = %d", dataRng()%11))
		}
		mustExec(t, s, fmt.Sprintf("UPDATE fzh SET price = price * 2, flag = 'N' WHERE k %% 5 = %d", dataRng()%5))
		mustExec(t, s, fmt.Sprintf("DELETE FROM fzh WHERE k %% 13 = %d", dataRng()%13))
		change(rolledBack)
		mustExec(t, rolledBack, "ROLLBACK")
		change(open)

		qRng := splitmix(querySeed)
		q := randVecQuery(qRng)

		e.SetFeatures(Features{NoVectorized: true, VecParallelism: 1})
		rowRes, rowErr := s.Exec(q)
		for _, degree := range []int{1, 3} {
			e.SetFeatures(Features{VecParallelism: degree})
			vecRes, vecErr := s.Exec(q)
			if (rowErr == nil) != (vecErr == nil) {
				t.Fatalf("error disagreement for %q: row=%v vec=%v", q, rowErr, vecErr)
			}
			if rowErr != nil {
				return q, rowErr
			}
			rowsMatch(t, fmt.Sprintf("par%d %s", degree, q), vecRes.Rows, rowRes.Rows)
		}
		e.SetFeatures(Features{})
		return q, nil
	}
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

// randVecQuery assembles one aggregate query: over fz, over its heap twin, or
// over a join of either with dim.
func randVecQuery(rng func() uint64) string {
	numCols := []string{"k", "q", "price", "n"}
	allCols := []string{"k", "q", "price", "flag", "status", "n", "ts", "ok", "doc"}
	groupable := []string{"flag", "status", "n", "k", "q", "ts", "ok"}

	from := "fz"
	var conjuncts []string
	if pick := rng() % 8; pick >= 3 {
		fact := []string{"fz", "fzh"}[rng()%2]
		from = fact
		if pick >= 5 {
			pairs := []string{"k = dk", "flag = dflag", "n = dn", "dk = k", "dn = n"}
			keys := []string{pairs[rng()%uint64(len(pairs))]}
			if rng()%3 == 0 {
				keys = append(keys, []string{"flag = dflag", "n = dn", "status = dflag"}[rng()%3])
			}
			on := strings.Join(keys, " AND ")
			switch rng() % 4 {
			case 0:
				from, conjuncts = fact+", dim", keys
			case 1:
				from = fact + " JOIN dim ON " + on
			case 2:
				from = "dim JOIN " + fact + " ON " + on
			default: // a filter on one side in the ON clause
				from = fact + " JOIN dim ON " + on + " AND " +
					[]string{"dq > 20", "n < 15", "dts >= '2024-01-10'", "(flag = 'A' OR dn > 10)"}[rng()%4]
			}
			numCols = append(numCols, "dk", "dn", "dq")
			allCols = append(allCols, "dk", "dflag", "dn", "dq", "dts")
			groupable = append(groupable, "dk", "dflag", "dn", "dts")
		}
	}

	// derived columns over the fact tables' jsonb documents: keys, numeric
	// leaves, and texts for LIKE
	derivedKeys := []string{"doc->>'a'", "(doc->>'a')::bigint", "(doc->>'at')::date", "(doc->>'at')::timestamp",
		"doc->'o'->>'k'", "jsonb_array_length(doc->'o'->'arr')", "jsonb_array_length(doc->'tags')",
		"jsonb_path_query_array(doc, '$.msgs[*]')::text", "(doc->>'n')::double precision", "doc->'msgs'->>0",
		"(doc->>'n')::text", "jsonb_array_length(doc->'tags')::text", "doc->'o'->'arr'->>2"}
	derivedNums := []string{"jsonb_array_length(doc->'tags')", "(doc->>'a')::bigint", "(doc->>'n')::double precision",
		"(doc->>'n')::bigint", "jsonb_array_length(doc->'msgs')::double precision"}
	derivedTexts := []string{"jsonb_path_query_array(doc, '$.msgs[*]')::text", "jsonb_path_query_array(doc, '$.msgs[*]')::text",
		"doc->'msgs'->>0", "doc->'msgs'->>1", "doc->'o'->>'k'", "(doc->>'a')::text"}
	patterns := []string{"%postgres%", "%POSTGRES%", "%Postgres bug%", "%ünï%", "%ÄRGER%", "%o_t%", "%fix%bug%", `%back\\slash%`,
		`%\\%`, "%ab%", "%a%", "ab", "%", "", "v1%", "%İ%", "%kelvin%", "%done_ok%", `%100\%%`, "%sql 9%", "_ostgres%"}
	aggCols := allCols // what count, min and max take
	if (from == "fz" || from == "fzh") && rng()%2 == 0 {
		if rng()%4 != 0 {
			from = "fzh" // the columnar twin has no scan that computes them
		}
		if rng()%2 == 0 {
			groupable = append(groupable, derivedKeys...)
		}
		if rng()%2 == 0 {
			numCols = append(numCols, derivedNums...)
			aggCols = append(aggCols[:len(aggCols):len(aggCols)], derivedKeys...)
		}
		if rng()%2 == 0 { // what the heap twin's index, when it has one, can search
			conjuncts = append(conjuncts, fmt.Sprintf("%s %s '%s'", derivedTexts[0],
				[]string{"LIKE", "ILIKE"}[rng()%2], patterns[rng()%9]))
		}
		for i := uint64(0); i < rng()%3; i++ {
			conjuncts = append(conjuncts, fmt.Sprintf("%s %s '%s'", derivedTexts[rng()%uint64(len(derivedTexts))],
				[]string{"LIKE", "ILIKE", "ILIKE", "NOT LIKE", "NOT ILIKE"}[rng()%5], patterns[rng()%uint64(len(patterns))]))
		}
	}

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
			case "flag", "dflag":
				return fmt.Sprintf("%s = '%s'", col, []string{"A", "N", "R"}[rng()%3])
			case "status":
				return fmt.Sprintf("status = '%s'", []string{"O", "F"}[rng()%2])
			case "ts", "dts":
				return fmt.Sprintf("%s BETWEEN %s AND %s", col, day(), day())
			case "ok", "doc":
				return fmt.Sprintf("ok = %t", rng()%2 == 0)
			}
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, rng()%20, 20+rng()%500)
		default:
			op := []string{"<", "<=", ">", ">=", "=", "<>"}[rng()%6]
			switch col {
			case "flag", "status", "dflag":
				return fmt.Sprintf("%s %s 'N'", col, op)
			case "ts", "dts":
				return fmt.Sprintf("%s %s %s", col, op, day())
			case "ok", "doc":
				return fmt.Sprintf("ok %s true", op)
			}
			return fmt.Sprintf("%s %s %d", col, op, rng()%400)
		}
	}

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
			sel = append(sel, fmt.Sprintf("count(%s)", aggCols[rng()%uint64(len(aggCols))]))
		case 2:
			sel = append(sel, fmt.Sprintf("sum(%s)", randAggArg()))
		case 3:
			sel = append(sel, fmt.Sprintf("avg(%s)", randAggArg()))
		case 4:
			sel = append(sel, fmt.Sprintf("min(%s)", aggCols[rng()%uint64(len(aggCols))]))
		default:
			sel = append(sel, fmt.Sprintf("max(%s)", aggCols[rng()%uint64(len(aggCols))]))
		}
	}

	q := "SELECT " + strings.Join(sel, ", ") + " FROM " + from
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
