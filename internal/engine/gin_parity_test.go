package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// ginParityIndexes are the trigram indexes of ginParityCase's table: the
// ingest path's commit-message array and a ->> text, which appendKey reads
// through their derived kernels, and a jsonb-to-text cast, which it formats
// from the general evaluator.
var ginParityIndexes = []struct {
	name, expr string
	derived    bool
}{
	{"docs_msgs", "(jsonb_path_query_array(data, '$.payload.commits[*].message'))::text", true},
	{"docs_title", "(data ->> 'title')", true},
	{"docs_payload", "((data -> 'payload'))::text", false},
}

// ginParityPatterns are searched under LIKE and ILIKE over every indexed
// expression: trigrams of upper-case, non-ASCII, quoted and escaped text, of
// a word only the long messages hold, one a repeated word makes, and a
// pattern too short to search, which scans the heap either way.
var ginParityPatterns = []string{
	"%postgres%", "%POSTGRES%", "%Postgres%", "%fix bug%", "%ix_bu%", "%ünïcode%",
	"%stanbul%", "%elvin%", `%quo"te%`, `%back\\slash%`, `%back\\\\slash%`, "%zyzzyva%", "%fix fix fix%",
	"%postgres%index%", "%42%", "%ab%", "%",
}

// ginParityWords make commit messages and titles: upper case, non-ASCII (the
// Kelvin sign lower-cases to k), a quote, a backslash, control characters.
var ginParityWords = []string{
	"fix", "bug", "postgres", "Postgres", "POSTGRES", "index", "ünïcode", "İstanbul",
	"\u212Aelvin", `quo"te`, `back\slash`, "tab\there", "line\nbreak", "\x01ctl", "42", "ab",
}

// ginParityDoc returns one document, or nil for a NULL one: missing paths,
// messages that are no string, and messages of words, repeated or a run long
// enough to have more than 128 trigrams.
func ginParityDoc(rng func() uint64) types.Datum {
	pick := func(n int) int { return int(rng() % uint64(n)) }
	words := func(n int) string {
		w := make([]string, n)
		for i := range w {
			w[i] = ginParityWords[pick(len(ginParityWords))]
		}
		switch pick(8) {
		case 0:
			w = append(w, "fix", "fix", "fix", "fix")
		case 1:
			w = append(w, "zyzzyva")
		}
		return strings.Join(w, " ")
	}
	switch pick(12) {
	case 0:
		return nil
	case 1:
		return jsonb.FromGo(map[string]any{})
	case 2:
		return jsonb.FromGo(map[string]any{"payload": map[string]any{"commits": "not an array"}})
	}
	doc := map[string]any{}
	switch pick(4) {
	case 0: // missing
	case 1:
		doc["title"] = nil
	case 2:
		doc["title"] = 7
	default:
		doc["title"] = words(1 + pick(3))
	}
	commits := make([]any, pick(4))
	for i := range commits {
		c := map[string]any{"sha": fmt.Sprintf("%08x", rng()&0xffffffff)}
		switch pick(10) {
		case 0: // no message
		case 1:
			c["message"] = nil
		case 2:
			c["message"] = 42
		case 3:
			c["message"] = map[string]any{"text": "postgres"}
		case 4:
			c["message"] = words(40) // well over 128 trigrams
		default:
			c["message"] = words(1 + pick(8))
		}
		commits[i] = c
	}
	doc["payload"] = map[string]any{"commits": commits}
	return jsonb.FromGo(doc)
}

// TestGINMatchesSeqScan is the oracle of the trigram index's maintenance:
// after COPY, after UPDATE, after DELETE and VACUUM and after TRUNCATE, the
// same LIKE and ILIKE predicates return the same rows through each index as
// through a sequential scan with it taken out, and the key appendKey indexes
// a row under is the general evaluator's text for it. FuzzGINParity runs the
// same case over any seed.
func TestGINMatchesSeqScan(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ginParityCase(t, seed)
	}
}

// FuzzGINParity is TestGINMatchesSeqScan over fuzzed document seeds:
//
//	go test ./internal/engine -run '^$' -fuzz FuzzGINParity -fuzztime 10m
func FuzzGINParity(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { ginParityCase(t, seed) })
}

func ginParityCase(t *testing.T, seed uint64) {
	rng := splitmix(seed)
	e := newTestEngine(t)
	s := e.NewSession()
	defer e.SetFeatures(Features{})
	mustExec(t, s, "CREATE TABLE docs (id bigint PRIMARY KEY, data jsonb)")
	for _, ix := range ginParityIndexes {
		mustExec(t, s, ginParityCreate(ix.name, ix.expr))
	}
	next := 0
	load := func(n int) {
		rows := make([]types.Row, n)
		for i := range rows {
			next++
			rows[i] = types.Row{int64(next), ginParityDoc(rng)}
		}
		if _, err := s.CopyFrom("docs", nil, rows); err != nil {
			t.Fatal(err)
		}
	}
	check := func(stage string) {
		t.Helper()
		ginParityKeys(t, e, stage)
		matched := 0
		for _, ix := range ginParityIndexes {
			for _, pattern := range ginParityPatterns {
				for _, op := range []string{"LIKE", "ILIKE"} {
					matched += ginParityQuery(t, e, s, stage, ix.name, ix.expr, ix.expr+" "+op+" "+types.QuoteString(pattern))
				}
			}
		}
		if matched == 0 && stage != "after TRUNCATE" {
			t.Fatalf("%s: no predicate selects a row: nothing is compared", stage)
		}
	}

	load(150)
	check("after COPY")
	for i := 0; i < 40; i++ {
		id := int64(1 + rng()%uint64(next))
		mustExec(t, s, "UPDATE docs SET data = $1 WHERE id = $2", ginParityDoc(rng), id)
	}
	check("after UPDATE")
	mustExec(t, s, fmt.Sprintf("DELETE FROM docs WHERE id %% 3 = %d", rng()%3))
	mustExec(t, s, "VACUUM docs")
	check("after DELETE and VACUUM")
	mustExec(t, s, "TRUNCATE docs")
	check("after TRUNCATE")
	load(60)
	check("after TRUNCATE and COPY")
}

// TestGINOverAddedColumn indexes a jsonb column that ALTER TABLE added after
// rows were written: those rows are shorter than the table, their column is
// NULL, and neither the CREATE INDEX backfill nor a VACUUM of them may read
// past their end.
func TestGINOverAddedColumn(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE late (id bigint PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO late (id) VALUES (1), (2)")
	mustExec(t, s, "ALTER TABLE late ADD COLUMN data jsonb")
	mustExec(t, s, `INSERT INTO late (id, data) VALUES (3, '{"msg": "fix postgres"}')`)
	mustExec(t, s, "CREATE INDEX late_msg ON late USING gin ((data ->> 'msg') gin_trgm_ops)")
	q := "SELECT id FROM late WHERE data ->> 'msg' ILIKE '%postgres%'"
	if plan := rowsToString(mustExec(t, s, "EXPLAIN "+q).Rows); !strings.Contains(plan, "late_msg") {
		t.Fatalf("the predicate does not search late_msg:\n%s", plan)
	}
	expectRows(t, mustExec(t, s, q), "3")
	mustExec(t, s, "DELETE FROM late WHERE id < 3")
	mustExec(t, s, "VACUUM late")
	expectRows(t, mustExec(t, s, q), "3")
}

// ginParityCreate is the CREATE INDEX of the trigram index name over expr.
func ginParityCreate(name, expr string) string {
	return fmt.Sprintf("CREATE INDEX %s ON docs USING gin ((%s) gin_trgm_ops)", name, expr)
}

// ginParityQuery selects the rows where matches through the index name over
// expr, vectorized and row at a time, and then, the index dropped, through a
// sequential scan row at a time: the rows must be the same. The index is
// created again after, from the rows the table has. It returns how many
// rows match.
func ginParityQuery(t *testing.T, e *Engine, s *Session, stage, name, expr, match string) int {
	t.Helper()
	q := "SELECT id FROM docs WHERE " + match + " ORDER BY id"
	run := func(vectorized bool) []types.Row {
		e.SetFeatures(Features{NoVectorized: !vectorized})
		return mustExec(t, s, q).Rows
	}
	plan := rowsToString(mustExec(t, s, "EXPLAIN "+q).Rows)
	if strings.Contains(strings.ToLower(match), "postgres%") && !strings.Contains(plan, "Bitmap Index Scan using "+name) {
		t.Fatalf("%s: %s does not search %s:\n%s", stage, q, name, plan)
	}
	vec, row := run(true), run(false)

	mustExec(t, s, "DROP INDEX "+name)
	if strings.Contains(rowsToString(mustExec(t, s, "EXPLAIN "+q).Rows), name) {
		t.Fatalf("%s: %s still plans over %s", stage, q, name)
	}
	want := run(false)
	mustExec(t, s, ginParityCreate(name, expr))

	if got := rowsToString(want); rowsToString(vec) != got || rowsToString(row) != got {
		t.Fatalf("%s: %s\nindexed, vectorized:\n%s\nindexed, row at a time:\n%s\nsequential scan:\n%s",
			stage, q, rowsToString(vec), rowsToString(row), got)
	}
	return len(want)
}

// ginParityKeys checks every index of docs against its definition, for every
// row version in the heap: appendKey's key is byte-equal to types.Format of
// the general evaluator (NULL alike), and the index searches as one built
// through the evaluator over the heap as it stands.
func ginParityKeys(t *testing.T, e *Engine, stage string) {
	t.Helper()
	st, _ := e.store("docs")
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ix := range ginParityIndexes {
		g := st.gins[ix.name]
		if (g.derived != nil) != ix.derived {
			t.Fatalf("%s: derived kernel %v, want %v", ix.name, g.derived != nil, ix.derived)
		}
		general := *g
		general.derived = nil
		ctx := &expr.Ctx{}
		var key, want []byte
		st.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
			ctx.Row = tup.Row()
			var ok, wantOK bool
			var err error
			if key, ok, err = g.appendKey(key[:0], ctx); err != nil {
				t.Fatalf("%s: %s: %v", stage, ix.name, err)
			}
			if want, wantOK, err = general.appendKey(want[:0], ctx); err != nil {
				t.Fatalf("%s: %s: %v", stage, ix.name, err)
			}
			if ok != wantOK || !bytes.Equal(key, want) {
				t.Fatalf("%s: %s of %v is %q (%v), the evaluator's %q (%v)", stage, ix.name, ctx.Row, key, ok, want, wantOK)
			}
			if v, _ := g.eval(ctx); ok && types.Format(v) != string(key) {
				t.Fatalf("%s: %s of %v is %q, types.Format gives %q", stage, ix.name, ctx.Row, key, types.Format(v))
			}
			return true
		})
		built := &ginIndex{def: g.def, gin: index.NewGIN(), eval: g.eval} // built through the evaluator
		st.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
			if !tup.HeapOnly { // a chain's versions share its root's entry
				ctx.Row = tup.Row()
				if key, ok, err := built.appendKey(key[:0], ctx); err != nil {
					t.Fatal(err)
				} else if ok {
					built.gin.InsertBytes(key, tid)
				}
			}
			return true
		})
		if built.gin.Len() != g.gin.Len() {
			t.Fatalf("%s: %s indexes %d rows, a rebuild %d", stage, ix.name, g.gin.Len(), built.gin.Len())
		}
		for _, pattern := range ginParityPatterns {
			got, _ := g.gin.Search(pattern)
			rebuilt, _ := built.gin.Search(pattern)
			if !slices.Equal(got, rebuilt) {
				t.Fatalf("%s: %s searches %q to %v, a rebuild to %v", stage, ix.name, pattern, got, rebuilt)
			}
		}
	}
}
