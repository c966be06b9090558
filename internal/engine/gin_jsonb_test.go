package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"citusgo/internal/heap"
)

const messagesIndexDDL = `USING gin ((jsonb_path_query_array(data, '$.commits[*].message')::text) gin_trgm_ops)`

// TestJSONBTextIsNotHTMLEscaped: jsonb::text prints <, > and & as they are,
// so ILIKE over it finds them — by sequential scan and through the GIN.
func TestJSONBTextIsNotHTMLEscaped(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	expectRows(t, mustExec(t, s, `SELECT '{"a":"<b> & c"}'::jsonb::text`), `{"a": "<b> & c"}`)

	for _, table := range []string{"plain", "indexed"} {
		mustExec(t, s, "CREATE TABLE "+table+" (id bigint PRIMARY KEY, data jsonb)")
		if table == "indexed" {
			mustExec(t, s, "CREATE INDEX "+table+"_idx ON "+table+" "+messagesIndexDDL)
		}
		mustExec(t, s, `INSERT INTO `+table+` (id, data) VALUES
			(1, '{"commits": [{"message": "escape <bold> tags & entities"}]}'),
			(2, '{"commits": [{"message": "nothing special"}]}'),
			(3, '{"commits": [{"message": "say \"hi\" to a\\b"}]}')`)
		for pattern, want := range map[string]string{
			"%<bold>%":      "1",
			"%<BOLD> tags%": "1",
			"%tags & ent%":  "1",
			`%\"hi\"%`:      "3", // the quote and the backslash are the escapes that stay
			`%a\\b%`:        "3",
			"%u003c%":       "",
		} {
			q := fmt.Sprintf(`SELECT id FROM %s WHERE jsonb_path_query_array(data, '$.commits[*].message')::text ILIKE '%s'`, table, pattern)
			expectRows(t, mustExec(t, s, q), want)
			expectRows(t, mustExec(t, s, fmt.Sprintf(`SELECT id FROM %s WHERE data::text ILIKE '%s'`, table, pattern)), want)
		}
		plan := rowsToString(mustExec(t, s, `EXPLAIN SELECT id FROM `+table+
			` WHERE jsonb_path_query_array(data, '$.commits[*].message')::text ILIKE '%<bold> tags%'`).Rows)
		if strings.Contains(plan, "trigram") != (table == "indexed") {
			t.Fatalf("plan on %s:\n%s", table, plan)
		}
	}
}

func TestJSONBTypeof(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	for doc, want := range map[string]string{
		`null`: "null", `{"a": 1}`: "object", `[1]`: "array", `"s"`: "string", `true`: "boolean", `-1.5`: "number",
	} {
		expectRows(t, mustExec(t, s, fmt.Sprintf(`SELECT jsonb_typeof('%s'::jsonb)`, doc)), want)
	}
}

func ginOf(t *testing.T, e *Engine, table string) *ginIndex {
	t.Helper()
	st, ok := e.store(table)
	if !ok || len(st.gins) != 1 {
		t.Fatalf("table %s has no single GIN index", table)
	}
	for _, g := range st.gins {
		return g
	}
	return nil
}

func search(t *testing.T, g *ginIndex, pattern string) []heap.TID {
	t.Helper()
	tids, usable := g.gin.Search(pattern)
	if !usable {
		t.Fatalf("pattern %q is not searchable", pattern)
	}
	return tids
}

// TestGINVacuumRecomputesIndexedText: the GIN keeps no text per tuple, so
// VACUUM finds a dead version's postings by evaluating the index expression
// on the dead row again.
func TestGINVacuumRecomputesIndexedText(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE ev (id bigint PRIMARY KEY, data jsonb)")
	mustExec(t, s, "CREATE INDEX ev_idx ON ev "+messagesIndexDDL)
	for i := 0; i < 30; i++ {
		word := []string{"alpha", "bravo", "charlie"}[i%3]
		mustExec(t, s, fmt.Sprintf(`INSERT INTO ev (id, data) VALUES (%d, '{"commits": [{"message": "%s number%d"}]}')`, i, word, i))
	}
	g := ginOf(t, e, "ev")
	if g.gin.Len() != 30 || len(search(t, g, "%bravo%")) != 10 {
		t.Fatalf("after insert: Len %d, bravo %d", g.gin.Len(), len(search(t, g, "%bravo%")))
	}

	mustExec(t, s, "DELETE FROM ev WHERE id % 3 = 1") // every bravo
	mustExec(t, s, `UPDATE ev SET data = '{"commits": [{"message": "delta"}]}' WHERE id % 3 = 2`)
	// dead versions stay indexed until vacuum: 30 old entries plus 10 new
	if g.gin.Len() != 40 {
		t.Fatalf("before vacuum: Len %d, want 40", g.gin.Len())
	}
	if n := e.Vacuum("ev"); n != 20 {
		t.Fatalf("vacuum reclaimed %d versions, want 20", n)
	}
	if g.gin.Len() != 20 {
		t.Fatalf("after vacuum: Len %d, want 20", g.gin.Len())
	}
	for pattern, want := range map[string]int{"%bravo%": 0, "%charlie%": 0, "%alpha%": 10, "%delta%": 10, "%number1%": 3} {
		if got := len(search(t, g, pattern)); got != want {
			t.Errorf("after vacuum: %d candidates for %s, want %d", got, pattern, want)
		}
	}
	expectRows(t, mustExec(t, s, `SELECT count(*) FROM ev WHERE jsonb_path_query_array(data, '$.commits[*].message')::text ILIKE '%delta%'`), "10")
	expectRows(t, mustExec(t, s, `SELECT count(*) FROM ev WHERE jsonb_path_query_array(data, '$.commits[*].message')::text ILIKE '%bravo%'`), "0")

	mustExec(t, s, "DELETE FROM ev")
	e.Vacuum("ev")
	if g.gin.Len() != 0 || len(search(t, g, "%alpha%")) != 0 {
		t.Fatalf("after deleting everything: Len %d", g.gin.Len())
	}
}

// TestGINBuildEqualsMaintenance: CREATE INDEX over a populated table and
// row-by-row maintenance of an index created first end with the same index.
func TestGINBuildEqualsMaintenance(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE built (id bigint PRIMARY KEY, data jsonb)")
	mustExec(t, s, "CREATE TABLE maintained (id bigint PRIMARY KEY, data jsonb)")
	mustExec(t, s, "CREATE INDEX maintained_idx ON maintained "+messagesIndexDDL)

	rng := rand.New(rand.NewSource(5))
	words := []string{"fix", "Postgres", "index", "cache", "<tag>", "Ünïcode", "a&b", "x"}
	for i := 0; i < 200; i++ {
		msgs := make([]string, rng.Intn(4))
		for j := range msgs {
			w := make([]string, 1+rng.Intn(5))
			for k := range w {
				w[k] = words[rng.Intn(len(words))]
			}
			msgs[j] = fmt.Sprintf(`{"message": "%s"}`, strings.Join(w, " "))
		}
		doc := fmt.Sprintf(`{"commits": [%s]}`, strings.Join(msgs, ", "))
		for _, table := range []string{"built", "maintained"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s (id, data) VALUES (%d, '%s')", table, i, doc))
		}
	}
	for _, table := range []string{"built", "maintained"} {
		mustExec(t, s, "DELETE FROM "+table+" WHERE id % 7 = 0")
		mustExec(t, s, `UPDATE `+table+` SET data = '{"commits": [{"message": "rewritten cache"}]}' WHERE id % 11 = 0`)
	}
	mustExec(t, s, "CREATE INDEX built_idx ON built "+messagesIndexDDL)
	e.Vacuum("")

	built, maintained := ginOf(t, e, "built"), ginOf(t, e, "maintained")
	if built.gin.Len() != maintained.gin.Len() || built.gin.Len() == 0 {
		t.Fatalf("Len: built %d, maintained %d", built.gin.Len(), maintained.gin.Len())
	}
	for _, pattern := range []string{"%postgres%", "%cache%", "%fix%index%", "%tag%", "%rewritten%", "%code%", "%nothing%"} {
		b, m := search(t, built, pattern), search(t, maintained, pattern)
		if !slices.Equal(b, m) {
			t.Errorf("%s: built %v, maintained %v", pattern, b, m)
		}
		where := ` WHERE jsonb_path_query_array(data, '$.commits[*].message')::text ILIKE '` + pattern + `'`
		expectRows(t, mustExec(t, s, "SELECT count(*) FROM built"+where),
			rowsToString(mustExec(t, s, "SELECT count(*) FROM maintained"+where).Rows))
	}
}
