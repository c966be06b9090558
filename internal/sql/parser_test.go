package sql

import (
	"strings"
	"testing"
)

// roundTrip parses src, deparses, re-parses, and checks the two deparsed
// forms match — the property the distributed planner relies on when it
// rewrites and ships queries to workers.
func roundTrip(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	text := stmt.String()
	stmt2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse deparsed %q: %v", text, err)
	}
	if stmt2.String() != text {
		t.Fatalf("round trip mismatch:\n first: %s\nsecond: %s", text, stmt2.String())
	}
	return stmt
}

func TestParseSelectBasic(t *testing.T) {
	stmt := roundTrip(t, "SELECT a, b AS bee FROM t WHERE a = 1 ORDER BY b DESC LIMIT 10 OFFSET 5")
	sel := stmt.(*SelectStmt)
	if len(sel.Columns) != 2 || sel.Columns[1].Alias != "bee" {
		t.Fatalf("bad columns: %+v", sel.Columns)
	}
	if sel.Where == nil || sel.Limit == nil || sel.Offset == nil {
		t.Fatal("missing clauses")
	}
	if !sel.OrderBy[0].Desc {
		t.Fatal("expected DESC")
	}
}

func TestParseSelectStar(t *testing.T) {
	stmt := roundTrip(t, "SELECT * FROM t")
	if !stmt.(*SelectStmt).Columns[0].Star {
		t.Fatal("expected star")
	}
	stmt = roundTrip(t, "SELECT t.* FROM t")
	if stmt.(*SelectStmt).Columns[0].StarTable != "t" {
		t.Fatal("expected qualified star")
	}
}

func TestParseJoins(t *testing.T) {
	stmt := roundTrip(t, "SELECT a.x FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id")
	sel := stmt.(*SelectStmt)
	j, ok := sel.From[0].(*JoinRef)
	if !ok || j.Type != LeftJoin {
		t.Fatalf("expected outer LEFT JOIN node, got %T", sel.From[0])
	}
	inner, ok := j.Left.(*JoinRef)
	if !ok || inner.Type != InnerJoin {
		t.Fatalf("expected inner join on the left, got %T", j.Left)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	stmt := roundTrip(t, "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS device_avg FROM reports GROUP BY deviceid) AS subq")
	sel := stmt.(*SelectStmt)
	sq, ok := sel.From[0].(*SubqueryRef)
	if !ok || sq.Alias != "subq" {
		t.Fatalf("expected subquery ref, got %T", sel.From[0])
	}
	if len(sq.Select.GroupBy) != 1 {
		t.Fatal("inner group by lost")
	}
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	stmt := roundTrip(t, "SELECT k, count(*), count(DISTINCT v), sum(v), avg(v) FROM t GROUP BY k HAVING count(*) > 2")
	sel := stmt.(*SelectStmt)
	if sel.Having == nil {
		t.Fatal("missing HAVING")
	}
	fc := sel.Columns[1].Expr.(*FuncCall)
	if !fc.Star {
		t.Fatal("count(*) lost star")
	}
	if !sel.Columns[2].Expr.(*FuncCall).Distinct {
		t.Fatal("count(DISTINCT ...) lost distinct")
	}
}

func TestParseJSONBOperators(t *testing.T) {
	stmt := roundTrip(t, "SELECT (data->>'created_at')::date, sum(jsonb_array_length(data->'payload'->'commits')) FROM github_events WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%' GROUP BY 1 ORDER BY 1 ASC")
	sel := stmt.(*SelectStmt)
	cast, ok := sel.Columns[0].Expr.(*CastExpr)
	if !ok {
		t.Fatalf("expected cast, got %T", sel.Columns[0].Expr)
	}
	if _, ok := cast.E.(*BinaryExpr); !ok {
		t.Fatal("expected ->> inside cast")
	}
	if _, ok := sel.Where.(*LikeExpr); !ok {
		t.Fatalf("expected ILIKE in where, got %T", sel.Where)
	}
}

func TestParseInsertForms(t *testing.T) {
	stmt := roundTrip(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}

	stmt = roundTrip(t, "INSERT INTO dst (k, n) SELECT k, count(*) FROM src GROUP BY k")
	if stmt.(*InsertStmt).Select == nil {
		t.Fatal("insert-select lost select")
	}

	stmt = roundTrip(t, "INSERT INTO t (k, v) VALUES (1, 2) ON CONFLICT (k) DO UPDATE SET v = 3")
	if stmt.(*InsertStmt).OnConflict == nil {
		t.Fatal("lost on conflict")
	}

	stmt = roundTrip(t, "INSERT INTO t (k) VALUES (1) ON CONFLICT (k) DO NOTHING")
	oc := stmt.(*InsertStmt).OnConflict
	if oc == nil || len(oc.DoUpdate) != 0 {
		t.Fatal("DO NOTHING should have empty DoUpdate")
	}

	stmt = roundTrip(t, "INSERT INTO t (k) VALUES (1) RETURNING k")
	if len(stmt.(*InsertStmt).Returning) != 1 {
		t.Fatal("lost RETURNING")
	}

	stmt = roundTrip(t, "INSERT INTO t AS x (k, v) VALUES (1, 2) ON CONFLICT (k) DO UPDATE SET v = x.v + excluded.v RETURNING x.k")
	if stmt.(*InsertStmt).Alias != "x" {
		t.Fatal("lost the target's alias")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	stmt := roundTrip(t, "UPDATE a1 SET v = v + 1 WHERE key = 42")
	u := stmt.(*UpdateStmt)
	if u.Table != "a1" || len(u.Set) != 1 || u.Where == nil {
		t.Fatalf("bad update: %+v", u)
	}
	stmt = roundTrip(t, "DELETE FROM t WHERE k BETWEEN 1 AND 5")
	if stmt.(*DeleteStmt).Where == nil {
		t.Fatal("lost where")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := roundTrip(t, `CREATE TABLE github_events (event_id text DEFAULT md5(random()::text) PRIMARY KEY, data jsonb)`)
	ct := stmt.(*CreateTableStmt)
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Default == nil {
		t.Fatalf("bad columns: %+v", ct.Columns)
	}

	stmt = roundTrip(t, "CREATE TABLE o (w_id int NOT NULL, d_id int NOT NULL, total numeric(12,2), PRIMARY KEY (w_id, d_id))")
	ct = stmt.(*CreateTableStmt)
	if len(ct.PrimaryKey) != 2 {
		t.Fatalf("lost table-level PK: %+v", ct.PrimaryKey)
	}

	stmt = roundTrip(t, "CREATE TABLE c (id bigint REFERENCES parent (id), v double precision)")
	ct = stmt.(*CreateTableStmt)
	if ct.Columns[0].References != "parent" {
		t.Fatal("lost foreign key")
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt := roundTrip(t, "CREATE INDEX idx ON t USING gin ((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) gin_trgm_ops)")
	ci := stmt.(*CreateIndexStmt)
	if ci.Using != "gin" || ci.Ops != "gin_trgm_ops" {
		t.Fatalf("bad index: %+v", ci)
	}
	stmt = roundTrip(t, "CREATE UNIQUE INDEX uk ON t (a, b)")
	if !stmt.(*CreateIndexStmt).Unique {
		t.Fatal("lost unique")
	}
}

func TestParseDropIndex(t *testing.T) {
	for src, want := range map[string]DropIndexStmt{
		"DROP INDEX idx":           {Name: "idx"},
		"DROP INDEX IF EXISTS idx": {Name: "idx", IfExists: true},
	} {
		if got, ok := roundTrip(t, src).(*DropIndexStmt); !ok || *got != want {
			t.Fatalf("%s: parsed as %#v", src, got)
		}
	}
	if got, ok := roundTrip(t, "DROP TABLE IF EXISTS idx").(*DropTableStmt); !ok || !got.IfExists {
		t.Fatalf("DROP TABLE IF EXISTS parsed as %#v", got)
	}
}

func TestParseTransactionControl(t *testing.T) {
	for src, want := range map[string]string{
		"BEGIN":                         "BEGIN",
		"COMMIT":                        "COMMIT",
		"ROLLBACK":                      "ROLLBACK",
		"ABORT":                         "ROLLBACK",
		"PREPARE TRANSACTION 'citus_1'": "PREPARE TRANSACTION 'citus_1'",
		"COMMIT PREPARED 'citus_1'":     "COMMIT PREPARED 'citus_1'",
		"ROLLBACK PREPARED 'citus_1'":   "ROLLBACK PREPARED 'citus_1'",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if stmt.String() != want {
			t.Fatalf("%q deparsed to %q, want %q", src, stmt.String(), want)
		}
	}
}

func TestParseCopy(t *testing.T) {
	stmt := roundTrip(t, "COPY t (a, b) FROM STDIN")
	c := stmt.(*CopyStmt)
	if c.Table != "t" || len(c.Columns) != 2 {
		t.Fatalf("bad copy: %+v", c)
	}
	if _, err := Parse("COPY t FROM STDIN WITH (FORMAT csv)"); err != nil {
		t.Fatalf("copy with options: %v", err)
	}
}

func TestParseSetAndCall(t *testing.T) {
	stmt := roundTrip(t, "SET citus.dist_txn_id = '7:42'")
	if stmt.(*SetStmt).Name != "citus.dist_txn_id" {
		t.Fatal("bad set name")
	}
	stmt = roundTrip(t, "CALL new_order(1, 2, 3)")
	if len(stmt.(*CallStmt).Args) != 3 {
		t.Fatal("bad call args")
	}
}

// TestParseFunctionInFrom: a function in FROM is a relation that deparses
// to its own text (these texts also seed FuzzParseDeparse), and no walker
// takes it for a table: it is neither listed nor renamed.
func TestParseFunctionInFrom(t *testing.T) {
	stmt := roundTrip(t, "SELECT * FROM citus_tables()")
	if fr, ok := stmt.(*SelectStmt).From[0].(*FuncRef); !ok || fr.Name != "citus_tables" || len(fr.Args) != 0 || fr.Alias != "" {
		t.Fatalf("FROM fn(): %#v", stmt.(*SelectStmt).From[0])
	}
	stmt = roundTrip(t, "SELECT f.kind FROM citus_trace($1, 'x') AS f")
	if fr, ok := stmt.(*SelectStmt).From[0].(*FuncRef); !ok || len(fr.Args) != 2 || fr.Alias != "f" {
		t.Fatalf("FROM fn($1, 'x') AS f: %#v", stmt.(*SelectStmt).From[0])
	}
	stmt = roundTrip(t, "SELECT t.v, s.state FROM t JOIN citus_stat_activity() s ON s.xid = t.k WHERE t.k IN (SELECT xid FROM citus_stat_ssi())")
	if got := FromTables(stmt); len(got) != 1 || got[0] != "t" {
		t.Fatalf("FromTables: %v", got)
	}
	if got := StatementTables(stmt); len(got) != 1 || got[0] != "t" {
		t.Fatalf("StatementTables: %v", got)
	}
	WalkTables(stmt, func(bt *BaseTable) {
		if bt.Name != "t" {
			t.Fatalf("WalkTables visits %q", bt.Name)
		}
	})
	if !CallsFunction(stmt) || CallsFunction(roundTrip(t, "SELECT count(*) FROM t")) {
		t.Fatal("CallsFunction")
	}
	text := stmt.String()
	restore := RenameTables(stmt, func(name string) string { return name + "_102008" })
	want := "SELECT t.v, s.state FROM t_102008 AS t JOIN citus_stat_activity() AS s ON (s.xid = t.k) WHERE (t.k IN (SELECT xid FROM citus_stat_ssi()))"
	if got := stmt.String(); got != want {
		t.Fatalf("renamed:\n%s\nwant:\n%s", got, want)
	}
	restore()
	if stmt.String() != text {
		t.Fatalf("restored: %s", stmt)
	}
	RewriteTables(stmt, func(name string) string { return name + "_102008" })
	if got := stmt.String(); got != want {
		t.Fatalf("rewritten:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseCaseExpr(t *testing.T) {
	stmt := roundTrip(t, "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t")
	sel := stmt.(*SelectStmt)
	if _, ok := sel.Columns[0].Expr.(*CaseExpr); !ok {
		t.Fatalf("expected case, got %T", sel.Columns[0].Expr)
	}
	roundTrip(t, "SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t")
}

func TestParseNamedArg(t *testing.T) {
	stmt := roundTrip(t, "SELECT create_distributed_table('other_table', 'distribution_column', colocate_with := 'my_table')")
	fc := stmt.(*SelectStmt).Columns[0].Expr.(*FuncCall)
	na, ok := fc.Args[2].(*NamedArg)
	if !ok || na.Name != "colocate_with" {
		t.Fatalf("expected named arg, got %T", fc.Args[2])
	}
}

func TestParseScalarSubqueryAndExists(t *testing.T) {
	roundTrip(t, "SELECT (SELECT max(v) FROM t2) FROM t1")
	roundTrip(t, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)")
	roundTrip(t, "SELECT a FROM t WHERE a IN (SELECT a FROM u)")
	roundTrip(t, "SELECT a FROM t WHERE a NOT IN (1, 2, 3)")
}

func TestParsePrecedence(t *testing.T) {
	stmt := roundTrip(t, "SELECT 1 + 2 * 3")
	e := stmt.(*SelectStmt).Columns[0].Expr.(*BinaryExpr)
	if e.Op != OpAdd {
		t.Fatalf("expected + at top, got %v", e.Op)
	}
	if r := e.R.(*BinaryExpr); r.Op != OpMul {
		t.Fatal("expected * to bind tighter")
	}

	stmt = roundTrip(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	w := stmt.(*SelectStmt).Where.(*BinaryExpr)
	if w.Op != OpOr {
		t.Fatal("expected OR at top")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"INSERT INTO t",
		"SELECT * FROM (SELECT 1)", // subquery without alias
		"SELECT 'unterminated",
		"UPDATE t",
		"CREATE TABLE t ()",
		"SELECT a FROM t WHERE",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseMulti(t *testing.T) {
	stmts, err := ParseMulti("CREATE TABLE t (a int); INSERT INTO t (a) VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("want 3 statements, got %d", len(stmts))
	}
}

func TestParseComments(t *testing.T) {
	stmt, err := Parse("SELECT 1 -- trailing comment\n/* block */ + 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stmt.String(), "+") {
		t.Fatal("comment swallowed expression")
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	stmt := roundTrip(t, `SELECT "select" FROM "weird table"`)
	sel := stmt.(*SelectStmt)
	if sel.Columns[0].Expr.(*ColumnRef).Name != "select" {
		t.Fatal("quoted ident lost")
	}
	if sel.From[0].(*BaseTable).Name != "weird table" {
		t.Fatal("quoted table lost")
	}
}

func TestShardNameRewriteRoundTrip(t *testing.T) {
	// The distributed planner's core trick: replace table names with shard
	// names and deparse.
	stmt, err := Parse("SELECT count(*) FROM orders WHERE o_w_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	sel.From[0].(*BaseTable).Name = "orders_102008"
	out := sel.String()
	if !strings.Contains(out, "orders_102008") {
		t.Fatalf("rewrite failed: %s", out)
	}
	if _, err := Parse(out); err != nil {
		t.Fatalf("rewritten query does not re-parse: %v", err)
	}
}

func TestParseForUpdate(t *testing.T) {
	stmt := roundTrip(t, "SELECT * FROM t WHERE k = 1 FOR UPDATE")
	if !stmt.(*SelectStmt).ForUpdate {
		t.Fatal("lost FOR UPDATE")
	}
}
