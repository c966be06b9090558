package catalog

import (
	"testing"

	"citusgo/internal/sql"
)

func create(t *testing.T, c *Catalog, ddl string) *Table {
	t.Helper()
	stmt, err := sql.Parse(ddl)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Create(stmt.(*sql.CreateTableStmt))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateAndLookup(t *testing.T) {
	c := New()
	tbl := create(t, c, "CREATE TABLE t (id bigint PRIMARY KEY, name text NOT NULL, score double precision)")
	if tbl.ID == 0 {
		t.Fatal("no table id assigned")
	}
	if got, ok := c.Get("t"); !ok || got != tbl {
		t.Fatal("lookup failed")
	}
	if tbl.ColumnIndex("name") != 1 || tbl.ColumnIndex("missing") != -1 {
		t.Fatal("column index")
	}
	if !tbl.Columns[0].NotNull || !tbl.Columns[1].NotNull || tbl.Columns[2].NotNull {
		t.Fatalf("not-null flags: %+v", tbl.Columns)
	}
	// the primary key index is implicit
	if len(tbl.Indexes) != 1 || tbl.Indexes[0].Name != "t_pkey" || !tbl.Indexes[0].Unique {
		t.Fatalf("pk index: %+v", tbl.Indexes)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	c := New()
	tbl := create(t, c, "CREATE TABLE o (w bigint, d bigint, v text, PRIMARY KEY (w, d))")
	if len(tbl.PrimaryKey) != 2 || tbl.PrimaryKey[0] != 0 || tbl.PrimaryKey[1] != 1 {
		t.Fatalf("pk ordinals: %v", tbl.PrimaryKey)
	}
	if !tbl.Columns[0].NotNull || !tbl.Columns[1].NotNull {
		t.Fatal("pk columns must be not-null")
	}
}

func TestDuplicateHandling(t *testing.T) {
	c := New()
	create(t, c, "CREATE TABLE d (a bigint)")
	stmt, _ := sql.Parse("CREATE TABLE d (a bigint)")
	if _, err := c.Create(stmt.(*sql.CreateTableStmt)); err == nil {
		t.Fatal("duplicate table accepted")
	}
	stmt, _ = sql.Parse("CREATE TABLE IF NOT EXISTS d (a bigint)")
	if _, err := c.Create(stmt.(*sql.CreateTableStmt)); err != nil {
		t.Fatalf("IF NOT EXISTS must be a no-op: %v", err)
	}
	stmt, _ = sql.Parse("CREATE TABLE dup (a bigint, a text)")
	if _, err := c.Create(stmt.(*sql.CreateTableStmt)); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestIndexManagement(t *testing.T) {
	c := New()
	tbl := create(t, c, "CREATE TABLE i (a bigint, b text)")
	def := &IndexDef{Name: "i_b", Table: "i", Using: "btree", Exprs: []sql.Expr{&sql.ColumnRef{Name: "b"}}}
	if _, err := c.AddIndex(def); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes) != 1 {
		t.Fatal("index not attached")
	}
	if _, err := c.AddIndex(def); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := c.AddIndex(&IndexDef{Name: "x", Table: "nope"}); err == nil {
		t.Fatal("index on missing table accepted")
	}
}

// An index name is taken across the whole catalog, the primary key's
// <table>_pkey included, so DROP INDEX <name> resolves to one table on every
// node that runs or replays it.
func TestIndexNamesUniqueAcrossTables(t *testing.T) {
	c := New()
	create(t, c, "CREATE TABLE a (k bigint PRIMARY KEY, x bigint)")
	create(t, c, "CREATE TABLE b (k bigint PRIMARY KEY, y bigint)")
	col := func(name string) []sql.Expr { return []sql.Expr{&sql.ColumnRef{Name: name}} }
	if _, err := c.AddIndex(&IndexDef{Name: "i", Table: "a", Using: "btree", Exprs: col("x")}); err != nil {
		t.Fatal(err)
	}
	for _, def := range []*IndexDef{
		{Name: "i", Table: "b", Using: "btree", Exprs: col("y")},
		{Name: "a_pkey", Table: "b", Using: "btree", Exprs: col("y")},
	} {
		if _, err := c.AddIndex(def); err == nil {
			t.Fatalf("index %q accepted on %q beside the one on another table", def.Name, def.Table)
		}
	}
	if tbl, ok := c.IndexTable("i"); !ok || tbl != "a" {
		t.Fatalf("IndexTable(i) = %q, %v; want a", tbl, ok)
	}
	// a table whose primary key's index would take a name in use
	if _, err := c.AddIndex(&IndexDef{Name: "c_pkey", Table: "a", Using: "btree", Exprs: col("x")}); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("CREATE TABLE c (k bigint PRIMARY KEY)")
	if _, err := c.Create(stmt.(*sql.CreateTableStmt)); err == nil {
		t.Fatal("CREATE TABLE c accepted while a's index c_pkey exists")
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("the refused table was registered")
	}
	// a dropped index's name is free again, on any table
	if err := c.DropIndex("a", "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex(&IndexDef{Name: "i", Table: "b", Using: "btree", Exprs: col("y")}); err != nil {
		t.Fatal(err)
	}
	if tbl, _ := c.IndexTable("i"); tbl != "b" {
		t.Fatalf("IndexTable(i) = %q, want b", tbl)
	}
}

func TestAddColumnAndDrop(t *testing.T) {
	c := New()
	create(t, c, "CREATE TABLE m (a bigint)")
	if _, err := c.AddColumn("m", Column{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddColumn("m", Column{Name: "b"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if !c.Drop("m") {
		t.Fatal("drop failed")
	}
	if c.Drop("m") {
		t.Fatal("double drop succeeded")
	}
}

func TestForeignKeysRecorded(t *testing.T) {
	c := New()
	create(t, c, "CREATE TABLE parent (id bigint PRIMARY KEY)")
	tbl := create(t, c, "CREATE TABLE child (id bigint PRIMARY KEY, pid bigint REFERENCES parent (id))")
	if len(tbl.ForeignKeys) != 1 || tbl.ForeignKeys[0].RefTable != "parent" {
		t.Fatalf("fks: %+v", tbl.ForeignKeys)
	}
}

func TestList(t *testing.T) {
	c := New()
	create(t, c, "CREATE TABLE b (a bigint)")
	create(t, c, "CREATE TABLE a (a bigint)")
	got := c.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("list: %v", got)
	}
}
