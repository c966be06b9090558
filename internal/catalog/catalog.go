// Package catalog holds per-node schema metadata: tables, columns, and
// index definitions. The distributed layer keeps its own metadata (shard
// placements etc.) in internal/citus/metadata; this package is the local
// equivalent of PostgreSQL's pg_class/pg_attribute.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    types.Type
	NotNull bool
	Default sql.Expr // evaluated at insert time when the column is omitted
}

// IndexDef describes an index on a table.
type IndexDef struct {
	Name   string
	Table  string
	Using  string // "btree" or "gin"
	Exprs  []sql.Expr
	Unique bool
}

// Table describes a table.
type Table struct {
	ID      int64
	Name    string
	Columns []Column
	// PrimaryKey holds column ordinals of the primary key (empty if none).
	PrimaryKey []int
	// ForeignKeys are informational; enforcement is local-only, mirroring
	// how Citus enforces FKs between co-located shards.
	ForeignKeys []ForeignKey
	// Using is the storage access method: "" / "heap", or "columnar".
	Using string
	// Indexes on the table, including the implicit primary key index.
	Indexes []*IndexDef
}

// ForeignKey records a column-level REFERENCES constraint.
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// Catalog is a concurrency-safe table registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	nextID atomic.Int64
}

// New creates an empty catalog.
func New() *Catalog {
	c := &Catalog{tables: make(map[string]*Table)}
	c.nextID.Store(1)
	return c
}

// Create registers a new table built from a parsed CREATE TABLE statement.
func (c *Catalog) Create(stmt *sql.CreateTableStmt) (*Table, error) {
	t := &Table{
		Name:  stmt.Name,
		Using: stmt.Using,
	}
	seen := map[string]bool{}
	for _, cd := range stmt.Columns {
		if seen[cd.Name] {
			return nil, fmt.Errorf("column %q specified more than once", cd.Name)
		}
		seen[cd.Name] = true
		t.Columns = append(t.Columns, Column{
			Name:    cd.Name,
			Type:    cd.Type,
			NotNull: cd.NotNull || cd.PrimaryKey,
			Default: cd.Default,
		})
		if cd.PrimaryKey {
			t.PrimaryKey = append(t.PrimaryKey, len(t.Columns)-1)
		}
		if cd.References != "" {
			t.ForeignKeys = append(t.ForeignKeys, ForeignKey{
				Column: cd.Name, RefTable: cd.References, RefColumn: cd.RefColumn,
			})
		}
	}
	for _, pk := range stmt.PrimaryKey {
		idx := t.ColumnIndex(pk)
		if idx == -1 {
			return nil, fmt.Errorf("primary key column %q does not exist", pk)
		}
		t.Columns[idx].NotNull = true
		t.PrimaryKey = append(t.PrimaryKey, idx)
	}
	if len(t.PrimaryKey) > 0 {
		var exprs []sql.Expr
		for _, ord := range t.PrimaryKey {
			exprs = append(exprs, &sql.ColumnRef{Name: t.Columns[ord].Name})
		}
		t.Indexes = append(t.Indexes, &IndexDef{
			Name:   t.Name + "_pkey",
			Table:  t.Name,
			Using:  "btree",
			Exprs:  exprs,
			Unique: true,
		})
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name]; exists {
		if stmt.IfNotExists {
			return c.tables[t.Name], nil
		}
		return nil, fmt.Errorf("relation %q already exists", t.Name)
	}
	for _, def := range t.Indexes {
		if c.indexOwner(def.Name) != nil {
			return nil, fmt.Errorf("relation %q already exists", def.Name)
		}
	}
	t.ID = c.nextID.Add(1)
	c.tables[t.Name] = t
	return t, nil
}

// Get looks up a table by name.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Drop removes a table. Returns false if it did not exist.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	return true
}

// AddIndex attaches an index definition to its table. Index names are
// unique across the catalog, as in PostgreSQL's relation namespace: DROP INDEX
// names no table, so the name alone must say which index it drops, on this
// node and on every node that replays the statement.
func (c *Catalog) AddIndex(def *IndexDef) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[def.Table]
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", def.Table)
	}
	if c.indexOwner(def.Name) != nil {
		return nil, fmt.Errorf("index %q already exists", def.Name)
	}
	t.Indexes = append(t.Indexes, def)
	return t, nil
}

// indexOwner returns the table that has an index called name, or nil. The
// caller holds mu.
func (c *Catalog) indexOwner(name string) *Table {
	for _, t := range c.tables {
		for _, def := range t.Indexes {
			if def.Name == name {
				return t
			}
		}
	}
	return nil
}

// IndexTable returns the name of the table that has an index called name.
func (c *Catalog) IndexTable(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if t := c.indexOwner(name); t != nil {
		return t.Name, true
	}
	return "", false
}

// DropIndex detaches the index called name from table. The table's index
// list is replaced, not edited: a reader may hold the old one.
func (c *Catalog) DropIndex(table, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("relation %q does not exist", table)
	}
	for i, def := range t.Indexes {
		if def.Name == name {
			t.Indexes = append(t.Indexes[:i:i], t.Indexes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("index %q does not exist", name)
}

// AddColumn appends a column to an existing table (ALTER TABLE ADD COLUMN).
func (c *Catalog) AddColumn(table string, col Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", table)
	}
	if t.ColumnIndex(col.Name) != -1 {
		return nil, fmt.Errorf("column %q already exists", col.Name)
	}
	t.Columns = append(t.Columns, col)
	return t, nil
}

// List returns all table names sorted.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
