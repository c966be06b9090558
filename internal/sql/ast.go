// Package sql implements the SQL dialect of the engine: lexer, parser,
// abstract syntax tree, and deparser. The deparser matters as much as the
// parser here: like Citus, the distributed planner rewrites table names in
// the AST to shard names and deparses the result back to SQL text to send to
// worker nodes.
package sql

import (
	"strings"

	"citusgo/internal/types"
)

// Statement is any parsed SQL statement. String deparses it back to SQL
// that the parser accepts (round-trip property).
type Statement interface {
	String() string
	stmt()
}

// Expr is any SQL expression node.
type Expr interface {
	String() string
	expr()
}

// ---------------------------------------------------------------------------
// Statements

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct  bool
	Columns   []SelectItem
	From      []TableRef // empty means SELECT <exprs> with no FROM
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     Expr
	Offset    Expr
	ForUpdate bool
}

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Star      bool   // SELECT * or t.*
	StarTable string // table qualifier for t.*
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (s *SelectStmt) stmt() {}

func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case c.Star && c.StarTable != "":
			sb.WriteString(quoteIdent(c.StarTable) + ".*")
		case c.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(c.Expr.String())
			if c.Alias != "" {
				sb.WriteString(" AS " + quoteIdent(c.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		sb.WriteString(" OFFSET " + s.Offset.String())
	}
	if s.ForUpdate {
		sb.WriteString(" FOR UPDATE")
	}
	return sb.String()
}

// TableRef is an entry in the FROM clause.
type TableRef interface {
	String() string
	tableRef()
}

// BaseTable references a named table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

func (t *BaseTable) String() string {
	s := quoteIdent(t.Name)
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// RefName is the name the rest of the query uses to reference this table.
func (t *BaseTable) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryRef is a derived table: (SELECT ...) AS alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

func (t *SubqueryRef) String() string {
	return "(" + t.Select.String() + ") AS " + quoteIdent(t.Alias)
}

// FuncRef is a function in the FROM clause, fn(args) [AS alias]: the
// relation of the rows it returns.
type FuncRef struct {
	Name  string
	Args  []Expr
	Alias string
}

func (*FuncRef) tableRef() {}

func (t *FuncRef) String() string {
	s := (&FuncCall{Name: t.Name, Args: t.Args}).String()
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// JoinType distinguishes join kinds.
type JoinType int

const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

// JoinRef is an explicit JOIN in the FROM clause.
type JoinRef struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr // nil for CROSS JOIN
}

func (*JoinRef) tableRef() {}

func (t *JoinRef) String() string {
	var kw string
	switch t.Type {
	case LeftJoin:
		kw = " LEFT JOIN "
	case CrossJoin:
		kw = " CROSS JOIN "
	default:
		kw = " JOIN "
	}
	s := t.Left.String() + kw + t.Right.String()
	if t.On != nil {
		s += " ON " + t.On.String()
	}
	return s
}

// InsertStmt is INSERT INTO ... VALUES / SELECT.
type InsertStmt struct {
	Table      string
	Alias      string // INSERT INTO t AS alias: the name RETURNING and ON CONFLICT see
	Columns    []string
	Rows       [][]Expr    // VALUES form
	Select     *SelectStmt // INSERT .. SELECT form
	OnConflict *OnConflictClause
	Returning  []SelectItem
}

// OnConflictClause models ON CONFLICT (cols) DO NOTHING / DO UPDATE SET.
type OnConflictClause struct {
	Columns  []string
	DoUpdate []Assignment // empty means DO NOTHING
}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

func (s *InsertStmt) stmt() {}

func (s *InsertStmt) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + quoteIdent(s.Table))
	if s.Alias != "" {
		sb.WriteString(" AS " + quoteIdent(s.Alias))
	}
	if len(s.Columns) > 0 {
		sb.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(c))
		}
		sb.WriteString(")")
	}
	if s.Select != nil {
		sb.WriteString(" " + s.Select.String())
	} else {
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(e.String())
			}
			sb.WriteString(")")
		}
	}
	if s.OnConflict != nil {
		sb.WriteString(" ON CONFLICT")
		if len(s.OnConflict.Columns) > 0 {
			sb.WriteString(" (")
			for i, c := range s.OnConflict.Columns {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(quoteIdent(c))
			}
			sb.WriteString(")")
		}
		if len(s.OnConflict.DoUpdate) == 0 {
			sb.WriteString(" DO NOTHING")
		} else {
			sb.WriteString(" DO UPDATE SET ")
			for i, a := range s.OnConflict.DoUpdate {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(quoteIdent(a.Column) + " = " + a.Value.String())
			}
		}
	}
	if len(s.Returning) > 0 {
		sb.WriteString(" RETURNING ")
		for i, r := range s.Returning {
			if i > 0 {
				sb.WriteString(", ")
			}
			if r.Star {
				sb.WriteString("*")
			} else {
				sb.WriteString(r.Expr.String())
			}
		}
	}
	return sb.String()
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table     string
	Alias     string
	Set       []Assignment
	Where     Expr
	Returning []SelectItem
}

func (s *UpdateStmt) stmt() {}

func (s *UpdateStmt) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + quoteIdent(s.Table))
	if s.Alias != "" {
		sb.WriteString(" AS " + quoteIdent(s.Alias))
	}
	sb.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(a.Column) + " = " + a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.Returning) > 0 {
		sb.WriteString(" RETURNING ")
		for i, r := range s.Returning {
			if i > 0 {
				sb.WriteString(", ")
			}
			if r.Star {
				sb.WriteString("*")
			} else {
				sb.WriteString(r.Expr.String())
			}
		}
	}
	return sb.String()
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Alias string
	Where Expr
}

func (s *DeleteStmt) stmt() {}

func (s *DeleteStmt) String() string {
	sb := "DELETE FROM " + quoteIdent(s.Table)
	if s.Alias != "" {
		sb += " AS " + quoteIdent(s.Alias)
	}
	if s.Where != nil {
		sb += " WHERE " + s.Where.String()
	}
	return sb
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       types.Type
	NotNull    bool
	PrimaryKey bool
	Default    Expr
	References string // referenced table for a foreign key, "" if none
	RefColumn  string
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // table-level primary key columns
	Using       string   // "" (heap) or "columnar"
}

func (s *CreateTableStmt) stmt() {}

func (s *CreateTableStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(quoteIdent(s.Name) + " (")
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(c.Name) + " " + c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		} else if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
		if c.Default != nil {
			sb.WriteString(" DEFAULT " + c.Default.String())
		}
		if c.References != "" {
			sb.WriteString(" REFERENCES " + quoteIdent(c.References))
			if c.RefColumn != "" {
				sb.WriteString(" (" + quoteIdent(c.RefColumn) + ")")
			}
		}
	}
	if len(s.PrimaryKey) > 0 {
		if len(s.Columns) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("PRIMARY KEY (")
		for i, c := range s.PrimaryKey {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(c))
		}
		sb.WriteString(")")
	}
	sb.WriteString(")")
	if s.Using != "" {
		sb.WriteString(" USING " + s.Using)
	}
	return sb.String()
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX ... ON ... USING ... (exprs).
type CreateIndexStmt struct {
	Name        string
	IfNotExists bool
	Table       string
	Using       string // "btree" (default) or "gin"
	Exprs       []Expr // column refs or expressions
	Unique      bool
	Ops         string // e.g. "gin_trgm_ops"; informational
}

func (s *CreateIndexStmt) stmt() {}

func (s *CreateIndexStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.Unique {
		sb.WriteString("UNIQUE ")
	}
	sb.WriteString("INDEX ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(quoteIdent(s.Name) + " ON " + quoteIdent(s.Table))
	if s.Using != "" {
		sb.WriteString(" USING " + s.Using)
	}
	sb.WriteString(" (")
	for i, e := range s.Exprs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(" + e.String() + ")")
		if s.Ops != "" {
			sb.WriteString(" " + s.Ops)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// DropTableStmt is DROP TABLE [IF EXISTS].
type DropTableStmt struct {
	Name     string
	IfExists bool
}

func (s *DropTableStmt) stmt() {}

func (s *DropTableStmt) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + quoteIdent(s.Name)
	}
	return "DROP TABLE " + quoteIdent(s.Name)
}

// DropIndexStmt is DROP INDEX [IF EXISTS].
type DropIndexStmt struct {
	Name     string
	IfExists bool
}

func (s *DropIndexStmt) stmt() {}

func (s *DropIndexStmt) String() string {
	if s.IfExists {
		return "DROP INDEX IF EXISTS " + quoteIdent(s.Name)
	}
	return "DROP INDEX " + quoteIdent(s.Name)
}

// TruncateStmt is TRUNCATE <table>.
type TruncateStmt struct {
	Name string
}

func (s *TruncateStmt) stmt()          {}
func (s *TruncateStmt) String() string { return "TRUNCATE " + quoteIdent(s.Name) }

// AlterTableAddColumnStmt is ALTER TABLE ... ADD COLUMN.
type AlterTableAddColumnStmt struct {
	Table  string
	Column ColumnDef
}

func (s *AlterTableAddColumnStmt) stmt() {}

func (s *AlterTableAddColumnStmt) String() string {
	out := "ALTER TABLE " + quoteIdent(s.Table) + " ADD COLUMN " +
		quoteIdent(s.Column.Name) + " " + s.Column.Type.String()
	if s.Column.NotNull {
		out += " NOT NULL"
	}
	if s.Column.Default != nil {
		out += " DEFAULT " + s.Column.Default.String()
	}
	return out
}

// Transaction control statements.
type (
	BeginStmt    struct{}
	CommitStmt   struct{}
	RollbackStmt struct{}
	// PrepareTransactionStmt is PREPARE TRANSACTION '<gid>' — the first
	// phase of two-phase commit, exactly as in PostgreSQL.
	PrepareTransactionStmt struct{ GID string }
	CommitPreparedStmt     struct{ GID string }
	RollbackPreparedStmt   struct{ GID string }
)

func (*BeginStmt) stmt()              {}
func (*CommitStmt) stmt()             {}
func (*RollbackStmt) stmt()           {}
func (*PrepareTransactionStmt) stmt() {}
func (*CommitPreparedStmt) stmt()     {}
func (*RollbackPreparedStmt) stmt()   {}

func (*BeginStmt) String() string    { return "BEGIN" }
func (*CommitStmt) String() string   { return "COMMIT" }
func (*RollbackStmt) String() string { return "ROLLBACK" }
func (s *PrepareTransactionStmt) String() string {
	return "PREPARE TRANSACTION " + types.QuoteString(s.GID)
}
func (s *CommitPreparedStmt) String() string {
	return "COMMIT PREPARED " + types.QuoteString(s.GID)
}
func (s *RollbackPreparedStmt) String() string {
	return "ROLLBACK PREPARED " + types.QuoteString(s.GID)
}

// CopyStmt is COPY <table> [(cols)] FROM STDIN (CSV). The row data is
// carried out of band by the protocol, as in PostgreSQL.
type CopyStmt struct {
	Table   string
	Columns []string
}

func (s *CopyStmt) stmt() {}

func (s *CopyStmt) String() string {
	out := "COPY " + quoteIdent(s.Table)
	if len(s.Columns) > 0 {
		out += " ("
		for i, c := range s.Columns {
			if i > 0 {
				out += ", "
			}
			out += quoteIdent(c)
		}
		out += ")"
	}
	return out + " FROM STDIN"
}

// SetStmt is SET <name> = <value>; used for session settings (and by the
// distributed layer to propagate the distributed transaction id, the way
// Citus assigns distributed transaction ids across nodes).
type SetStmt struct {
	Name  string
	Value Expr
}

func (s *SetStmt) stmt() {}

func (s *SetStmt) String() string {
	parts := strings.Split(s.Name, ".")
	for i, p := range parts {
		parts[i] = quoteIdent(p)
	}
	return "SET " + strings.Join(parts, ".") + " = " + s.Value.String()
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool // EXPLAIN ANALYZE: execute the statement and report timings
}

func (s *ExplainStmt) stmt() {}
func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}

// VacuumStmt is VACUUM [table]: reclaims dead MVCC tuple versions.
type VacuumStmt struct {
	Table string // "" = all tables
}

func (s *VacuumStmt) stmt() {}

func (s *VacuumStmt) String() string {
	if s.Table == "" {
		return "VACUUM"
	}
	return "VACUUM " + quoteIdent(s.Table)
}

// CallStmt is CALL <proc>(args) — stored procedure invocation, which the
// distributed layer can delegate to a worker based on a distribution
// argument (paper §3.8).
type CallStmt struct {
	Name string
	Args []Expr
}

func (s *CallStmt) stmt() {}

func (s *CallStmt) String() string {
	return "CALL " + (&FuncCall{Name: s.Name, Args: s.Args}).String()
}

// ---------------------------------------------------------------------------
// Expressions

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) expr() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return quoteIdent(e.Table) + "." + quoteIdent(e.Name)
	}
	return quoteIdent(e.Name)
}

// Literal is a constant value.
type Literal struct {
	Value types.Datum
}

func (*Literal) expr() {}

func (e *Literal) String() string { return types.QuoteLiteral(e.Value) }

// Param is a positional parameter $n (1-based).
type Param struct {
	Index int
}

func (*Param) expr() {}

func (e *Param) String() string { return "$" + itoa(e.Index) }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpConcat       // ||
	OpJSONGet      // ->
	OpJSONGetTxt   // ->>
	OpJSONContains // @>
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpConcat: "||",
	OpJSONGet: "->", OpJSONGetTxt: "->>", OpJSONContains: "@>",
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + binOpNames[e.Op] + " " + e.R.String() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*UnaryExpr) expr() {}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.E.String() + ")"
	}
	return "(" + e.Op + e.E.String() + ")"
}

// FuncCall is a function invocation, scalar or aggregate.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // count(*)
	Distinct bool // count(DISTINCT x)
}

func (*FuncCall) expr() {}

func (e *FuncCall) String() string {
	var sb strings.Builder
	sb.WriteString(quoteIdent(e.Name) + "(")
	if e.Star {
		sb.WriteString("*")
	} else {
		if e.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// NamedArg supports f(name := value) call syntax (used by the Citus UDFs,
// e.g. create_distributed_table(..., colocate_with := 'other')).
type NamedArg struct {
	Name  string
	Value Expr
}

func (*NamedArg) expr() {}

func (e *NamedArg) String() string { return quoteIdent(e.Name) + " := " + e.Value.String() }

// CaseExpr is CASE [operand] WHEN ... THEN ... ELSE ... END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	When Expr
	Then Expr
}

func (*CaseExpr) expr() {}

func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.When.String() + " THEN " + w.Then.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// InExpr is expr [NOT] IN (list | subquery).
type InExpr struct {
	E        Expr
	List     []Expr
	Subquery *SelectStmt
	Not      bool
}

func (*InExpr) expr() {}

func (e *InExpr) String() string {
	var sb strings.Builder
	sb.WriteString("(" + e.E.String())
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Subquery != nil {
		sb.WriteString(e.Subquery.String())
	} else {
		for i, v := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
	}
	sb.WriteString("))")
	return sb.String()
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

func (*BetweenExpr) expr() {}

func (e *BetweenExpr) String() string {
	s := "(" + e.E.String()
	if e.Not {
		s += " NOT"
	}
	return s + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// LikeExpr is expr [NOT] LIKE/ILIKE pattern.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	ILike   bool
	Not     bool
}

func (*LikeExpr) expr() {}

func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.ILike {
		op = "ILIKE"
	}
	if e.Not {
		op = "NOT " + op
	}
	return "(" + e.E.String() + " " + op + " " + e.Pattern.String() + ")"
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.E.String() + " IS NOT NULL)"
	}
	return "(" + e.E.String() + " IS NULL)"
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Select *SelectStmt
}

func (*SubqueryExpr) expr() {}

func (e *SubqueryExpr) String() string { return "(" + e.Select.String() + ")" }

// ExistsExpr is EXISTS (subquery).
type ExistsExpr struct {
	Select *SelectStmt
	Not    bool
}

func (*ExistsExpr) expr() {}

func (e *ExistsExpr) String() string {
	if e.Not {
		return "(NOT EXISTS (" + e.Select.String() + "))"
	}
	return "(EXISTS (" + e.Select.String() + "))"
}

// CastExpr is expr::type.
type CastExpr struct {
	E  Expr
	To types.Type
}

func (*CastExpr) expr() {}

func (e *CastExpr) String() string { return "(" + e.E.String() + ")::" + e.To.String() }

// ---------------------------------------------------------------------------
// Helpers

var reservedIdents = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "order": true,
	"limit": true, "offset": true, "join": true, "on": true, "as": true,
	"and": true, "or": true, "not": true, "in": true, "is": true, "null": true,
	"insert": true, "update": true, "delete": true, "set": true, "values": true,
	"table": true, "index": true, "create": true, "drop": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "between": true,
	"like": true, "ilike": true, "distinct": true, "having": true, "using": true,
	"left": true, "cross": true, "desc": true, "asc": true, "all": true,
	"user": true, "default": true, "primary": true, "references": true,
	"begin": true, "commit": true, "rollback": true, "copy": true, "call": true,
	"exists": true, "returning": true, "conflict": true, "do": true, "for": true,
	"to": true,
}

func quoteIdent(s string) string {
	needQuote := s == "" || reservedIdents[strings.ToLower(s)]
	if !needQuote {
		for i, r := range s {
			if r >= 'a' && r <= 'z' || r == '_' || (i > 0 && (r >= '0' && r <= '9')) {
				continue
			}
			needQuote = true
			break
		}
	}
	if needQuote {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
