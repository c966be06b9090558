package sql

import (
	"fmt"
	"strconv"
	"strings"

	"citusgo/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().val)
	}
	return stmt, nil
}

// ParseMulti parses a semicolon-separated script.
func ParseMulti(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var stmts []Statement
	for !p.atEOF() {
		if p.acceptOp(";") {
			continue
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements")
		}
	}
	return stmts, nil
}

// ParseExpr parses a standalone expression (used in tests and by custom
// rebalancer policies).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after expression")
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peekAt(n int) token {
	if p.i+n >= len(p.toks) {
		return token{kind: tkEOF}
	}
	return p.toks[p.i+n]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tkEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("syntax error: "+format, args...)
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tkKeyword && t.val == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().val)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tkOp && t.val == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, found %q", op, p.peek().val)
	}
	return nil
}

// ident accepts an identifier; it also tolerates non-reserved keywords used
// as identifiers (e.g. a column named "key" lexes as ident since KEY is a
// keyword — we allow a curated set).
var identLikeKeywords = map[string]bool{
	"KEY": true, "TIME": true, "ZONE": true, "DO": true, "ADD": true,
	"COLUMN": true, "NOTHING": true, "STDIN": true, "CSV": true, "BY": true,
	"DOUBLE": true, "PRECISION": true, "TRANSACTION": true, "END": true,
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tkIdent {
		p.i++
		return t.val, nil
	}
	if t.kind == tkKeyword && identLikeKeywords[t.val] {
		p.i++
		return strings.ToLower(t.val), nil
	}
	return "", p.errorf("expected identifier, found %q", t.val)
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, p.errorf("expected statement, found %q", t.val)
	}
	switch t.val {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "ALTER":
		return p.parseAlter()
	case "TRUNCATE":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &TruncateStmt{Name: name}, nil
	case "BEGIN":
		p.next()
		p.acceptKw("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		if p.acceptKw("PREPARED") {
			gid, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			return &CommitPreparedStmt{GID: gid}, nil
		}
		return &CommitStmt{}, nil
	case "ROLLBACK", "ABORT":
		p.next()
		if p.acceptKw("PREPARED") {
			gid, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			return &RollbackPreparedStmt{GID: gid}, nil
		}
		return &RollbackStmt{}, nil
	case "PREPARE":
		p.next()
		if err := p.expectKw("TRANSACTION"); err != nil {
			return nil, err
		}
		gid, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return &PrepareTransactionStmt{GID: gid}, nil
	case "COPY":
		return p.parseCopy()
	case "SET":
		return p.parseSet()
	case "EXPLAIN":
		p.next()
		analyze := false
		if p.peek().kind == tkIdent && p.peek().val == "analyze" {
			p.next()
			analyze = true
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	case "VACUUM":
		p.next()
		v := &VacuumStmt{}
		if p.peek().kind == tkIdent {
			v.Table, _ = p.ident()
		}
		return v, nil
	case "CALL":
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		return &CallStmt{Name: name, Args: args}, nil
	}
	return nil, p.errorf("unsupported statement %q", t.val)
}

func (p *parser) stringLit() (string, error) {
	t := p.peek()
	if t.kind != tkString {
		return "", p.errorf("expected string literal, found %q", t.val)
	}
	p.i++
	return t.val, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	}
	p.acceptKw("ALL")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	if p.acceptKw("FOR") {
		if err := p.expectKw("UPDATE"); err != nil {
			return nil, err
		}
		s.ForUpdate = true
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.peek().kind == tkIdent && p.peekAt(1).val == "." && p.peekAt(2).val == "*" {
		tbl := p.next().val
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		item.Alias, err = p.ident()
		if err != nil {
			return SelectItem{}, err
		}
	} else if p.peek().kind == tkIdent {
		// bare alias
		item.Alias = p.next().val
	}
	return item, nil
}

// parseTableRef parses one FROM item, including chained JOINs.
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.acceptKw("JOIN"):
			jt = InnerJoin
		case p.peek().val == "INNER" && p.peekAt(1).val == "JOIN":
			p.next()
			p.next()
			jt = InnerJoin
		case p.peek().val == "LEFT":
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = LeftJoin
		case p.peek().val == "CROSS" && p.peekAt(1).val == "JOIN":
			p.next()
			p.next()
			jt = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Type: jt, Left: left, Right: right}
		if jt != CrossJoin {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			j.On, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		left = j
	}
}

func (p *parser) parseTablePrimary() (TableRef, error) {
	if p.acceptOp("(") {
		if p.peek().val == "SELECT" {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			p.acceptKw("AS")
			alias, err := p.ident()
			if err != nil {
				return nil, p.errorf("subquery in FROM must have an alias")
			}
			return &SubqueryRef{Select: sel, Alias: alias}, nil
		}
		// parenthesized join
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return tr, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var args []Expr
	isFunc := p.peek().kind == tkOp && p.peek().val == "("
	if isFunc {
		if args, err = p.parseArgs(); err != nil {
			return nil, err
		}
	}
	alias := ""
	if p.acceptKw("AS") {
		if alias, err = p.ident(); err != nil {
			return nil, err
		}
	} else if p.peek().kind == tkIdent {
		alias = p.next().val
	}
	if isFunc {
		return &FuncRef{Name: name, Args: args, Alias: alias}, nil
	}
	return &BaseTable{Name: name, Alias: alias}, nil
}

// parseArgs parses the parenthesized argument list of a CALL or of a
// function in FROM.
func (p *parser) parseArgs() ([]Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.acceptOp(")") {
		return nil, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	return args, p.expectOp(")")
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.acceptKw("AS") {
		if ins.Alias, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.acceptOp("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw("VALUES"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
	case p.peek().val == "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
	default:
		return nil, p.errorf("expected VALUES or SELECT in INSERT")
	}
	if p.acceptKw("ON") {
		if err := p.expectKw("CONFLICT"); err != nil {
			return nil, err
		}
		oc := &OnConflictClause{}
		if p.acceptOp("(") {
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				oc.Columns = append(oc.Columns, c)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("DO"); err != nil {
			return nil, err
		}
		if p.acceptKw("NOTHING") {
			// empty DoUpdate = DO NOTHING
		} else if p.acceptKw("UPDATE") {
			if err := p.expectKw("SET"); err != nil {
				return nil, err
			}
			for {
				a, err := p.parseAssignment()
				if err != nil {
					return nil, err
				}
				oc.DoUpdate = append(oc.DoUpdate, a)
				if !p.acceptOp(",") {
					break
				}
			}
		} else {
			return nil, p.errorf("expected DO NOTHING or DO UPDATE")
		}
		ins.OnConflict = oc
	}
	if p.acceptKw("RETURNING") {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			ins.Returning = append(ins.Returning, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return ins, nil
}

func (p *parser) parseAssignment() (Assignment, error) {
	col, err := p.ident()
	if err != nil {
		return Assignment{}, err
	}
	if err := p.expectOp("="); err != nil {
		return Assignment{}, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{Column: col, Value: v}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: name}
	if p.acceptKw("AS") {
		u.Alias, err = p.ident()
		if err != nil {
			return nil, err
		}
	} else if p.peek().kind == tkIdent && p.peekAt(0).val != "set" {
		// bare alias (rare); SET is a keyword so no ambiguity
		u.Alias = p.next().val
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		a, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		u.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKw("RETURNING") {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			u.Returning = append(u.Returning, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return u, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: name}
	if p.acceptKw("AS") {
		d.Alias, err = p.ident()
		if err != nil {
			return nil, err
		}
	} else if p.peek().kind == tkIdent {
		d.Alias = p.next().val
	}
	if p.acceptKw("WHERE") {
		d.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		return p.parseCreateTable()
	case p.acceptKw("INDEX"):
		return p.parseCreateIndex(unique)
	}
	return nil, p.errorf("unsupported CREATE statement")
}

func (p *parser) parseCreateTable() (Statement, error) {
	ct := &CreateTableStmt{}
	if p.peek().val == "IF" {
		p.next()
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if _, err := p.ident(); err != nil { // EXISTS lexes as keyword
			if !p.acceptKw("EXISTS") {
				return nil, p.errorf("expected EXISTS")
			}
		}
		ct.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else if p.acceptKw("FOREIGN") {
			// FOREIGN KEY (col) REFERENCES table (col) — recorded on the column
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			fkCol, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			if err := p.expectKw("REFERENCES"); err != nil {
				return nil, err
			}
			refTable, err := p.ident()
			if err != nil {
				return nil, err
			}
			refCol := ""
			if p.acceptOp("(") {
				refCol, err = p.ident()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			for i := range ct.Columns {
				if ct.Columns[i].Name == fkCol {
					ct.Columns[i].References = refTable
					ct.Columns[i].RefColumn = refCol
				}
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("USING") {
		u, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct.Using = u
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	col.Type, err = p.parseType()
	if err != nil {
		return col, err
	}
	for {
		switch {
		case p.acceptKw("NOT"):
			if !p.acceptKw("NULL") {
				return col, p.errorf("expected NULL after NOT")
			}
			col.NotNull = true
		case p.acceptKw("NULL"):
			// explicit nullable; no-op
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.acceptKw("DEFAULT"):
			col.Default, err = p.parseExpr()
			if err != nil {
				return col, err
			}
		case p.acceptKw("REFERENCES"):
			col.References, err = p.ident()
			if err != nil {
				return col, err
			}
			if p.acceptOp("(") {
				col.RefColumn, err = p.ident()
				if err != nil {
					return col, err
				}
				if err := p.expectOp(")"); err != nil {
					return col, err
				}
			}
		case p.acceptKw("UNIQUE"):
			// accepted and ignored (uniqueness enforced only via primary keys)
		default:
			return col, nil
		}
	}
}

// parseType reads a (possibly multi-word) SQL type name, skipping any
// parenthesized precision arguments like varchar(20) or numeric(12,2).
func (p *parser) parseType() (types.Type, error) {
	var words []string
	t := p.peek()
	switch {
	case t.kind == tkIdent:
		words = append(words, p.next().val)
	case t.kind == tkKeyword && (t.val == "DOUBLE" || t.val == "CHARACTER" || t.val == "TIME"):
		words = append(words, strings.ToLower(p.next().val))
	default:
		return types.Unknown, p.errorf("expected type name, found %q", t.val)
	}
	// multi-word suffixes
	for {
		t := p.peek()
		if t.kind == tkKeyword {
			switch t.val {
			case "PRECISION", "VARYING":
				words = append(words, strings.ToLower(p.next().val))
				continue
			case "WITH", "WITHOUT":
				p.next()
				p.acceptKw("TIME")
				p.acceptKw("ZONE")
				continue
			}
		}
		break
	}
	if p.acceptOp("(") {
		depth := 1
		for depth > 0 && !p.atEOF() {
			switch p.next().val {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	return types.ParseType(strings.Join(words, " "))
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	ci := &CreateIndexStmt{Unique: unique, Using: "btree"}
	if p.peek().val == "IF" {
		p.next()
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if !p.acceptKw("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ci.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	ci.Table, err = p.ident()
	if err != nil {
		return nil, err
	}
	if p.acceptKw("USING") {
		ci.Using, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ci.Exprs = append(ci.Exprs, e)
		// optional operator class name (e.g. gin_trgm_ops)
		if p.peek().kind == tkIdent && strings.HasSuffix(p.peek().val, "_ops") {
			ci.Ops = p.next().val
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	index := p.acceptKw("INDEX")
	if !index && !p.acceptKw("TABLE") {
		return nil, p.errorf("unsupported DROP statement")
	}
	ifExists := false
	if p.peek().val == "IF" {
		p.next()
		if !p.acceptKw("EXISTS") {
			return nil, p.errorf("expected EXISTS")
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if index {
		return &DropIndexStmt{Name: name, IfExists: ifExists}, nil
	}
	return &DropTableStmt{Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseAlter() (Statement, error) {
	p.next() // ALTER
	if !p.acceptKw("TABLE") {
		return nil, p.errorf("unsupported ALTER statement")
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("ADD") {
		return nil, p.errorf("only ALTER TABLE ... ADD COLUMN is supported")
	}
	p.acceptKw("COLUMN")
	col, err := p.parseColumnDef()
	if err != nil {
		return nil, err
	}
	return &AlterTableAddColumnStmt{Table: table, Column: col}, nil
}

func (p *parser) parseCopy() (Statement, error) {
	p.next() // COPY
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	c := &CopyStmt{Table: name}
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			c.Columns = append(c.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	if !p.acceptKw("STDIN") {
		return nil, p.errorf("only COPY ... FROM STDIN is supported")
	}
	// optional WITH (...) / CSV options, accepted and ignored (CSV is the
	// only format)
	if p.acceptKw("WITH") {
		if p.acceptOp("(") {
			depth := 1
			for depth > 0 && !p.atEOF() {
				switch p.next().val {
				case "(":
					depth++
				case ")":
					depth--
				}
			}
		}
	}
	p.acceptKw("CSV")
	return c, nil
}

func (p *parser) parseSet() (Statement, error) {
	p.next() // SET
	p.acceptKw("LOCAL")
	// SET TRANSACTION ISOLATION LEVEL <level> is sugar for the
	// transaction_isolation session setting (SERIALIZABLE engages SSI;
	// everything else runs the engine's native snapshot isolation). The
	// level words are not reserved keywords, so match them loosely.
	acceptWord := func(w string) bool {
		t := p.peek()
		if (t.kind == tkKeyword || t.kind == tkIdent) && strings.EqualFold(t.val, w) {
			p.i++
			return true
		}
		return false
	}
	if acceptWord("TRANSACTION") {
		if !acceptWord("ISOLATION") || !acceptWord("LEVEL") {
			return nil, p.errorf("expected ISOLATION LEVEL after SET TRANSACTION")
		}
		var level string
		switch {
		case acceptWord("SERIALIZABLE"):
			level = "serializable"
		case acceptWord("REPEATABLE"):
			if !acceptWord("READ") {
				return nil, p.errorf("expected READ after REPEATABLE")
			}
			level = "repeatable read"
		case acceptWord("READ"):
			switch {
			case acceptWord("COMMITTED"):
				level = "read committed"
			case acceptWord("UNCOMMITTED"):
				level = "read uncommitted"
			default:
				return nil, p.errorf("expected COMMITTED or UNCOMMITTED after READ")
			}
		default:
			return nil, p.errorf("unknown isolation level")
		}
		return &SetStmt{Name: "transaction_isolation", Value: &Literal{Value: level}}, nil
	}
	var nameParts []string
	part, err := p.ident()
	if err != nil {
		return nil, err
	}
	nameParts = append(nameParts, part)
	for p.acceptOp(".") {
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		nameParts = append(nameParts, part)
	}
	if !p.acceptOp("=") && !p.acceptKw("TO") {
		return nil, p.errorf("expected = or TO in SET")
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: strings.Join(nameParts, "."), Value: v}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().val == "AND" && p.peek().kind == tkKeyword {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.peek().kind == tkKeyword && p.peek().val == "NOT" && p.peekAt(1).val != "EXISTS" {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"@>": OpJSONContains,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tkOp {
			if op, ok := cmpOps[t.val]; ok {
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BinaryExpr{Op: op, L: left, R: right}
				continue
			}
		}
		if t.kind == tkKeyword {
			switch t.val {
			case "IS":
				p.next()
				not := p.acceptKw("NOT")
				if !p.acceptKw("NULL") {
					return nil, p.errorf("expected NULL after IS")
				}
				left = &IsNullExpr{E: left, Not: not}
				continue
			case "BETWEEN":
				p.next()
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &BetweenExpr{E: left, Lo: lo, Hi: hi}
				continue
			case "IN":
				p.next()
				in, err := p.parseInTail(left, false)
				if err != nil {
					return nil, err
				}
				left = in
				continue
			case "LIKE", "ILIKE":
				ilike := t.val == "ILIKE"
				p.next()
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = &LikeExpr{E: left, Pattern: pat, ILike: ilike}
				continue
			case "NOT":
				// expr NOT IN / NOT LIKE / NOT BETWEEN
				nt := p.peekAt(1)
				if nt.kind == tkKeyword {
					switch nt.val {
					case "IN":
						p.next()
						p.next()
						in, err := p.parseInTail(left, true)
						if err != nil {
							return nil, err
						}
						left = in
						continue
					case "LIKE", "ILIKE":
						ilike := nt.val == "ILIKE"
						p.next()
						p.next()
						pat, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						left = &LikeExpr{E: left, Pattern: pat, ILike: ilike, Not: true}
						continue
					case "BETWEEN":
						p.next()
						p.next()
						lo, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						if err := p.expectKw("AND"); err != nil {
							return nil, err
						}
						hi, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						left = &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: true}
						continue
					}
				}
			}
		}
		return left, nil
	}
}

func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &InExpr{E: left, Not: not}
	if p.peek().val == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Subquery = sel
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkOp {
			return left, nil
		}
		var op BinOp
		switch t.val {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkOp {
			return left, nil
		}
		var op BinOp
		switch t.val {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tkOp && p.peek().val == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch v := lit.Value.(type) {
			case int64:
				return &Literal{Value: -v}, nil
			case float64:
				return &Literal{Value: -v}, nil
			}
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.peek().kind == tkOp && p.peek().val == "+" {
		p.next()
	}
	return p.parsePostfix()
}

// parsePostfix handles ::cast and the JSONB navigation operators, which bind
// tighter than arithmetic.
func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tkOp {
			return e, nil
		}
		switch t.val {
		case "::":
			p.next()
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			e = &CastExpr{E: e, To: ty}
		case "->":
			p.next()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			e = &BinaryExpr{Op: OpJSONGet, L: e, R: r}
		case "->>":
			p.next()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			e = &BinaryExpr{Op: OpJSONGetTxt, L: e, R: r}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.next()
		if strings.ContainsAny(t.val, ".eE") {
			f, err := strconv.ParseFloat(t.val, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.val)
			}
			return &Literal{Value: f}, nil
		}
		n, err := strconv.ParseInt(t.val, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.val, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.val)
			}
			return &Literal{Value: f}, nil
		}
		return &Literal{Value: n}, nil
	case tkString:
		p.next()
		return &Literal{Value: t.val}, nil
	case tkParam:
		p.next()
		n, err := strconv.Atoi(t.val)
		if err != nil || n < 1 {
			return nil, p.errorf("bad parameter $%s", t.val)
		}
		return &Param{Index: n}, nil
	case tkKeyword:
		switch t.val {
		case "NULL":
			p.next()
			return &Literal{Value: nil}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: false}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sel}, nil
		case "NOT":
			if p.peekAt(1).val == "EXISTS" {
				p.next()
				p.next()
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &ExistsExpr{Select: sel, Not: true}, nil
			}
		case "CAST":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &CastExpr{E: e, To: ty}, nil
		}
		// identifier-like keywords fall through to ident handling
		if identLikeKeywords[t.val] {
			return p.parseIdentExpr()
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.val)
	case tkIdent:
		return p.parseIdentExpr()
	case tkOp:
		if t.val == "(" {
			p.next()
			if p.peek().val == "SELECT" {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.val)
}

func (p *parser) parseIdentExpr() (Expr, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// named argument: name := expr
	if p.peek().kind == tkOp && p.peek().val == ":=" {
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &NamedArg{Name: name, Value: v}, nil
	}
	// function call
	if p.peek().kind == tkOp && p.peek().val == "(" {
		p.next()
		fc := &FuncCall{Name: name}
		if p.acceptOp("*") {
			fc.Star = true
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if !p.acceptOp(")") {
			if p.acceptKw("DISTINCT") {
				fc.Distinct = true
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		return fc, nil
	}
	// qualified column: a.b
	if p.peek().kind == tkOp && p.peek().val == "." {
		p.next()
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}
