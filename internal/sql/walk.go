package sql

// WalkTables visits every base-table reference in a statement, including
// those in FROM subqueries and expression subqueries. The distributed
// planner uses it to find which tables a query touches and — via the
// pointer — to rewrite table names to shard names before deparsing, exactly
// the rewrite Citus performs. A function in FROM is no table: it is skipped.
func WalkTables(stmt Statement, fn func(*BaseTable)) {
	walkRelations(stmt, func(tr TableRef) {
		if bt, ok := tr.(*BaseTable); ok {
			fn(bt)
		}
	})
}

// CallsFunction reports whether a FROM clause of stmt, in a subquery or not,
// calls a function.
func CallsFunction(stmt Statement) bool {
	found := false
	walkRelations(stmt, func(tr TableRef) {
		if _, ok := tr.(*FuncRef); ok {
			found = true
		}
	})
	return found
}

// walkRelations visits every relation a statement reads or writes: each base
// table and each function in FROM.
func walkRelations(stmt Statement, fn func(TableRef)) {
	switch st := stmt.(type) {
	case *SelectStmt:
		walkSelectTables(st, fn)
	case *InsertStmt:
		fn(&BaseTable{Name: st.Table}) // note: synthetic; use WalkTablesMut for rewriting
		if st.Select != nil {
			walkSelectTables(st.Select, fn)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				walkExprTables(e, fn)
			}
		}
	case *UpdateStmt:
		fn(&BaseTable{Name: st.Table})
		walkExprTables(st.Where, fn)
		for _, a := range st.Set {
			walkExprTables(a.Value, fn)
		}
	case *DeleteStmt:
		fn(&BaseTable{Name: st.Table})
		walkExprTables(st.Where, fn)
	case *ExplainStmt:
		walkRelations(st.Stmt, fn)
	case *CreateIndexStmt:
		fn(&BaseTable{Name: st.Table})
	case *DropTableStmt:
		fn(&BaseTable{Name: st.Name})
	case *TruncateStmt:
		fn(&BaseTable{Name: st.Name})
	case *AlterTableAddColumnStmt:
		fn(&BaseTable{Name: st.Table})
	case *CopyStmt:
		fn(&BaseTable{Name: st.Table})
	}
}

func walkSelectTables(sel *SelectStmt, fn func(TableRef)) {
	if sel == nil {
		return
	}
	for _, tr := range sel.From {
		walkTableRef(tr, fn)
	}
	for _, c := range sel.Columns {
		walkExprTables(c.Expr, fn)
	}
	walkExprTables(sel.Where, fn)
	for _, g := range sel.GroupBy {
		walkExprTables(g, fn)
	}
	walkExprTables(sel.Having, fn)
	for _, o := range sel.OrderBy {
		walkExprTables(o.Expr, fn)
	}
}

func walkTableRef(tr TableRef, fn func(TableRef)) {
	switch t := tr.(type) {
	case *BaseTable:
		fn(t)
	case *FuncRef:
		fn(t)
		for _, a := range t.Args {
			walkExprTables(a, fn)
		}
	case *SubqueryRef:
		walkSelectTables(t.Select, fn)
	case *JoinRef:
		walkTableRef(t.Left, fn)
		walkTableRef(t.Right, fn)
		walkExprTables(t.On, fn)
	}
}

func walkExprTables(e Expr, fn func(TableRef)) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		walkExprTables(n.L, fn)
		walkExprTables(n.R, fn)
	case *UnaryExpr:
		walkExprTables(n.E, fn)
	case *FuncCall:
		for _, a := range n.Args {
			walkExprTables(a, fn)
		}
	case *CaseExpr:
		walkExprTables(n.Operand, fn)
		for _, w := range n.Whens {
			walkExprTables(w.When, fn)
			walkExprTables(w.Then, fn)
		}
		walkExprTables(n.Else, fn)
	case *InExpr:
		walkExprTables(n.E, fn)
		for _, item := range n.List {
			walkExprTables(item, fn)
		}
		walkSelectTables(n.Subquery, fn)
	case *BetweenExpr:
		walkExprTables(n.E, fn)
		walkExprTables(n.Lo, fn)
		walkExprTables(n.Hi, fn)
	case *LikeExpr:
		walkExprTables(n.E, fn)
		walkExprTables(n.Pattern, fn)
	case *IsNullExpr:
		walkExprTables(n.E, fn)
	case *CastExpr:
		walkExprTables(n.E, fn)
	case *SubqueryExpr:
		walkSelectTables(n.Select, fn)
	case *ExistsExpr:
		walkSelectTables(n.Select, fn)
	case *NamedArg:
		walkExprTables(n.Value, fn)
	}
}

// FromTables returns the distinct table names referenced by a statement's
// FROM trees (including derived tables and DML targets), but NOT by
// expression subqueries. The distributed planner routes on these; a query
// whose only distributed references sit in expression subqueries executes
// locally, with each subquery recursively planned as its own distributed
// query.
func FromTables(stmt Statement) []string {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	var fromSelect func(sel *SelectStmt)
	var fromTR func(tr TableRef)
	fromTR = func(tr TableRef) {
		switch t := tr.(type) {
		case *BaseTable:
			add(t.Name)
		case *SubqueryRef:
			fromSelect(t.Select)
		case *JoinRef:
			fromTR(t.Left)
			fromTR(t.Right)
		}
	}
	fromSelect = func(sel *SelectStmt) {
		if sel == nil {
			return
		}
		for _, tr := range sel.From {
			fromTR(tr)
		}
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		fromSelect(st)
	case *InsertStmt:
		add(st.Table)
		fromSelect(st.Select)
	case *UpdateStmt:
		add(st.Table)
	case *DeleteStmt:
		add(st.Table)
	case *ExplainStmt:
		return FromTables(st.Stmt)
	default:
		return StatementTables(stmt)
	}
	return names
}

// StatementTables returns the distinct table names a statement references,
// in first-reference order.
func StatementTables(stmt Statement) []string {
	var names []string
	seen := map[string]bool{}
	WalkTables(stmt, func(bt *BaseTable) {
		if !seen[bt.Name] {
			seen[bt.Name] = true
			names = append(names, bt.Name)
		}
	})
	return names
}

// CloneStatement deep-copies a statement by deparsing and re-parsing it —
// the round-trip property the parser tests guarantee. The distributed
// planner clones per task before rewriting names to per-shard names.
func CloneStatement(stmt Statement) (Statement, error) {
	return Parse(stmt.String())
}

// RewriteTables renames table references in place (clone first if the
// statement is shared). DML target tables are renamed too.
func RewriteTables(stmt Statement, rename func(string) string) {
	rewriteTables(stmt, rename, func(slot *string, v string) { *slot = v })
}

// RenameTables is RewriteTables that can be undone: restore puts back every
// name and range name the rename changed, so one tree can be deparsed under
// many renamings (one per shard) and left as it was.
func RenameTables(stmt Statement, rename func(string) string) (restore func()) {
	var slots []*string
	var old []string
	rewriteTables(stmt, rename, func(slot *string, v string) {
		slots, old = append(slots, slot), append(old, *slot)
		*slot = v
	})
	return func() {
		for i := len(slots) - 1; i >= 0; i-- {
			*slots[i] = old[i]
		}
	}
}

// renamer renames the name fields of a tree through set, which stores one
// new value.
type renamer struct {
	rename func(string) string
	set    func(slot *string, v string)
}

func (r renamer) name(slot *string) { r.set(slot, r.rename(*slot)) }

// table renames one base table, keeping the original name visible as the
// range name so column qualifications (t.col) keep resolving after the
// rewrite. A function keeps its name.
func (r renamer) table(tr TableRef) {
	if bt, ok := tr.(*BaseTable); ok {
		r.target(&bt.Name, &bt.Alias)
	}
}

// target renames the table *name, whose range name is *alias, as table
// does: a statement's target keeps its name visible too (RETURNING t.col,
// ON CONFLICT … SET n = t.n + 1, UPDATE t SET n = t.n + 1).
func (r renamer) target(name, alias *string) {
	if *alias == "" {
		r.set(alias, *name)
	}
	r.name(name)
}

func rewriteTables(stmt Statement, rename func(string) string, set func(slot *string, v string)) {
	r := renamer{rename: rename, set: set}
	switch st := stmt.(type) {
	case *InsertStmt:
		r.target(&st.Table, &st.Alias)
		walkSelectTables(st.Select, r.table)
	case *UpdateStmt:
		r.target(&st.Table, &st.Alias)
	case *DeleteStmt:
		r.target(&st.Table, &st.Alias)
	case *SelectStmt:
		walkSelectTables(st, r.table)
	case *CreateIndexStmt:
		r.name(&st.Table)
		r.name(&st.Name)
	case *DropTableStmt:
		r.name(&st.Name)
	case *TruncateStmt:
		r.name(&st.Name)
	case *AlterTableAddColumnStmt:
		r.name(&st.Table)
	case *CopyStmt:
		r.name(&st.Table)
	case *ExplainStmt:
		rewriteTables(st.Stmt, rename, set)
	}
	// tables inside WHERE/SET subqueries of UPDATE/DELETE and VALUES rows of
	// INSERT (the cases above only cover SELECT trees)
	switch st := stmt.(type) {
	case *UpdateStmt:
		walkExprTables(st.Where, r.table)
		for _, a := range st.Set {
			walkExprTables(a.Value, r.table)
		}
	case *DeleteStmt:
		walkExprTables(st.Where, r.table)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				walkExprTables(e, r.table)
			}
		}
	}
}
