package expr

import (
	"strings"
	"time"

	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// immutableFuncs names the scalar functions whose result depends only on
// their arguments. It is filled once, after the built-ins register: the
// clock and the RNG stay out, and so does anything an extension registers
// later through RegisterScalar, because nothing is known about it.
var immutableFuncs = map[string]bool{"coalesce": true}

// constSubexpr is the one row-free/immutable predicate of the engine.
// rowFree: e evaluates without a row — no column references, subqueries or
// aggregates — so the vectorized path can bind it once per execution
// (parameters included). immutable: e is row-free and also yields the same
// value on every execution — no parameters, no volatile functions — so
// Compile may evaluate it once and for all.
func constSubexpr(e sql.Expr) (rowFree, immutable bool) {
	rowFree, immutable = true, true
	WalkExpr(e, func(x sql.Expr) bool {
		switch n := x.(type) {
		case *sql.ColumnRef, *sql.SubqueryExpr, *sql.ExistsExpr:
			rowFree = false
		case *sql.InExpr:
			if n.Subquery != nil {
				rowFree = false
			}
		case *sql.Param:
			immutable = false
		case *sql.FuncCall:
			if IsAggregate(n.Name) {
				rowFree = false
			} else if !immutableFuncs[strings.ToLower(n.Name)] {
				immutable = false
			}
		}
		return rowFree
	})
	return rowFree, rowFree && immutable
}

// RowFree reports whether e can be evaluated without a row (it may still
// reference parameters or call volatile functions).
func RowFree(e sql.Expr) bool {
	rowFree, _ := constSubexpr(e)
	return rowFree
}

func constant(v types.Datum) Evaluator {
	return func(*Ctx) (types.Datum, error) { return v, nil }
}

// fold replaces ev, the compiled form of e, by its value when e is
// immutable, and reports that value. A fold that fails keeps ev: the error
// belongs to the row that reaches the expression (CASE WHEN false THEN 1/0
// ... must not fail), not to compilation.
func fold(e sql.Expr, ev Evaluator) (_ Evaluator, v types.Datum, isConst bool) {
	if lit, isLit := e.(*sql.Literal); isLit {
		return ev, lit.Value, true
	}
	if _, immutable := constSubexpr(e); !immutable {
		return ev, nil, false
	}
	v, err := ev(&Ctx{})
	if err != nil {
		return ev, nil, false
	}
	return constant(v), v, true
}

// columnType returns the declared type of e when it is a bare column
// reference that resolves in r, and types.Unknown otherwise.
func columnType(e sql.Expr, r Resolver) types.Type {
	cr, ok := e.(*sql.ColumnRef)
	if !ok || r == nil {
		return types.Unknown
	}
	_, typ, err := r.Resolve(cr.Table, cr.Name)
	if err != nil {
		return types.Unknown
	}
	return typ
}

// CompileAgainst compiles e, one side of a comparison whose other side is
// a column declared colTyp. An untyped literal takes the column's type, as
// in PostgreSQL: when colTyp is Timestamp or Date and e folds to a string
// that parses as a timestamp, the constant is coerced once here, so every
// row compares time against time instead of formatting the column value
// and comparing text (which also gets '1994-01-01' wrong against midnight).
// A string that does not parse keeps the textual comparison, and so does
// one with a time of day against a Date column: truncating it would make
// date_col = '1994-01-01 12:00:00' true.
func CompileAgainst(e sql.Expr, r Resolver, colTyp types.Type) (Evaluator, error) {
	ev, err := compile(e, r)
	if err != nil {
		return nil, err
	}
	ev, v, isConst := fold(e, ev)
	if s, isStr := v.(string); isConst && isStr && (colTyp == types.Timestamp || colTyp == types.Date) {
		ts, perr := types.ParseTimestamp(s)
		if perr == nil && (colTyp == types.Timestamp || ts.Equal(ts.Truncate(24*time.Hour))) {
			return constant(ts), nil
		}
	}
	return ev, nil
}
