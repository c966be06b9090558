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

// operandType returns the type a comparison operand gives an untyped
// constant on its other side: a column's declared type (resolved in r), a
// cast's target, a number's or boolean literal's type, and an arithmetic
// expression's over numeric operands (bigint when both are, else double).
// Anything else is types.Unknown.
func operandType(e sql.Expr, r Resolver) types.Type {
	switch x := e.(type) {
	case *sql.ColumnRef:
		if r == nil {
			return types.Unknown
		}
		if _, typ, err := r.Resolve(x.Table, x.Name); err == nil {
			return typ
		}
	case *sql.CastExpr:
		return x.To
	case *sql.Literal:
		switch x.Value.(type) {
		case int64:
			return types.Int
		case float64:
			return types.Float
		case bool:
			return types.Bool
		}
	case *sql.UnaryExpr:
		if x.Op == "-" {
			return operandType(x.E, r)
		}
	case *sql.BinaryExpr:
		switch x.Op {
		case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
			l, rt := operandType(x.L, r), operandType(x.R, r)
			switch {
			case l == types.Int && rt == types.Int:
				return types.Int
			case (l == types.Int || l == types.Float) && (rt == types.Int || rt == types.Float):
				return types.Float
			}
		}
	}
	return types.Unknown
}

// CompileAgainst compiles e, one side of a comparison whose other side is
// of type colTyp (operandType). An untyped string constant takes that type,
// as in PostgreSQL, coerced once here so every row compares like with like:
//
//   - a bigint, double or boolean: k + 0 >= '45' compares numbers, where the
//     textual comparison would put '5' after '45';
//   - a timestamp or date, when the string parses as one: time compares
//     against time instead of formatting the column value and comparing
//     text (which also gets '1994-01-01' wrong against midnight). A string
//     with a time of day stays text against a Date column: truncating it
//     would make date_col = '1994-01-01 12:00:00' true.
//
// A string that does not parse as the type keeps the textual comparison.
func CompileAgainst(e sql.Expr, r Resolver, colTyp types.Type) (Evaluator, error) {
	ev, err := compile(e, r)
	if err != nil {
		return nil, err
	}
	ev, v, isConst := fold(e, ev)
	s, isStr := v.(string)
	if !isConst || !isStr {
		return ev, nil
	}
	switch colTyp {
	case types.Timestamp, types.Date:
		ts, perr := types.ParseTimestamp(s)
		if perr == nil && (colTyp == types.Timestamp || ts.Equal(ts.Truncate(24*time.Hour))) {
			return constant(ts), nil
		}
	case types.Int, types.Float, types.Bool:
		if typed, cerr := types.CoerceTo(s, colTyp); cerr == nil {
			return constant(typed), nil
		}
	}
	return ev, nil
}
