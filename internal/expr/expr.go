// Package expr compiles SQL expression ASTs into evaluators. Column
// references are resolved against a caller-supplied Resolver (the engine's
// scope), producing closures over row offsets so per-row evaluation does no
// name lookups.
package expr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"citusgo/internal/jsonb"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// Resolver maps a (possibly table-qualified) column name to an offset in
// the runtime row and its type.
type Resolver interface {
	Resolve(table, column string) (idx int, typ types.Type, err error)
}

// Ctx is the per-statement evaluation context. Row is updated per tuple;
// the rest is fixed for the statement.
type Ctx struct {
	Row    types.Row
	Params []types.Datum
	// ExecSubquery runs an uncorrelated subquery and returns its rows;
	// results are cached per statement in subqueryCache.
	ExecSubquery  func(sel *sql.SelectStmt) ([]types.Row, error)
	subqueryCache map[*sql.SelectStmt][]types.Row
}

func (c *Ctx) runSubquery(sel *sql.SelectStmt) ([]types.Row, error) {
	if c.ExecSubquery == nil {
		return nil, errors.New("subqueries are not supported in this context")
	}
	if rows, ok := c.subqueryCache[sel]; ok {
		return rows, nil
	}
	rows, err := c.ExecSubquery(sel)
	if err != nil {
		return nil, err
	}
	if c.subqueryCache == nil {
		c.subqueryCache = make(map[*sql.SelectStmt][]types.Row)
	}
	c.subqueryCache[sel] = rows
	return rows, nil
}

// Evaluator computes a datum for the current context.
type Evaluator func(*Ctx) (types.Datum, error)

// Compile builds an evaluator for e, resolving columns through r (which may
// be nil for constant expressions). Every immutable subtree is evaluated
// here, once, instead of once per row (see fold).
func Compile(e sql.Expr, r Resolver) (Evaluator, error) {
	ev, err := compile(e, r)
	if err != nil {
		return nil, err
	}
	ev, _, _ = fold(e, ev)
	return ev, nil
}

func compile(e sql.Expr, r Resolver) (Evaluator, error) {
	switch n := e.(type) {
	case *sql.Literal:
		return constant(n.Value), nil

	case *sql.Param:
		idx := n.Index - 1
		return func(c *Ctx) (types.Datum, error) {
			if idx >= len(c.Params) {
				return nil, fmt.Errorf("no value for parameter $%d", idx+1)
			}
			return c.Params[idx], nil
		}, nil

	case *sql.ColumnRef:
		if r == nil {
			return nil, fmt.Errorf("column %q cannot be referenced here", n.Name)
		}
		idx, _, err := r.Resolve(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		return func(c *Ctx) (types.Datum, error) {
			if idx >= len(c.Row) {
				// rows written before ALTER TABLE ADD COLUMN are shorter;
				// the added column reads as NULL
				return nil, nil
			}
			return c.Row[idx], nil
		}, nil

	case *sql.BinaryExpr:
		return compileBinary(n, r)

	case *sql.UnaryExpr:
		sub, err := Compile(n.E, r)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return func(c *Ctx) (types.Datum, error) {
				v, err := sub(c)
				if err != nil || v == nil {
					return nil, err
				}
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("argument of NOT must be boolean")
				}
				return !b, nil
			}, nil
		}
		return func(c *Ctx) (types.Datum, error) {
			v, err := sub(c)
			if err != nil || v == nil {
				return nil, err
			}
			switch t := v.(type) {
			case int64:
				return -t, nil
			case float64:
				return -t, nil
			}
			return nil, fmt.Errorf("cannot negate %s", types.TypeOf(v))
		}, nil

	case *sql.FuncCall:
		return compileFunc(n, r)

	case *sql.CaseExpr:
		return compileCase(n, r)

	case *sql.InExpr:
		return compileIn(n, r)

	case *sql.BetweenExpr:
		ev, err := Compile(n.E, r)
		if err != nil {
			return nil, err
		}
		typ := operandType(n.E, r)
		lo, err := CompileAgainst(n.Lo, r, typ)
		if err != nil {
			return nil, err
		}
		hi, err := CompileAgainst(n.Hi, r, typ)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(c *Ctx) (types.Datum, error) {
			v, err := ev(c)
			if err != nil || v == nil {
				return nil, err
			}
			lv, err := lo(c)
			if err != nil || lv == nil {
				return nil, err
			}
			hv, err := hi(c)
			if err != nil || hv == nil {
				return nil, err
			}
			in := types.Compare(v, lv) >= 0 && types.Compare(v, hv) <= 0
			return in != not, nil
		}, nil

	case *sql.LikeExpr:
		ev, err := Compile(n.E, r)
		if err != nil {
			return nil, err
		}
		pv, err := compile(n.Pattern, r)
		if err != nil {
			return nil, err
		}
		ilike, not := n.ILike, n.Not
		pv, p, isConst := fold(n.Pattern, pv)
		if isConst && p != nil {
			// a constant pattern, the usual case, is prepared here, once
			pat := CompileLike(types.Format(p), ilike)
			return func(c *Ctx) (types.Datum, error) {
				v, err := ev(c)
				if err != nil || v == nil {
					return nil, err
				}
				return pat.Match(types.Format(v)) != not, nil
			}, nil
		}
		return func(c *Ctx) (types.Datum, error) {
			v, err := ev(c)
			if err != nil || v == nil {
				return nil, err
			}
			p, err := pv(c)
			if err != nil || p == nil {
				return nil, err
			}
			pat := CompileLike(types.Format(p), ilike)
			return pat.Match(types.Format(v)) != not, nil
		}, nil

	case *sql.IsNullExpr:
		ev, err := Compile(n.E, r)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(c *Ctx) (types.Datum, error) {
			v, err := ev(c)
			if err != nil {
				return nil, err
			}
			return (v == nil) != not, nil
		}, nil

	case *sql.CastExpr:
		return compileCast(n, r)

	case *sql.SubqueryExpr:
		sel := n.Select
		return func(c *Ctx) (types.Datum, error) {
			rows, err := c.runSubquery(sel)
			if err != nil {
				return nil, err
			}
			if len(rows) == 0 {
				return nil, nil
			}
			if len(rows) > 1 {
				return nil, errors.New("more than one row returned by a subquery used as an expression")
			}
			if len(rows[0]) != 1 {
				return nil, errors.New("subquery must return only one column")
			}
			return rows[0][0], nil
		}, nil

	case *sql.ExistsExpr:
		sel := n.Select
		not := n.Not
		return func(c *Ctx) (types.Datum, error) {
			rows, err := c.runSubquery(sel)
			if err != nil {
				return nil, err
			}
			return (len(rows) > 0) != not, nil
		}, nil

	case *sql.NamedArg:
		return nil, fmt.Errorf("named argument %q is not valid here", n.Name)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func compileBinary(n *sql.BinaryExpr, r Resolver) (Evaluator, error) {
	op := n.Op
	// a comparison types each side after the operand on the other side
	lTyp, rTyp := types.Unknown, types.Unknown
	switch op {
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		lTyp, rTyp = operandType(n.L, r), operandType(n.R, r)
	}
	l, err := CompileAgainst(n.L, r, rTyp)
	if err != nil {
		return nil, err
	}
	rr, err := CompileAgainst(n.R, r, lTyp)
	if err != nil {
		return nil, err
	}
	switch op {
	case sql.OpAnd:
		return func(c *Ctx) (types.Datum, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			if b, ok := lv.(bool); ok && !b {
				return false, nil
			}
			rv, err := rr(c)
			if err != nil {
				return nil, err
			}
			if b, ok := rv.(bool); ok && !b {
				return false, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return true, nil
		}, nil
	case sql.OpOr:
		return func(c *Ctx) (types.Datum, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			if b, ok := lv.(bool); ok && b {
				return true, nil
			}
			rv, err := rr(c)
			if err != nil {
				return nil, err
			}
			if b, ok := rv.(bool); ok && b {
				return true, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return false, nil
		}, nil
	}
	return func(c *Ctx) (types.Datum, error) {
		lv, err := l(c)
		if err != nil {
			return nil, err
		}
		rv, err := rr(c)
		if err != nil {
			return nil, err
		}
		return applyBinary(op, lv, rv)
	}, nil
}

func applyBinary(op sql.BinOp, lv, rv types.Datum) (types.Datum, error) {
	if lv == nil || rv == nil {
		return nil, nil
	}
	switch op {
	case sql.OpEq:
		return types.Compare(lv, rv) == 0, nil
	case sql.OpNe:
		return types.Compare(lv, rv) != 0, nil
	case sql.OpLt:
		return types.Compare(lv, rv) < 0, nil
	case sql.OpLe:
		return types.Compare(lv, rv) <= 0, nil
	case sql.OpGt:
		return types.Compare(lv, rv) > 0, nil
	case sql.OpGe:
		return types.Compare(lv, rv) >= 0, nil
	case sql.OpConcat:
		return types.Format(lv) + types.Format(rv), nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		return arith(op, lv, rv)
	case sql.OpJSONGet, sql.OpJSONGetTxt:
		return jsonNav(op, lv, rv)
	case sql.OpJSONContains:
		lj, ok1 := lv.(jsonb.Value)
		rj, ok2 := rv.(jsonb.Value)
		if !ok1 || !ok2 {
			return nil, errors.New("@> requires jsonb operands")
		}
		return lj.Contains(rj), nil
	}
	return nil, fmt.Errorf("unsupported operator %d", op)
}

func arith(op sql.BinOp, lv, rv types.Datum) (types.Datum, error) {
	li, lIsInt := lv.(int64)
	ri, rIsInt := rv.(int64)
	if lIsInt && rIsInt {
		switch op {
		case sql.OpAdd:
			return li + ri, nil
		case sql.OpSub:
			return li - ri, nil
		case sql.OpMul:
			return li * ri, nil
		case sql.OpDiv:
			if ri == 0 {
				return nil, errors.New("division by zero")
			}
			return li / ri, nil
		case sql.OpMod:
			if ri == 0 {
				return nil, errors.New("division by zero")
			}
			return li % ri, nil
		}
	}
	lf, err := toFloat(lv)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(rv)
	if err != nil {
		return nil, err
	}
	switch op {
	case sql.OpAdd:
		return lf + rf, nil
	case sql.OpSub:
		return lf - rf, nil
	case sql.OpMul:
		return lf * rf, nil
	case sql.OpDiv:
		if rf == 0 {
			return nil, errors.New("division by zero")
		}
		return lf / rf, nil
	case sql.OpMod:
		if rf == 0 {
			return nil, errors.New("division by zero")
		}
		return float64(int64(lf) % int64(rf)), nil
	}
	return nil, fmt.Errorf("unsupported arithmetic operator")
}

func toFloat(d types.Datum) (float64, error) {
	switch v := d.(type) {
	case int64:
		return float64(v), nil
	case float64:
		return v, nil
	case jsonb.Value:
		if f, ok := v.Number(); ok {
			return f, nil
		}
	}
	return 0, fmt.Errorf("expected a number, got %s", types.TypeOf(d))
}

func jsonNav(op sql.BinOp, lv, rv types.Datum) (types.Datum, error) {
	doc, ok := lv.(jsonb.Value)
	if !ok {
		// allow navigation into a JSON text column
		if s, isStr := lv.(string); isStr {
			parsed, err := jsonb.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("-> left operand is not jsonb")
			}
			doc = parsed
		} else {
			return nil, fmt.Errorf("-> left operand is not jsonb")
		}
	}
	var child jsonb.Value
	var found bool
	switch key := rv.(type) {
	case string:
		child, found = doc.Get(key)
	case int64:
		child, found = doc.Index(int(key))
	default:
		return nil, fmt.Errorf("-> key must be text or integer")
	}
	if !found {
		return nil, nil
	}
	if op == sql.OpJSONGet {
		return child, nil
	}
	text, ok := child.Text()
	if !ok {
		return nil, nil
	}
	return text, nil
}

func compileCase(n *sql.CaseExpr, r Resolver) (Evaluator, error) {
	var operand Evaluator
	var err error
	if n.Operand != nil {
		operand, err = Compile(n.Operand, r)
		if err != nil {
			return nil, err
		}
	}
	type arm struct{ when, then Evaluator }
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		arms[i].when, err = Compile(w.When, r)
		if err != nil {
			return nil, err
		}
		arms[i].then, err = Compile(w.Then, r)
		if err != nil {
			return nil, err
		}
	}
	var elseEv Evaluator
	if n.Else != nil {
		elseEv, err = Compile(n.Else, r)
		if err != nil {
			return nil, err
		}
	}
	return func(c *Ctx) (types.Datum, error) {
		var opv types.Datum
		if operand != nil {
			v, err := operand(c)
			if err != nil {
				return nil, err
			}
			opv = v
		}
		for _, a := range arms {
			wv, err := a.when(c)
			if err != nil {
				return nil, err
			}
			matched := false
			if operand != nil {
				matched = opv != nil && wv != nil && types.Compare(opv, wv) == 0
			} else if b, ok := wv.(bool); ok {
				matched = b
			}
			if matched {
				return a.then(c)
			}
		}
		if elseEv != nil {
			return elseEv(c)
		}
		return nil, nil
	}, nil
}

func compileIn(n *sql.InExpr, r Resolver) (Evaluator, error) {
	ev, err := Compile(n.E, r)
	if err != nil {
		return nil, err
	}
	not := n.Not
	if n.Subquery != nil {
		sel := n.Subquery
		return func(c *Ctx) (types.Datum, error) {
			v, err := ev(c)
			if err != nil || v == nil {
				return nil, err
			}
			rows, err := c.runSubquery(sel)
			if err != nil {
				return nil, err
			}
			sawNull := false
			for _, row := range rows {
				if len(row) != 1 {
					return nil, errors.New("subquery in IN must return one column")
				}
				if row[0] == nil {
					sawNull = true
					continue
				}
				if types.Compare(v, row[0]) == 0 {
					return !not, nil
				}
			}
			if sawNull {
				return nil, nil
			}
			return not, nil
		}, nil
	}
	items := make([]Evaluator, len(n.List))
	for i, item := range n.List {
		items[i], err = Compile(item, r)
		if err != nil {
			return nil, err
		}
	}
	return func(c *Ctx) (types.Datum, error) {
		v, err := ev(c)
		if err != nil || v == nil {
			return nil, err
		}
		sawNull := false
		for _, item := range items {
			iv, err := item(c)
			if err != nil {
				return nil, err
			}
			if iv == nil {
				sawNull = true
				continue
			}
			if types.Compare(v, iv) == 0 {
				return !not, nil
			}
		}
		if sawNull {
			return nil, nil
		}
		return not, nil
	}, nil
}

func compileCast(n *sql.CastExpr, r Resolver) (Evaluator, error) {
	sub, err := Compile(n.E, r)
	if err != nil {
		return nil, err
	}
	to := n.To
	return func(c *Ctx) (types.Datum, error) {
		v, err := sub(c)
		if err != nil || v == nil {
			return nil, err
		}
		return CastDatum(v, to)
	}, nil
}

// CastDatum converts v to the target type, handling the JSONB casts that
// package types cannot (it would create an import cycle).
func CastDatum(v types.Datum, to types.Type) (types.Datum, error) {
	if v == nil {
		return nil, nil
	}
	switch to {
	case types.JSONB:
		switch t := v.(type) {
		case jsonb.Value:
			return t, nil
		case string:
			return jsonb.Parse(t)
		default:
			return jsonb.FromGo(v), nil
		}
	case types.Text:
		if j, ok := v.(jsonb.Value); ok {
			return j.String(), nil
		}
	case types.Int, types.Float:
		if j, ok := v.(jsonb.Value); ok {
			f, isNum := j.Number()
			if !isNum {
				return nil, errors.New("cannot cast non-numeric jsonb to number")
			}
			if to == types.Int {
				return int64(f), nil
			}
			return f, nil
		}
	}
	return types.CoerceTo(v, to)
}

// LikePattern is a LIKE or ILIKE pattern prepared for matching many texts:
// the one matcher of the row evaluator and of the vectorized filter kernel
// (which matches text it holds only in a scratch buffer, hence MatchBytes).
// % is any run, _ any single byte; ILIKE lower-cases the pattern here and
// folds the text while it compares.
type LikePattern struct {
	pattern string
	fold    bool
	// sub is the literal of a %literal% pattern (no _ and no % inside),
	// which is a substring search; isSub says that the pattern is one.
	sub   string
	isSub bool
}

// CompileLike prepares pattern; ilike makes the match case-insensitive.
func CompileLike(pattern string, ilike bool) LikePattern {
	if ilike {
		pattern = strings.ToLower(pattern)
	}
	return newLikePattern(pattern, ilike)
}

// newLikePattern is CompileLike for a pattern that is lower-cased already.
func newLikePattern(pattern string, fold bool) LikePattern {
	p := LikePattern{pattern: pattern, fold: fold}
	if n := len(pattern); n >= 2 && pattern[0] == '%' && pattern[n-1] == '%' &&
		!strings.ContainsAny(pattern[1:n-1], "%_") {
		p.sub, p.isSub = pattern[1:n-1], true
	}
	return p
}

// text is what a pattern is matched against: a string, or the bytes of one.
type text interface{ ~string | ~[]byte }

// hasHighByte reports whether s holds a byte outside ASCII.
func hasHighByte(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return true
		}
	}
	return false
}

// hasHighByteIn is hasHighByte for bytes, eight at a time: the kernel asks it
// of every text it matches.
func hasHighByteIn(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b)&0x8080808080808080 != 0 {
			return true
		}
	}
	for _, c := range b {
		if c >= 0x80 {
			return true
		}
	}
	return false
}

// Match reports whether s matches the pattern. ASCII text, the common case,
// is folded byte by byte during the comparison; only text with a byte >= 0x80
// is lower-cased into a copy first.
func (p *LikePattern) Match(s string) bool {
	if p.fold && hasHighByte(s) {
		s = strings.ToLower(s)
	}
	return matchText(p, s)
}

// MatchBytes is Match(string(b)) without the string, unless b has to be
// lower-cased as a whole.
func (p *LikePattern) MatchBytes(b []byte) bool {
	if p.fold && hasHighByteIn(b) {
		return matchText(p, strings.ToLower(string(b)))
	}
	return matchText(p, b)
}

func matchText[T text](p *LikePattern, s T) bool {
	if p.isSub {
		return containsFolded(s, p.sub, p.fold)
	}
	return matchBacktrack(s, p.pattern, p.fold)
}

// containsFolded reports whether sub occurs in s, each byte of s folded first
// when foldCase is set.
func containsFolded[T text](s T, sub string, foldCase bool) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if foldByte(s[i], foldCase) != sub[0] {
			continue
		}
		j := 1
		for j < len(sub) && foldByte(s[i+j], foldCase) == sub[j] {
			j++
		}
		if j == len(sub) {
			return true
		}
	}
	return false
}

// MatchLike implements SQL LIKE matching (% = any run, _ = any single
// byte) with iterative backtracking.
func MatchLike(s, pattern string) bool { return matchLike(s, pattern, false) }

// matchLike is MatchLike; with foldCase it is ILIKE against a pattern the
// caller has lower-cased.
func matchLike(s, pattern string, foldCase bool) bool {
	p := newLikePattern(pattern, foldCase)
	return p.Match(s)
}

// matchBacktrack is the general matcher: iterative backtracking over the
// last % seen.
func matchBacktrack[T text](s T, pattern string, foldCase bool) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		c := foldByte(s[si], foldCase)
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == c):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star != -1:
			pi = star + 1
			match++
			if pi < len(pattern) && pattern[pi] != '_' && pattern[pi] != '%' {
				// the run after % starts with a literal: resume where it occurs
				for match < len(s) && foldByte(s[match], foldCase) != pattern[pi] {
					match++
				}
			}
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func foldByte(c byte, foldCase bool) byte {
	if foldCase && c >= 'A' && c <= 'Z' {
		return c | 0x20
	}
	return c
}
