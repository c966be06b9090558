package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"citusgo/internal/expr"
	"citusgo/internal/jsonb"
	"citusgo/internal/sql"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// Derived columns: expressions over a jsonb column that the vectorized path
// computes a chunk at a time instead of declining the query. The set is
// closed — compileDerived is the one place that knows it:
//
//	col -> k1 -> … ->> k                                text
//	jsonb_array_length(col -> k1 -> …)                  bigint
//	jsonb_path_query_array(col -> k1 -> …, path)::text  text
//
// each optionally cast to text, date, timestamp, bigint or double precision
// (the path's ::text is its own, and takes no second cast), every key and the
// path a literal. A scan fills such an expression into a typed vector at an
// ordinal past the table's own columns, for the rows its filters passed and
// no others, so that a cast fails the query exactly when it fails a row the
// WHERE clause keeps; a group key, an aggregate argument or a leaf of a
// numeric expression is then that ordinal, like any column's. A LIKE filter
// over a text-valued one reads the same expression into a scratch buffer
// instead (appendText). The jsonb values on the way — what -> yields — are
// sub-slices of the document held in local variables: none is boxed into a
// datum, and there is no vector kind for them.

// jsonStep is one constant -> or ->> step: an object key, or an array index.
type jsonStep struct {
	key     string
	index   int
	isIndex bool
}

func (s jsonStep) apply(v jsonb.Value) (jsonb.Value, bool) {
	if s.isIndex {
		return v.Index(s.index)
	}
	return v.Get(s.key)
}

// derivedEnd is what a derived expression's chain of -> steps ends in.
type derivedEnd uint8

const (
	endText     derivedEnd = iota // ->> last
	endArrayLen                   // jsonb_array_length(…)
	endPathText                   // jsonb_path_query_array(…, path)::text
)

type derivedExpr struct {
	base  int        // the jsonb column's ordinal
	steps []jsonStep // the -> steps, from the column down
	end   derivedEnd
	last  jsonStep   // endText: the ->> step
	path  jsonb.Path // endPathText
	cast  types.Type // what the result is cast to; types.Unknown: nothing
	typ   types.Type // of the result
	text  string     // the expression as SQL
	ord   int        // its ordinal in the chunk, when a scan fills it (derivedSet)
}

// constStep reads the right operand of -> or ->>: a text or integer literal.
func constStep(e sql.Expr) (jsonStep, bool) {
	lit, ok := e.(*sql.Literal)
	if !ok {
		return jsonStep{}, false
	}
	switch k := lit.Value.(type) {
	case string:
		return jsonStep{key: k}, true
	case int64:
		return jsonStep{index: int(k), isIndex: true}, true
	}
	return jsonStep{}, false
}

// compileDerived compiles e when it is one of the derived expressions over a
// jsonb column of sc; ok is false for everything else.
func compileDerived(e sql.Expr, sc *scope) (*derivedExpr, bool) {
	d := &derivedExpr{text: e.String()}
	if c, ok := e.(*sql.CastExpr); ok {
		d.cast, e = c.To, c.E
	}
	switch x := e.(type) {
	case *sql.BinaryExpr:
		step, ok := constStep(x.R)
		if x.Op != sql.OpJSONGetTxt || !ok {
			return nil, false
		}
		d.end, d.last, d.typ, e = endText, step, types.Text, x.L
	case *sql.FuncCall:
		if x.Star || x.Distinct {
			return nil, false
		}
		switch name := strings.ToLower(x.Name); {
		case name == "jsonb_array_length" && len(x.Args) == 1:
			d.end, d.typ, e = endArrayLen, types.Int, x.Args[0]
		case name == "jsonb_path_query_array" && len(x.Args) == 2 && d.cast == types.Text:
			lit, ok := x.Args[1].(*sql.Literal)
			if !ok {
				return nil, false
			}
			text, ok := lit.Value.(string)
			if !ok {
				return nil, false
			}
			path, err := jsonb.CompilePath(text)
			if err != nil {
				return nil, false
			}
			d.end, d.path, d.typ, d.cast, e = endPathText, path, types.Text, types.Unknown, x.Args[0]
		default:
			return nil, false
		}
	default:
		return nil, false
	}
	switch d.cast {
	case types.Unknown:
	case types.Text, types.Int, types.Float:
		d.typ = d.cast
	case types.Date, types.Timestamp:
		if d.end == endArrayLen {
			return nil, false // never a timestamp: the row path fails every row that is not NULL
		}
		d.typ = d.cast
	default:
		return nil, false
	}
	for {
		x, ok := e.(*sql.BinaryExpr)
		if !ok {
			break
		}
		step, ok := constStep(x.R)
		if x.Op != sql.OpJSONGet || !ok {
			return nil, false
		}
		d.steps, e = append(d.steps, step), x.L
	}
	for i, j := 0, len(d.steps)-1; i < j; i, j = i+1, j-1 {
		d.steps[i], d.steps[j] = d.steps[j], d.steps[i]
	}
	cr, ok := e.(*sql.ColumnRef)
	if !ok {
		return nil, false
	}
	ord, typ, err := sc.Resolve(cr.Table, cr.Name)
	if err != nil || typ != types.JSONB {
		return nil, false
	}
	d.base = ord
	return d, true
}

// textValued reports whether the expression is text that cannot fail: what a
// LIKE filter may read into its scratch buffer for any row.
func (d *derivedExpr) textValued() bool {
	return d.end != endArrayLen && (d.cast == types.Unknown || d.cast == types.Text)
}

// doc follows the -> steps from the column's datum; ok is false where they
// lead to SQL NULL: a NULL column, a missing key, an index out of range.
func (d *derivedExpr) doc(datum types.Datum) (v jsonb.Value, ok bool) {
	if datum == nil {
		return v, false
	}
	if v, ok = datum.(jsonb.Value); !ok {
		// a jsonb column holds what expr.CastDatum made of every value written to it
		panic(fmt.Sprintf("jsonb column holds a %T", datum))
	}
	for _, s := range d.steps {
		if v, ok = s.apply(v); !ok {
			return v, false
		}
	}
	return v, true
}

// appendText appends the text a text-ended expression has for one row, before
// any cast; ok is false for NULL.
func (d *derivedExpr) appendText(dst []byte, datum types.Datum) ([]byte, bool) {
	v, ok := d.doc(datum)
	if !ok {
		return dst, false
	}
	if d.end == endPathText {
		return v.AppendPathText(dst, d.path), true
	}
	if v, ok = d.last.apply(v); !ok {
		return dst, false
	}
	return v.AppendAsText(dst)
}

// fill appends the expression's value to dst for rows sel of base, the jsonb
// column's vector (all n of them when sel is nil). buf is scratch, returned
// for the next call. An error is the row path's for the same row.
func (d *derivedExpr) fill(dst, base *vec.Vector, sel vec.Sel, n int, buf []byte) ([]byte, error) {
	if sel != nil {
		n = len(sel)
	}
	for j := 0; j < n; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		var err error
		if buf, err = d.appendValue(dst, base.Datum(i), buf[:0]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

func (d *derivedExpr) appendValue(dst *vec.Vector, datum types.Datum, buf []byte) ([]byte, error) {
	if d.end == endArrayLen {
		v, ok := d.doc(datum)
		if !ok {
			dst.Append(nil)
			return buf, nil
		}
		n, err := v.ArrayLength()
		if err != nil {
			return buf, err
		}
		switch d.cast {
		case types.Float:
			dst.AppendFloat(float64(n))
		case types.Text:
			buf = strconv.AppendInt(buf, int64(n), 10)
			dst.AppendText(buf)
		default:
			dst.AppendInt(int64(n))
		}
		return buf, nil
	}
	buf, ok := d.appendText(buf, datum)
	if !ok {
		dst.Append(nil)
		return buf, nil
	}
	switch d.cast {
	case types.Date, types.Timestamp:
		t, err := types.ParseTimestampBytes(buf)
		if err != nil {
			return buf, err
		}
		if d.cast == types.Date {
			t = t.Truncate(24 * time.Hour)
		}
		dst.AppendTime(t)
	case types.Int:
		if n, err := strconv.ParseInt(string(bytes.TrimSpace(buf)), 10, 64); err == nil {
			dst.AppendInt(n)
			return buf, nil
		}
		return buf, d.castSlow(dst, buf)
	case types.Float:
		if f, err := strconv.ParseFloat(string(bytes.TrimSpace(buf)), 64); err == nil {
			dst.AppendFloat(f)
			return buf, nil
		}
		return buf, d.castSlow(dst, buf)
	default:
		dst.AppendText(buf)
	}
	return buf, nil
}

// castSlow casts a text the fast path refused with the row evaluator's own
// cast: its value if it has one after all, and otherwise its error.
func (d *derivedExpr) castSlow(dst *vec.Vector, text []byte) error {
	v, err := expr.CastDatum(string(text), d.cast)
	if err != nil {
		return err
	}
	dst.Append(v)
	return nil
}

// derivedSet numbers the derived columns an aggregate reads, past the columns
// of the scope they are over: one expression, by its text, is one column
// however often the query names it.
type derivedSet struct {
	sc   *scope
	cols []*derivedExpr
}

func (ds *derivedSet) column(e sql.Expr) (*derivedExpr, bool) {
	text := e.String()
	for _, d := range ds.cols {
		if d.text == text {
			return d, true
		}
	}
	d, ok := compileDerived(e, ds.sc)
	if !ok {
		return nil, false
	}
	d.ord = len(ds.sc.cols) + len(ds.cols)
	ds.cols = append(ds.cols, d)
	return d, true
}

// likeSpec is the LIKE half of a vecFilterSpec: a text-valued derived
// expression [NOT] LIKE / ILIKE the spec's constant.
type likeSpec struct {
	d          *derivedExpr
	ilike, not bool
}

// boundLike is a likeSpec with its pattern bound for one execution.
type boundLike struct {
	d     *derivedExpr
	f     vec.LikeFilter
	never bool // a NULL pattern: no row passes, negated or not
}

func (l *boundLike) apply(chunk []vec.Vector, sel vec.Sel, out vec.Sel, sc *filterScratch) vec.Sel {
	if l.never {
		return vec.Sel{}
	}
	base := &chunk[l.d.base]
	return l.f.ApplyText(base.Len(), sel, out, func(i int) ([]byte, bool) {
		var ok bool
		sc.text, ok = l.d.appendText(sc.text[:0], base.Datum(i))
		return sc.text, ok
	})
}
