// Package vec implements batched (vectorized) evaluation kernels for the
// columnar execution path, and the typed column vector they run on (Vector,
// which is also how internal/columnar stores a column chunk): typed filter
// kernels producing selection vectors, vectorized numeric expression
// evaluation, group-ID encoding, and partial-aggregate accumulators that fold
// whole column chunks. A kernel looks at the vector's kind once per chunk and
// then runs one loop over a slice of int64, float64 or dictionary codes; only
// a KindGeneric chunk — jsonb, or a column that has held values of two
// types — is read datum by datum.
//
// The kernels are semantically identical to the row-at-a-time evaluator in
// internal/expr — comparisons follow types.Compare, arithmetic follows
// expr's int/float promotion rules (int÷int is integer division), and
// aggregates mirror expr.AggState (NULLs ignored, sum starts in the input
// type and promotes to float64 on the first float) — so a query planned
// through the vectorized path returns exactly the rows the row path would.
package vec

import (
	"errors"
	"fmt"
	"time"

	"citusgo/internal/types"
)

// Sel is a selection vector: the indexes of surviving rows within a chunk,
// in ascending order. A nil Sel means "all rows selected".
type Sel []int32

// CmpOp is a comparison operator for filter kernels.
type CmpOp uint8

// Comparison operators, with the same semantics as the row evaluator's
// types.Compare-based binary comparisons.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// relPass maps a three-way comparison result to a predicate outcome.
func relPass(rel int, op CmpOp) bool {
	switch op {
	case Eq:
		return rel == 0
	case Ne:
		return rel != 0
	case Lt:
		return rel < 0
	case Le:
		return rel <= 0
	case Gt:
		return rel > 0
	case Ge:
		return rel >= 0
	}
	return false
}

// Filter is one compiled conjunct over a single column: col <op> K,
// col BETWEEN Lo AND Hi, or col IS [NOT] NULL. Constants are fully
// resolved (parameters substituted, casts evaluated) before the kernel
// runs.
type Filter struct {
	Col     int // table column ordinal
	Op      CmpOp
	K       types.Datum
	Between bool
	Lo, Hi  types.Datum
	// NullTest selects rows by NULL-ness instead of comparing: IS NULL,
	// or IS NOT NULL when NotNull is also set. Unlike every comparison
	// kernel, IS NULL is the one predicate NULL rows *pass*.
	NullTest bool
	NotNull  bool
}

func (f *Filter) String() string {
	if f.NullTest {
		if f.NotNull {
			return fmt.Sprintf("col%d IS NOT NULL", f.Col)
		}
		return fmt.Sprintf("col%d IS NULL", f.Col)
	}
	if f.Between {
		return fmt.Sprintf("col%d BETWEEN %s AND %s", f.Col, types.Format(f.Lo), types.Format(f.Hi))
	}
	return fmt.Sprintf("col%d %s %s", f.Col, f.Op, types.Format(f.K))
}

// growSel returns out with room for m indexes, and never nil: an empty
// selection must not read as "all rows". The kernels below write every
// candidate index and advance only past the ones that pass, which keeps
// their loops free of a data-dependent branch.
func growSel(out Sel, m int) Sel {
	if out == nil {
		return make(Sel, m)
	}
	return room(out, m)
}

// room returns b with length m, reallocated if it must be; what it holds is
// whatever was there. Every scratch buffer of the kernels is sized by it.
func room[T any](b []T, m int) []T {
	if cap(b) < m {
		return make([]T, m)
	}
	return b[:m]
}

// at returns the j-th selected row: sel[j], or j when sel is nil (all rows).
func (sel Sel) at(j int) int {
	if sel == nil {
		return j
	}
	return int(sel[j])
}

// selLen is the number of rows a kernel visits: len(sel), or all n rows
// when sel is nil.
func selLen(sel Sel, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// applyNullTest is the IS [NOT] NULL kernel: wantNull selects the NULL
// rows, !wantNull the non-NULL ones. It reads the NULL mask alone, whatever
// the vector's kind.
func applyNullTest(v *Vector, sel Sel, out Sel, wantNull bool) Sel {
	m := selLen(sel, v.n)
	if v.Nulls == nil && wantNull {
		return growSel(out, 0)
	}
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		out[n] = i
		if (v.Nulls != nil && v.Nulls[i]) == wantNull {
			n++
		}
	}
	return out[:n]
}

type ordered interface {
	~int64 | ~float64 | ~string
}

// relOf mirrors types.Compare for same-typed ordered values (including its
// "incomparable floats compare equal" NaN behavior).
func relOf[T ordered](v, k T) int {
	if v < k {
		return -1
	}
	if v > k {
		return 1
	}
	return 0
}

func relBool(v, k bool) int {
	if v == k {
		return 0
	}
	if !v {
		return -1
	}
	return 1
}

// cmpKernel is the typed comparison kernel: one monomorphic loop per element
// type. "Equal" is "neither below nor above", so a NaN ties with everything,
// as under types.Compare.
func cmpKernel[T ordered](vals []T, nulls []bool, sel Sel, out Sel, op CmpOp, k T) Sel {
	lt, eq, gt := relPass(-1, op), relPass(0, op), relPass(1, op)
	m := selLen(sel, len(vals))
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		v := vals[i]
		out[n] = i
		below, above := v < k, v > k
		if ((below && lt) || (above && gt) || (eq && !below && !above)) && !(nulls != nil && nulls[i]) {
			n++
		}
	}
	return out[:n]
}

func betweenKernel[T ordered](vals []T, nulls []bool, sel Sel, out Sel, lo, hi T) Sel {
	m := selLen(sel, len(vals))
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		v := vals[i]
		out[n] = i
		if !(v < lo) && !(v > hi) && !(nulls != nil && nulls[i]) {
			n++
		}
	}
	return out[:n]
}

// dictKernel filters a string vector: pass is asked once per dictionary
// entry, and each row then costs one table look-up by its code.
func dictKernel(v *Vector, sel Sel, out Sel, pass func(s string) bool) Sel {
	var small [64]bool
	table := small[:]
	if len(v.Dict) > len(small) {
		table = make([]bool, len(v.Dict))
	}
	for c, s := range v.Dict {
		table[c] = pass(s)
	}
	m := selLen(sel, v.n)
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		out[n] = i
		if table[v.Codes[i]] && !(v.Nulls != nil && v.Nulls[i]) {
			n++
		}
	}
	return out[:n]
}

func boolKernel(v *Vector, sel Sel, out Sel, passFalse, passTrue bool) Sel {
	m := selLen(sel, v.n)
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		out[n] = i
		if ((v.Bools[i] && passTrue) || (!v.Bools[i] && passFalse)) && !(v.Nulls != nil && v.Nulls[i]) {
			n++
		}
	}
	return out[:n]
}

// datumKernel is the fallback for everything the typed kernels do not
// cover — a KindGeneric or KindNull vector, a constant of another type than
// the vector's: each row is read as a datum and pass decides, which is
// types.Compare and so exactly the row evaluator.
func datumKernel(v *Vector, sel Sel, out Sel, pass func(d types.Datum) bool) Sel {
	m := selLen(sel, v.n)
	out = growSel(out, m)
	n := 0
	for j := 0; j < m; j++ {
		i := int32(sel.at(j))
		if d := v.Datum(int(i)); d != nil && pass(d) {
			out[n] = i
			n++
		}
	}
	return out[:n]
}

// instantNanos returns t's instant as nanoseconds since the Unix epoch, and
// whether it fits: a KindTime vector compares by instant, as time.Before
// does, whatever zone a constant carries.
func instantNanos(t time.Time) (int64, bool) {
	ns := t.UnixNano()
	return ns, time.Unix(0, ns).Equal(t)
}

// Apply filters one column chunk: it writes to out the indexes of the rows
// (drawn from sel, or all of v when sel is nil) whose value passes the
// predicate, and returns the new selection, never nil. NULL values never
// pass; a NULL constant selects nothing (SQL three-valued logic: the
// predicate is never true). The vector's kind and the constant's type pick
// the kernel once per chunk.
func (f *Filter) Apply(v *Vector, sel Sel, out Sel) Sel {
	if f.NullTest {
		return applyNullTest(v, sel, out, !f.NotNull)
	}
	if f.Between {
		if f.Lo == nil || f.Hi == nil {
			return growSel(out, 0)
		}
		return f.applyBetween(v, sel, out)
	}
	if f.K == nil {
		return growSel(out, 0)
	}
	switch v.Kind {
	case KindInt:
		if k, ok := f.K.(int64); ok {
			return cmpKernel(v.Ints, v.Nulls, sel, out, f.Op, k)
		}
	case KindFloat:
		switch k := f.K.(type) {
		case float64:
			return cmpKernel(v.Floats, v.Nulls, sel, out, f.Op, k)
		case int64:
			return cmpKernel(v.Floats, v.Nulls, sel, out, f.Op, float64(k))
		}
	case KindTime:
		if k, ok := f.K.(time.Time); ok {
			if ns, fits := instantNanos(k); fits {
				return cmpKernel(v.Ints, v.Nulls, sel, out, f.Op, ns)
			}
		}
	case KindString:
		if k, ok := f.K.(string); ok {
			return dictKernel(v, sel, out, func(s string) bool { return relPass(relOf(s, k), f.Op) })
		}
	case KindBool:
		if k, ok := f.K.(bool); ok {
			return boolKernel(v, sel, out, relPass(relBool(false, k), f.Op), relPass(relBool(true, k), f.Op))
		}
	}
	return datumKernel(v, sel, out, func(d types.Datum) bool { return relPass(types.Compare(d, f.K), f.Op) })
}

func (f *Filter) applyBetween(v *Vector, sel Sel, out Sel) Sel {
	switch v.Kind {
	case KindInt:
		lo, okLo := f.Lo.(int64)
		hi, okHi := f.Hi.(int64)
		if okLo && okHi {
			return betweenKernel(v.Ints, v.Nulls, sel, out, lo, hi)
		}
	case KindFloat:
		lo, okLo := constFloat(f.Lo)
		hi, okHi := constFloat(f.Hi)
		if okLo && okHi {
			return betweenKernel(v.Floats, v.Nulls, sel, out, lo, hi)
		}
	case KindTime:
		lo, okLo := f.Lo.(time.Time)
		hi, okHi := f.Hi.(time.Time)
		if okLo && okHi {
			loNs, fitsLo := instantNanos(lo)
			hiNs, fitsHi := instantNanos(hi)
			if fitsLo && fitsHi {
				return betweenKernel(v.Ints, v.Nulls, sel, out, loNs, hiNs)
			}
		}
	case KindString:
		lo, okLo := f.Lo.(string)
		hi, okHi := f.Hi.(string)
		if okLo && okHi {
			return dictKernel(v, sel, out, func(s string) bool { return s >= lo && s <= hi })
		}
	}
	return datumKernel(v, sel, out, func(d types.Datum) bool {
		return types.Compare(d, f.Lo) >= 0 && types.Compare(d, f.Hi) <= 0
	})
}

// constFloat returns a numeric constant as the float64 types.Compare would
// compare a float64 value against.
func constFloat(d types.Datum) (float64, bool) {
	switch k := d.(type) {
	case float64:
		return k, true
	case int64:
		return float64(k), true
	}
	return 0, false
}

// statClass buckets datum types whose types.Compare ordering is mutually
// consistent, so chunk min/max proofs are sound across them.
func statClass(d types.Datum) int {
	switch d.(type) {
	case int64, float64:
		return 1
	case string:
		return 2
	case time.Time:
		return 3
	}
	return 0
}

// textualOrderable maps a datum into the textual ordering class a
// cross-type types.Compare would use. types.Format on time.Time (a
// fixed-width ISO layout with trailing fraction zeros trimmed) preserves
// ordering, so time stats mapped through it remain valid bounds under the
// textual fallback; numeric textual forms do NOT preserve ordering
// ("10" < "9"), so numerics never remap.
func textualOrderable(d types.Datum) (string, bool) {
	switch v := d.(type) {
	case string:
		return v, true
	case time.Time:
		return types.Format(v), true
	}
	return "", false
}

// alignClass brings a filter constant and chunk stats into one ordering
// class. Same class: returned as-is. A string/time mixture — which the
// per-row comparison resolves through the textual fallback — maps both
// sides to their textual forms. Anything else is unalignable: the caller
// must not skip.
func alignClass(k, min, max types.Datum) (types.Datum, types.Datum, types.Datum, bool) {
	if kc, sc := statClass(k), statClass(min); kc == sc {
		return k, min, max, kc != 0
	}
	ks, ok := textualOrderable(k)
	if !ok {
		return nil, nil, nil, false
	}
	mins, ok := textualOrderable(min)
	if !ok {
		return nil, nil, nil, false
	}
	maxs, _ := textualOrderable(max)
	return ks, mins, maxs, true
}

// Skip reports whether chunk statistics [min, max] (over the column's
// non-NULL values) prove that no row of the stripe can pass the filter.
// It is deliberately conservative: a constant that cannot be aligned with
// the stats' ordering class (see alignClass) never skips, because
// types.Compare's cross-type textual fallback does not in general agree
// with the per-type ordering the stats were built under.
func (f *Filter) Skip(min, max types.Datum, ok bool) bool {
	if f.NullTest {
		// chunk stats cover only non-NULL values and carry no null count,
		// so they can prove nothing about either polarity of a null test
		return false
	}
	if !ok {
		return false
	}
	if f.Between {
		if f.Lo == nil || f.Hi == nil {
			return true // BETWEEN with a NULL bound is never true
		}
		// each bound aligns (and therefore proves emptiness) independently
		if lo, _, mx, okLo := alignClass(f.Lo, min, max); okLo && types.Compare(mx, lo) < 0 {
			return true
		}
		if hi, mn, _, okHi := alignClass(f.Hi, min, max); okHi && types.Compare(mn, hi) > 0 {
			return true
		}
		return false
	}
	if f.K == nil {
		return true // comparison with NULL is never true
	}
	k, mn, mx, okK := alignClass(f.K, min, max)
	if !okK {
		return false
	}
	switch f.Op {
	case Eq:
		return types.Compare(k, mn) < 0 || types.Compare(k, mx) > 0
	case Lt:
		return types.Compare(mn, k) >= 0
	case Le:
		return types.Compare(mn, k) > 0
	case Gt:
		return types.Compare(mx, k) <= 0
	case Ge:
		return types.Compare(mx, k) < 0
	case Ne:
		// only skippable when every value equals K
		return types.Compare(mn, mx) == 0 && types.Compare(mn, k) == 0
	}
	return false
}

// MaterializeAll fills out with the identity selection [0, n).
func MaterializeAll(n int, out Sel) Sel {
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, int32(i))
	}
	return out
}

// ---------------------------------------------------------------------------
// Vectorized numeric expressions

// ArithOp is an arithmetic operator for NumExpr.
type ArithOp uint8

// Arithmetic operators with expr.arith semantics.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

// NumKind discriminates NumExpr nodes.
type NumKind uint8

// NumExpr node kinds.
const (
	NumCol NumKind = iota
	NumConst
	NumBin
)

var errDivZero = errors.New("division by zero")

// NumExpr is a statically typed numeric expression over column chunks:
// column leaves (declared int64 or float64), resolved constants, and
// binary arithmetic. The static type follows expr.arith's promotion rule —
// a node is float64 if any input is float64, otherwise int64 (so int÷int
// stays integer division, exactly like the row evaluator).
type NumExpr struct {
	Kind  NumKind
	Float bool // static result type

	Col int // NumCol: table column ordinal

	// NumConst: the resolved value (IsNull for SQL NULL).
	I      int64
	F      float64
	IsNull bool

	// NumBin
	Op   ArithOp
	L, R *NumExpr
}

// Column returns a column leaf. isFloat declares the column's storage type.
func Column(col int, isFloat bool) *NumExpr {
	return &NumExpr{Kind: NumCol, Col: col, Float: isFloat}
}

// Const returns a constant leaf; d must be int64, float64, or nil.
func Const(d types.Datum) (*NumExpr, error) {
	switch v := d.(type) {
	case nil:
		return &NumExpr{Kind: NumConst, IsNull: true}, nil
	case int64:
		return &NumExpr{Kind: NumConst, I: v}, nil
	case float64:
		return &NumExpr{Kind: NumConst, F: v, Float: true}, nil
	}
	return nil, fmt.Errorf("expected a number, got %s", types.TypeOf(d))
}

// Bin combines two numeric expressions.
func Bin(op ArithOp, l, r *NumExpr) *NumExpr {
	return &NumExpr{Kind: NumBin, Op: op, L: l, R: r, Float: l.Float || r.Float}
}

// NumVec is the result of evaluating a NumExpr over the selected rows of a
// chunk: element j corresponds to sel[j]. Exactly one of Ints/Floats is
// populated, per the expression's static type. Null marks SQL NULLs and is
// nil when no element is NULL; a NULL element's value is unspecified. The
// slices are read-only: a bare column over an unfiltered chunk is the
// chunk's own storage.
type NumVec struct {
	Ints   []int64
	Floats []float64
	Null   []bool
	Float  bool
	N      int
}

// Scratch pools the intermediate buffers NumExpr evaluation needs, so a
// per-chunk evaluation allocates only on the first chunk. Reset it before
// each chunk.
type Scratch struct {
	ints       [][]int64
	floats     [][]float64
	bools      [][]bool
	ni, nf, nb int
}

// Reset recycles all buffers for the next chunk.
func (s *Scratch) Reset() { s.ni, s.nf, s.nb = 0, 0, 0 }

// nextBuf hands out the pool's next buffer with room for n elements. Its
// contents are whatever the last chunk left there.
func nextBuf[T any](pool *[][]T, next *int, n int) []T {
	if *next == len(*pool) {
		*pool = append(*pool, nil)
	}
	b := room((*pool)[*next], n)
	(*pool)[*next] = b
	*next++
	return b
}

func (s *Scratch) getInts(n int) []int64     { return nextBuf(&s.ints, &s.ni, n) }
func (s *Scratch) getFloats(n int) []float64 { return nextBuf(&s.floats, &s.nf, n) }
func (s *Scratch) getBools(n int) []bool     { return nextBuf(&s.bools, &s.nb, n) }

// Eval evaluates the expression over the selected rows of a chunk
// (sel nil = all n rows). The returned vector's buffers belong to scratch
// (or to the chunk) and are valid until the next Reset.
func (e *NumExpr) Eval(cols []Vector, n int, sel Sel, scratch *Scratch) (NumVec, error) {
	m := selLen(sel, n)
	switch e.Kind {
	case NumCol:
		return evalColLeaf(e, &cols[e.Col], sel, scratch, m)
	case NumConst:
		out := NumVec{Float: e.Float, N: m}
		if e.IsNull {
			out.Null = scratch.getBools(m)
			for j := range out.Null {
				out.Null[j] = true
			}
		}
		if e.Float {
			out.Floats = scratch.getFloats(m)
			for j := range out.Floats {
				out.Floats[j] = e.F
			}
		} else {
			out.Ints = scratch.getInts(m)
			for j := range out.Ints {
				out.Ints[j] = e.I
			}
		}
		return out, nil
	case NumBin:
		lv, err := e.L.Eval(cols, n, sel, scratch)
		if err != nil {
			return NumVec{}, err
		}
		rv, err := e.R.Eval(cols, n, sel, scratch)
		if err != nil {
			return NumVec{}, err
		}
		return evalBin(e, lv, rv, scratch, m)
	}
	return NumVec{}, fmt.Errorf("invalid NumExpr kind %d", e.Kind)
}

// gather copies the selected elements of src into dst.
func gather[T any](dst, src []T, sel Sel) []T {
	for j, i := range sel {
		dst[j] = src[i]
	}
	return dst
}

// evalColLeaf reads a column as the leaf's declared type. A vector of that
// type is used as it stands (gathered through sel, if there is one) and an
// int vector under a float leaf is converted; anything else goes row by row
// as datums, which is where a value that is no number fails the query.
func evalColLeaf(e *NumExpr, v *Vector, sel Sel, scratch *Scratch, m int) (NumVec, error) {
	out := NumVec{Float: e.Float, N: m}
	switch {
	case v.Kind == KindFloat && e.Float:
		out.Floats = v.Floats
		if sel != nil {
			out.Floats = gather(scratch.getFloats(m), v.Floats, sel)
		}
	case v.Kind == KindInt && !e.Float:
		out.Ints = v.Ints
		if sel != nil {
			out.Ints = gather(scratch.getInts(m), v.Ints, sel)
		}
	case v.Kind == KindInt && e.Float:
		out.Floats = scratch.getFloats(m)
		if sel == nil {
			for j, iv := range v.Ints {
				out.Floats[j] = float64(iv)
			}
		} else {
			for j, i := range sel {
				out.Floats[j] = float64(v.Ints[i])
			}
		}
	default:
		return evalDatumLeaf(e, v, sel, scratch, m)
	}
	out.Null = v.Nulls
	if sel != nil && v.Nulls != nil {
		out.Null = gather(scratch.getBools(m), v.Nulls, sel)
	}
	return out, nil
}

func evalDatumLeaf(e *NumExpr, v *Vector, sel Sel, scratch *Scratch, m int) (NumVec, error) {
	out := NumVec{Float: e.Float, N: m, Null: scratch.getBools(m)}
	if e.Float {
		out.Floats = scratch.getFloats(m)
	} else {
		out.Ints = scratch.getInts(m)
	}
	for j := 0; j < m; j++ {
		i := sel.at(j)
		d := v.Datum(i)
		out.Null[j] = d == nil
		switch x := d.(type) {
		case nil:
		case int64:
			if e.Float {
				// int values can appear in float context (e.g. literals cast
				// on an older insert path); promote like toFloat would.
				out.Floats[j] = float64(x)
			} else {
				out.Ints[j] = x
			}
		case float64:
			if !e.Float {
				return NumVec{}, fmt.Errorf("expected a number, got %s", types.TypeOf(d))
			}
			out.Floats[j] = x
		default:
			return NumVec{}, fmt.Errorf("expected a number, got %s", types.TypeOf(d))
		}
	}
	return out, nil
}

// orNulls merges two NULL masks: nil when neither side has one.
func orNulls(l, r []bool, scratch *Scratch, m int) []bool {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	out := scratch.getBools(m)
	for j := range out {
		out[j] = l[j] || r[j]
	}
	return out
}

// arith runs one operator over two vectors, the operator chosen outside the
// loop. Addition, subtraction and multiplication compute NULL elements too
// (their result is never read); division and modulo must not, because a zero
// divisor beside a NULL is no error.
func arith[T int64 | float64](op ArithOp, out, l, r []T, null []bool, mod func(l, r T) T) error {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case Add:
		for j := range out {
			out[j] = l[j] + r[j]
		}
	case Sub:
		for j := range out {
			out[j] = l[j] - r[j]
		}
	case Mul:
		for j := range out {
			out[j] = l[j] * r[j]
		}
	case Div, Mod:
		for j := range out {
			if null != nil && null[j] {
				continue
			}
			if r[j] == 0 {
				return errDivZero
			}
			if op == Div {
				out[j] = l[j] / r[j]
			} else {
				out[j] = mod(l[j], r[j])
			}
		}
	}
	return nil
}

func evalBin(e *NumExpr, lv, rv NumVec, scratch *Scratch, m int) (NumVec, error) {
	out := NumVec{Float: e.Float, N: m, Null: orNulls(lv.Null, rv.Null, scratch, m)}
	if !e.Float {
		// pure integer arithmetic (expr.arith's int64 branch)
		out.Ints = scratch.getInts(m)
		err := arith(e.Op, out.Ints, lv.Ints, rv.Ints, out.Null, func(l, r int64) int64 { return l % r })
		return out, err
	}
	out.Floats = scratch.getFloats(m)
	err := arith(e.Op, out.Floats, asFloats(lv, scratch), asFloats(rv, scratch), out.Null,
		func(l, r float64) float64 { return float64(int64(l) % int64(r)) })
	return out, err
}

func asFloats(v NumVec, scratch *Scratch) []float64 {
	if v.Float {
		return v.Floats
	}
	f := scratch.getFloats(v.N)
	for j, iv := range v.Ints[:v.N] {
		f[j] = float64(iv)
	}
	return f
}
