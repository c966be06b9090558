package vec

import (
	"slices"
	"time"

	"citusgo/internal/types"
)

// Kind is the physical representation of a Vector.
type Kind uint8

// Vector kinds. A vector takes the kind of its first non-NULL value and
// keeps it; a value of any other type demotes it to KindGeneric, once and
// for good.
const (
	KindNull    Kind = iota // no non-NULL value yet: every row is NULL
	KindInt                 // int64 in Ints
	KindFloat               // float64 in Floats
	KindBool                // bool in Bools
	KindTime                // time.Time as UTC UnixNano in Ints
	KindString              // string as Dict[Codes[i]]
	KindGeneric             // any datum, boxed, in Datums
)

// dictLinear is the dictionary size up to which Append finds a string by
// walking Dict; beyond it the writer keeps a map.
const dictLinear = 8

// Vector is one column chunk: the values of one column for the rows of one
// stripe, held as a slice of one primitive type, so that a kernel pays the
// type dispatch once per chunk and then runs over int64s, float64s or
// dictionary codes. Exactly the slice named by Kind is populated (Codes and
// Dict for KindString, none for KindNull). A NULL row holds the zero value in
// that slice (code 0, which always exists) and is marked in Nulls.
//
// A Vector is append-only: Append never rewrites a row it has written, and a
// demotion builds new storage beside the old. So a view taken under the
// table lock (PrefixInto) stays a consistent view of its rows while the
// writer keeps appending.
type Vector struct {
	Kind Kind
	n    int
	// Nulls is nil while the vector holds no NULL; otherwise Nulls[i] says
	// whether row i is NULL, for every kind.
	Nulls  []bool
	Ints   []int64
	Floats []float64
	Codes  []uint32
	Dict   []string // stripe-local, in first-seen order
	Bools  []bool
	Datums []types.Datum

	index map[string]uint32 // writer side: Dict value → code, once Dict outgrows dictLinear
}

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// timeNanos returns t as UTC nanoseconds since the Unix epoch, and whether
// those nanoseconds rebuild t exactly: a zone offset, a monotonic reading,
// the zero time and every instant outside UnixNano's range do not.
func timeNanos(t time.Time) (int64, bool) {
	ns := t.UnixNano()
	return ns, time.Unix(0, ns).UTC() == t
}

func nanosTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// kindOf returns the typed kind that stores d exactly, KindGeneric if none
// does.
func kindOf(d types.Datum) Kind {
	switch x := d.(type) {
	case int64:
		return KindInt
	case float64:
		return KindFloat
	case bool:
		return KindBool
	case string:
		return KindString
	case time.Time:
		if _, exact := timeNanos(x); exact {
			return KindTime
		}
	}
	return KindGeneric
}

// appendTyped adds d when it is a value of the vector's own typed kind, which
// nearly every value is, and reports whether it was: one switch on d's type
// instead of Append's three.
func (v *Vector) appendTyped(d types.Datum) bool {
	switch x := d.(type) {
	case int64:
		if v.Kind != KindInt {
			return false
		}
		v.Ints = append(v.Ints, x)
	case float64:
		if v.Kind != KindFloat {
			return false
		}
		v.Floats = append(v.Floats, x)
	case string:
		if v.Kind != KindString {
			return false
		}
		v.Codes = append(v.Codes, v.code(x))
	case time.Time:
		ns, exact := timeNanos(x)
		if v.Kind != KindTime || !exact {
			return false
		}
		v.Ints = append(v.Ints, ns)
	default:
		return false
	}
	v.grew()
	return true
}

// grew counts a non-NULL row whose value has been appended.
func (v *Vector) grew() {
	v.n++
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
}

// AppendInt, AppendFloat, AppendTime and AppendText add one row from a value
// the caller holds unboxed — an expression kernel's result. A value of the
// vector's own kind, which is every value but a vector's first, goes straight
// into its slice; anything else is Append's.

// AppendInt is Append(x).
func (v *Vector) AppendInt(x int64) {
	if v.Kind != KindInt {
		v.Append(x)
		return
	}
	v.Ints = append(v.Ints, x)
	v.grew()
}

// AppendFloat is Append(x).
func (v *Vector) AppendFloat(x float64) {
	if v.Kind != KindFloat {
		v.Append(x)
		return
	}
	v.Floats = append(v.Floats, x)
	v.grew()
}

// AppendTime is Append(t).
func (v *Vector) AppendTime(t time.Time) {
	ns, exact := timeNanos(t)
	if v.Kind != KindTime || !exact {
		v.Append(t)
		return
	}
	v.Ints = append(v.Ints, ns)
	v.grew()
}

// AppendUnixNano is AppendTime of the UTC time ns nanoseconds after the Unix
// epoch.
func (v *Vector) AppendUnixNano(ns int64) {
	if v.Kind != KindTime {
		v.Append(nanosTime(ns))
		return
	}
	v.Ints = append(v.Ints, ns)
	v.grew()
}

// AppendText is Append(string(b)): the string is made only when the
// dictionary does not hold it yet.
func (v *Vector) AppendText(b []byte) {
	if v.Kind != KindString {
		v.Append(string(b))
		return
	}
	v.Codes = append(v.Codes, v.codeBytes(b))
	v.grew()
}

// AppendString is Append(s), and keeps s itself, not a copy: a reader that
// decodes strings out of immutable bytes (a heap tuple's) appends them as
// they lie.
func (v *Vector) AppendString(s string) {
	if v.Kind != KindString {
		v.Append(s)
		return
	}
	v.Codes = append(v.Codes, v.code(s))
	v.grew()
}

// AppendBool is Append(b).
func (v *Vector) AppendBool(b bool) {
	if v.Kind != KindBool {
		v.Append(b)
		return
	}
	v.Bools = append(v.Bools, b)
	v.grew()
}

// Append adds one row. The caller serialises appends (the table lock).
func (v *Vector) Append(d types.Datum) {
	if v.appendTyped(d) {
		return
	}
	i := v.n
	v.n++
	if d == nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, i, i+i/4+8)
		}
		v.Nulls = append(v.Nulls, true)
		v.appendZero()
		return
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	k := kindOf(d)
	if v.Kind == KindNull {
		v.start(k, i)
	} else if k != v.Kind && v.Kind != KindGeneric {
		v.demote(i)
	}
	switch v.Kind {
	case KindInt:
		v.Ints = append(v.Ints, d.(int64))
	case KindFloat:
		v.Floats = append(v.Floats, d.(float64))
	case KindBool:
		v.Bools = append(v.Bools, d.(bool))
	case KindTime:
		v.Ints = append(v.Ints, d.(time.Time).UnixNano())
	case KindString:
		v.Codes = append(v.Codes, v.code(d.(string)))
	case KindGeneric:
		v.Datums = append(v.Datums, d)
	}
}

// Reserve makes room for n more rows in the storage the vector's kind uses; a
// vector that holds no value yet has none to make it in.
func (v *Vector) Reserve(n int) {
	switch v.Kind {
	case KindInt, KindTime:
		v.Ints = slices.Grow(v.Ints, n)
	case KindFloat:
		v.Floats = slices.Grow(v.Floats, n)
	case KindBool:
		v.Bools = slices.Grow(v.Bools, n)
	case KindString:
		v.Codes = slices.Grow(v.Codes, n)
	case KindGeneric:
		v.Datums = slices.Grow(v.Datums, n)
	}
	if v.Nulls != nil {
		v.Nulls = slices.Grow(v.Nulls, n)
	}
}

// appendSel appends to dst the elements of src that idx names, all of src
// when idx is nil.
func appendSel[T any](dst, src []T, idx Sel) []T {
	if idx == nil {
		return append(dst, src...)
	}
	at := len(dst)
	dst = slices.Grow(dst, len(idx))[:at+len(idx)]
	for j, i := range idx {
		dst[at+j] = src[i]
	}
	return dst
}

// AppendRows appends rows idx of src, in that order — all of src when idx is
// nil. idx need not ascend and may repeat a row: it is a filter's selection
// when an operator keeps what passed, and a join's match list when it
// gathers its output. Vectors of one typed kind copy slice to slice (a
// string's code through the dictionaries); any other pairing goes datum by
// datum through Append, which is where v demotes if it must. src is only
// read, and v may keep pointing into it: src's storage must stay as it is
// for as long as v lives.
func (v *Vector) AppendRows(src *Vector, idx Sel) {
	m := selLen(idx, src.n)
	if m == 0 {
		return
	}
	if v.Kind == KindNull && src.Kind != KindNull && src.Kind != KindGeneric {
		v.start(src.Kind, v.n)
	}
	if v.Kind != src.Kind || v.Kind == KindGeneric || v.Kind == KindNull {
		for j := 0; j < m; j++ {
			v.Append(src.Datum(idx.at(j)))
		}
		return
	}
	at := v.n
	v.n += m
	if src.Nulls != nil || v.Nulls != nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, at, at+m)
		}
		if src.Nulls == nil {
			v.Nulls = append(v.Nulls, make([]bool, m)...)
		} else {
			v.Nulls = appendSel(v.Nulls, src.Nulls[:src.n], idx)
		}
	}
	switch v.Kind {
	case KindInt, KindTime:
		v.Ints = appendSel(v.Ints, src.Ints[:src.n], idx)
	case KindFloat:
		v.Floats = appendSel(v.Floats, src.Floats[:src.n], idx)
	case KindBool:
		v.Bools = appendSel(v.Bools, src.Bools[:src.n], idx)
	case KindString:
		if len(v.Dict) == 0 {
			// src's dictionary as it stands, its capacity cut so that a later
			// string of another source is appended to a copy
			v.Dict = src.Dict[:len(src.Dict):len(src.Dict)]
			v.Codes = appendSel(v.Codes, src.Codes[:src.n], idx)
			return
		}
		// each of src's codes is looked up in v's dictionary once; a NULL
		// row's code 0 comes along, which keeps v's own code 0 in existence
		trans := make([]uint32, len(src.Dict))
		for j := 0; j < m; j++ {
			c := src.Codes[idx.at(j)]
			if trans[c] == 0 {
				trans[c] = v.code(src.Dict[c]) + 1
			}
			v.Codes = append(v.Codes, trans[c]-1)
		}
	}
}

// appendZero adds the placeholder of a NULL row.
func (v *Vector) appendZero() {
	switch v.Kind {
	case KindInt, KindTime:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindBool:
		v.Bools = append(v.Bools, false)
	case KindString:
		v.Codes = append(v.Codes, 0)
	case KindGeneric:
		v.Datums = append(v.Datums, nil)
	}
}

// zeros returns i zero values with room for a few more, in buf's storage when
// that is large enough (a Reset vector's) and in new storage otherwise.
func zeros[T any](buf []T, i int) []T {
	buf = slices.Grow(buf[:0], i+8)[:i]
	clear(buf)
	return buf
}

// start gives a vector of i NULL rows its kind.
func (v *Vector) start(k Kind, i int) {
	v.Kind = k
	switch k {
	case KindInt, KindTime:
		v.Ints = zeros(v.Ints, i)
	case KindFloat:
		v.Floats = zeros(v.Floats, i)
	case KindBool:
		v.Bools = zeros(v.Bools, i)
	case KindString:
		v.Codes = zeros(v.Codes, i)
	case KindGeneric:
		v.Datums = zeros(v.Datums, i)
	}
}

// Reset empties the vector and keeps its storage for the rows to come. Only
// the owner of a vector nothing else points into may call it: a scratch
// vector whose rows were read and dropped, never one a view, a datum or
// another vector (AppendRows) was taken from.
func (v *Vector) Reset() {
	*v = Vector{Ints: v.Ints[:0], Floats: v.Floats[:0], Codes: v.Codes[:0], Dict: v.Dict[:0],
		Bools: v.Bools[:0], Datums: v.Datums[:0]}
}

// demote rebuilds the first i rows as boxed datums. The typed storage is
// left as it was, for the readers that hold a view of it.
func (v *Vector) demote(i int) {
	datums := v.AppendDatums(make([]types.Datum, 0, i+i/4+8), 0, i)
	*v = Vector{Kind: KindGeneric, Datums: datums, Nulls: v.Nulls, n: v.n}
}

// code returns the dictionary code of s, adding s to the dictionary on
// first sight.
func (v *Vector) code(s string) uint32 {
	if v.index == nil {
		for c, have := range v.Dict {
			if have == s {
				return uint32(c)
			}
		}
		if len(v.Dict) >= dictLinear { // more than that when AppendRows took another vector's over
			v.index = make(map[string]uint32, 2*len(v.Dict))
			for c, have := range v.Dict {
				v.index[have] = uint32(c)
			}
		}
	} else if c, ok := v.index[s]; ok {
		return c
	}
	c := uint32(len(v.Dict))
	v.Dict = append(v.Dict, s)
	if v.index != nil {
		v.index[s] = c
	}
	return c
}

// codeBytes is code(string(b)), looking b up as it lies.
func (v *Vector) codeBytes(b []byte) uint32 {
	if v.index != nil {
		if c, ok := v.index[string(b)]; ok {
			return c
		}
	} else {
		for c, have := range v.Dict {
			if have == string(b) {
				return uint32(c)
			}
		}
	}
	return v.code(string(b)) // new: once per distinct value
}

// Freeze drops what only Append needs and the room append grew past the
// rows: the owner calls it, under the lock that serialises Append, when the
// vector will take no more rows. Each slice moves to an array of exactly its
// length; a view taken before keeps reading the old one.
func (v *Vector) Freeze() {
	v.index = nil
	v.Nulls, v.Ints, v.Floats = clip(v.Nulls), clip(v.Ints), clip(v.Floats)
	v.Codes, v.Dict, v.Bools, v.Datums = clip(v.Codes), clip(v.Dict), clip(v.Bools), clip(v.Datums)
}

// clip returns s in an array of exactly its length.
func clip[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// RangeInto makes *p a view of rows [lo, hi). The view shares storage with v
// and must be taken under the lock that serialises Append; its slices end at
// hi, so that appending to a view — a reader that takes it over as the start
// of a vector of its own — copies and never writes into v. It reads and
// writes only the fields v's kind uses: a scan takes a view of every needed
// column of every stripe, and the stripes' vectors are cold memory.
func (v *Vector) RangeInto(p *Vector, lo, hi int) {
	if p.Kind != v.Kind {
		*p = Vector{Kind: v.Kind}
	}
	p.n = hi - lo
	switch v.Kind {
	case KindInt, KindTime:
		p.Ints = v.Ints[lo:hi:hi]
	case KindFloat:
		p.Floats = v.Floats[lo:hi:hi]
	case KindBool:
		p.Bools = v.Bools[lo:hi:hi]
	case KindString:
		p.Codes, p.Dict = v.Codes[lo:hi:hi], v.Dict[:len(v.Dict):len(v.Dict)]
	case KindGeneric:
		p.Datums = v.Datums[lo:hi:hi]
	}
	p.Nulls = nil
	if v.Nulls != nil {
		p.Nulls = v.Nulls[lo:hi:hi]
	}
}

// Datum returns row i as a datum. An int64, float64 or string points into
// the vector's storage (types.BoxInt64), so nothing is allocated for it; a
// time is rebuilt and does allocate — AppendDatums is the way to read many.
func (v *Vector) Datum(i int) types.Datum {
	if v.Nulls != nil && v.Nulls[i] {
		return nil
	}
	switch v.Kind {
	case KindInt:
		return types.BoxInt64(&v.Ints[i])
	case KindFloat:
		return types.BoxFloat64(&v.Floats[i])
	case KindBool:
		return v.Bools[i]
	case KindTime:
		return nanosTime(v.Ints[i])
	case KindString:
		return types.BoxString(&v.Dict[v.Codes[i]])
	case KindGeneric:
		return v.Datums[i]
	}
	return nil
}

// AppendDatums appends rows [lo, hi) to dst as datums — what a row-at-a-time
// reader sees. Like Datum it points into the vector's storage; the times of
// the range share one array allocated here, so a caller may keep the datums
// but pays one allocation per call, not per row.
func (v *Vector) AppendDatums(dst []types.Datum, lo, hi int) []types.Datum {
	at := len(dst)
	dst = slices.Grow(dst, hi-lo)[:at+hi-lo]
	out := dst[at:]
	switch v.Kind {
	case KindInt:
		for j := range out {
			out[j] = types.BoxInt64(&v.Ints[lo+j])
		}
	case KindFloat:
		for j := range out {
			out[j] = types.BoxFloat64(&v.Floats[lo+j])
		}
	case KindString:
		for j := range out {
			out[j] = types.BoxString(&v.Dict[v.Codes[lo+j]])
		}
	case KindTime:
		times := make([]time.Time, len(out))
		for j := range out {
			times[j] = nanosTime(v.Ints[lo+j])
			out[j] = types.BoxTime(&times[j])
		}
	case KindGeneric:
		copy(out, v.Datums[lo:hi])
		return dst // its NULLs are nil datums already
	default:
		for j := range out {
			out[j] = v.Datum(lo + j)
		}
	}
	if v.Nulls != nil {
		for j, null := range v.Nulls[lo:hi] {
			if null {
				out[j] = nil
			}
		}
	}
	return dst
}
