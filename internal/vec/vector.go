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

// Append adds one row. The caller serialises appends (the table lock).
func (v *Vector) Append(d types.Datum) {
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

// start gives a vector of i NULL rows its kind.
func (v *Vector) start(k Kind, i int) {
	v.Kind = k
	switch k {
	case KindInt, KindTime:
		v.Ints = make([]int64, i, i+8)
	case KindFloat:
		v.Floats = make([]float64, i, i+8)
	case KindBool:
		v.Bools = make([]bool, i, i+8)
	case KindString:
		v.Codes = make([]uint32, i, i+8)
	case KindGeneric:
		v.Datums = make([]types.Datum, i, i+8)
	}
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
		if len(v.Dict) == dictLinear {
			v.index = make(map[string]uint32, 2*dictLinear)
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

// Freeze drops what only Append needs; the owner calls it when the vector
// will take no more rows.
func (v *Vector) Freeze() { v.index = nil }

// PrefixInto makes *p a view of the first n rows. The view shares storage
// with v and must be taken under the lock that serialises Append. It reads
// and writes only the fields v's kind uses: a scan takes a view of every
// needed column of every stripe, and the stripes' vectors are cold memory.
func (v *Vector) PrefixInto(p *Vector, n int) {
	if p.Kind != v.Kind {
		*p = Vector{Kind: v.Kind}
	}
	p.n = n
	switch v.Kind {
	case KindInt, KindTime:
		p.Ints = v.Ints[:n]
	case KindFloat:
		p.Floats = v.Floats[:n]
	case KindBool:
		p.Bools = v.Bools[:n]
	case KindString:
		p.Codes, p.Dict = v.Codes[:n], v.Dict
	case KindGeneric:
		p.Datums = v.Datums[:n]
	}
	p.Nulls = nil
	if v.Nulls != nil {
		p.Nulls = v.Nulls[:n]
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
