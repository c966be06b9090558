package vec

import (
	"time"

	"citusgo/internal/types"
)

// TopNBound pushes an ORDER BY <group key> LIMIT k above a grouped
// aggregate down into the scan. It remembers the k best distinct values of
// the key seen so far; once it holds k, a row whose key sorts behind the
// k-th belongs to a group that at least k other groups precede, so the
// TopN above would discard it and the row need not be encoded or folded.
//
// The cut is exact. The bound only tightens, so it is never tighter than
// the final k-th best key: a group inside the final top k never loses a
// row, and keeps its place in first-seen order among the other survivors.
// A group that does lose rows stays strictly behind k distinct keys.
//
// Ordering is types.Compare's, which sorts NULL lowest. Ascending, NULL is
// therefore the best key: it takes one of the k places and passes every
// bound. Descending, NULL is the worst key and is cut like any other.
//
// A TopNBound belongs to one scan goroutine.
type TopNBound struct {
	col  int
	desc bool
	k    int

	// vals holds the best distinct non-NULL keys seen, best first, never
	// more than room() of them.
	vals    []types.Datum
	sawNull bool // ascending only
	moved   bool // the bound changed during the current Apply

	selA, selB Sel
	or         OrFilter
	orSc       OrScratch
}

// NewTopNBound returns a bound on chunk column col for the k best distinct
// keys, ascending or descending. k must be positive.
func NewTopNBound(col int, desc bool, k int) *TopNBound {
	return &TopNBound{col: col, desc: desc, k: k,
		// non-nil, so that an empty selection never reads as "all rows"
		selA: make(Sel, 0, 64), selB: make(Sel, 0, 64),
		or: OrFilter{Branches: []Filter{{}, {Col: col, NullTest: true}}}}
}

// room is how many non-NULL keys the bound may hold.
func (b *TopNBound) room() int {
	if b.sawNull {
		return b.k - 1
	}
	return b.k
}

// rel orders keys best first.
func (b *TopNBound) rel(x, y types.Datum) int {
	if b.desc {
		return types.Compare(y, x)
	}
	return types.Compare(x, y)
}

// filter returns the kernel that passes the non-NULL keys still inside the
// bound; ok is false until k distinct keys have been seen.
func (b *TopNBound) filter() (f Filter, ok bool) {
	room := b.room()
	if len(b.vals) < room {
		return Filter{}, false
	}
	if room == 0 {
		// ascending LIMIT 1 with a NULL key seen: only NULL keys remain
		return Filter{Col: b.col, NullTest: true}, true
	}
	op := Le
	if b.desc {
		op = Ge
	}
	return Filter{Col: b.col, Op: op, K: b.vals[room-1]}, true
}

// observe folds the keys of the selected rows into the bound. Once the
// bound holds k keys nearly every row is no better than the k-th, and for an
// int, timestamp or string vector one typed comparison dismisses it; only a
// row that may move the bound is read as a datum and goes through add.
func (b *TopNBound) observe(v *Vector, sel Sel, nrows int) {
	m := selLen(sel, nrows)
	switch v.Kind {
	case KindInt:
		observeTyped(b, v, v.Ints, nil, sel, m, func(d types.Datum) (int64, bool) {
			k, ok := d.(int64)
			return k, ok
		})
	case KindTime:
		observeTyped(b, v, v.Ints, nil, sel, m, func(d types.Datum) (int64, bool) {
			if t, ok := d.(time.Time); ok {
				return instantNanos(t)
			}
			return 0, false
		})
	case KindString:
		observeTyped(b, v, v.Dict, v.Codes, sel, m, func(d types.Datum) (string, bool) {
			k, ok := d.(string)
			return k, ok
		})
	default:
		for j := 0; j < m; j++ {
			b.add(v.Datum(sel.at(j)))
		}
	}
}

// observeTyped is observe over keys of type T: vals[i], or vals[codes[i]]
// for a dictionary. as converts the k-th best key; while it cannot (the
// bound is not full, or holds keys of another type) every row takes add.
func observeTyped[T ordered](b *TopNBound, v *Vector, vals []T, codes []uint32, sel Sel, m int, as func(types.Datum) (T, bool)) {
	kth := func() (k T, full bool) {
		if room := b.room(); room > 0 && len(b.vals) == room {
			return as(b.vals[room-1])
		}
		return k, false
	}
	k, full := kth()
	for j := 0; j < m; j++ {
		i := sel.at(j)
		if !v.IsNull(i) && full {
			at := i
			if codes != nil {
				at = int(codes[i])
			}
			if x := vals[at]; (b.desc && x <= k) || (!b.desc && x >= k) {
				continue // no better than the k-th best
			}
		}
		b.add(v.Datum(i))
		k, full = kth()
	}
}

func (b *TopNBound) add(v types.Datum) {
	if v == nil {
		if !b.desc && !b.sawNull {
			b.sawNull = true
			if len(b.vals) >= b.room() {
				b.vals = b.vals[:b.room()]
				b.moved = true
			}
		}
		return
	}
	room := b.room()
	if len(b.vals) == room && (room == 0 || b.rel(v, b.vals[room-1]) >= 0) {
		return // no better than the k-th best
	}
	lo, hi := 0, len(b.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.rel(b.vals[mid], v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.vals) && b.rel(b.vals[lo], v) == 0 {
		return // already counted
	}
	if len(b.vals) < room {
		b.vals = append(b.vals, nil)
	}
	copy(b.vals[lo+1:], b.vals[lo:])
	b.vals[lo] = v
	b.moved = b.moved || len(b.vals) == room
}

// cut applies f to sel, letting NULL keys through an ascending bound.
func (b *TopNBound) cut(f Filter, chunk []Vector, hasNulls bool, sel Sel, out Sel) Sel {
	if b.desc || !hasNulls || f.NullTest {
		return f.Apply(&chunk[b.col], sel, out)
	}
	b.or.Branches[0] = f
	return b.or.Apply(chunk, sel, out, &b.orSc)
}

// Apply removes from sel (nil = all nrows rows of the chunk) the rows
// whose key is behind the bound, first as it stood before this chunk and
// then as the surviving rows of this chunk tightened it. It returns the
// remaining selection, valid until the next Apply, and the number of rows
// cut. hasNulls says whether the chunk's key column may hold NULLs.
func (b *TopNBound) Apply(chunk []Vector, hasNulls bool, sel Sel, nrows int) (Sel, int) {
	before := selLen(sel, nrows)
	if f, ok := b.filter(); ok {
		b.selA = b.cut(f, chunk, hasNulls, sel, b.selA)
		sel = b.selA
	}
	b.moved = false
	b.observe(&chunk[b.col], sel, nrows)
	if b.moved {
		if f, ok := b.filter(); ok {
			b.selB = b.cut(f, chunk, hasNulls, sel, b.selB)
			sel = b.selB
		}
	}
	if sel == nil {
		return nil, 0
	}
	return sel, before - len(sel)
}

// Skip reports whether a stripe's key statistics ([min, max] over its
// non-NULL values, ok as for Filter.Skip) prove that the bound cuts every
// row, so the stripe's chunks need not be loaded.
func (b *TopNBound) Skip(min, max types.Datum, ok, hasNulls bool) bool {
	f, bounded := b.filter()
	if !bounded || (hasNulls && !b.desc) {
		return false
	}
	if f.NullTest {
		return true
	}
	return f.Skip(min, max, ok)
}
