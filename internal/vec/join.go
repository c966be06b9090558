package vec

import (
	"math/bits"
	"time"
)

// JoinTable is the build side of an equi-join on whole columns: the build
// rows, listed by key. Every distinct key is a group, numbered in first-seen
// order, and a probe turns its own key columns into group numbers the same
// way — NoGroup for a key the build side does not hold.
//
// In general the keys are a GroupDict's groups: the same codes, composite
// and direct-address table a grouped fold uses, so a key costs what a group
// key costs and none is hashed, boxed or formatted per row; the dictionary is
// frozen once the build side is in. The commonest key — one column of ints,
// or of timestamps — skips the dictionary for an open-addressing table of the
// int64s themselves (intKeys): a dictionary numbers a column's values through
// a map before it can number the keys, which for a table built once and
// probed once costs more than the join it serves.
//
// Both follow GroupDict's identity: same type and same bits (so the two
// sides' key columns must be of one type for the join to mean what the row
// path's does). A row with a NULL in any key column joins nothing and is
// left out on both sides.
type JoinTable struct {
	dict *GroupDict // nil when ints serves
	ints *intKeys

	// the build rows of group g are rows[start[g]:start[g+1]], ascending
	start []int32
	rows  []int32

	ids []uint32 // probe scratch
	sel Sel
}

// intKeys numbers int64 keys in first-seen order: linear probing over a
// power-of-two table at most half full.
type intKeys struct {
	kind  Kind     // KindInt or KindTime: what the int64s are
	keys  []int64  // by slot
	group []uint32 // by slot: the key's group + 1, 0 for an empty slot
	shift uint8
	n     uint32
}

func newIntKeys(kind Kind, n int) *intKeys {
	size := max(16, 1<<bits.Len(uint(2*n)))
	return &intKeys{kind: kind, keys: make([]int64, size), group: make([]uint32, size),
		shift: uint8(64 - bits.TrailingZeros(uint(size)))}
}

// find returns the group of x: NoGroup when it has none and add is false, a
// new one when add is true.
func (t *intKeys) find(x int64, add bool) uint32 {
	mask := len(t.keys) - 1
	for s := int(uint64(x) * 0x9E3779B97F4A7C15 >> t.shift); ; s = (s + 1) & mask {
		switch g := t.group[s]; {
		case g == 0 && !add:
			return NoGroup
		case g == 0:
			t.n++
			t.keys[s], t.group[s] = x, t.n
			return t.n - 1
		case t.keys[s] == x:
			return g - 1
		}
	}
}

// encode writes the group of each selected row of v to ids.
func (t *intKeys) encode(v *Vector, sel Sel, ids []uint32, add bool) {
	if v.Kind == t.kind {
		for j := range ids {
			ids[j] = t.find(v.Ints[sel.at(j)], add)
		}
		return
	}
	// a probe column of another kind: only a boxed one can hold a value of
	// the keys' type
	for j := range ids {
		ids[j] = NoGroup
		switch x := v.Datum(sel.at(j)).(type) {
		case int64:
			if t.kind == KindInt {
				ids[j] = t.find(x, false)
			}
		case time.Time:
			if t.kind == KindTime {
				ids[j] = t.find(x.UnixNano(), false)
			}
		}
	}
}

// keyRows returns the rows of cols whose every key column holds a value: nil
// when that is all of them. buf is scratch for the first column that has NULLs.
func keyRows(cols []Vector, keyOrds []int, buf Sel) Sel {
	var sel Sel
	for _, ord := range keyOrds {
		if v := &cols[ord]; v.Nulls != nil {
			buf = applyNullTest(v, sel, buf, false)
			sel, buf = buf, nil
		}
	}
	return sel
}

// groups writes the group of each selected row's key to ids: the build side
// numbering new keys (add), the probe side looking them up.
func (t *JoinTable) groups(cols []Vector, keyOrds []int, sel Sel, n int, ids []uint32, add bool) []uint32 {
	if t.ints == nil {
		return t.dict.Encode(cols, keyOrds, sel, n, ids)
	}
	ids = room(ids, selLen(sel, n))
	t.ints.encode(&cols[keyOrds[0]], sel, ids, add)
	return ids
}

// NewJoinTable builds the table over the first n rows of cols, keyed by the
// columns keyOrds.
func NewJoinTable(cols []Vector, keyOrds []int, n int) *JoinTable {
	t := &JoinTable{}
	if n == 0 {
		return t
	}
	sel := keyRows(cols, keyOrds, nil)
	if k := cols[keyOrds[0]].Kind; len(keyOrds) == 1 && (k == KindInt || k == KindTime) {
		t.ints = newIntKeys(k, selLen(sel, n))
	} else {
		t.dict = NewGroupDict()
	}
	ids := t.groups(cols, keyOrds, sel, n, nil, true)
	groups := 0
	if t.ints != nil {
		groups = int(t.ints.n)
	} else {
		t.dict.Freeze()
		groups = t.dict.NumGroups()
	}
	t.start = make([]int32, groups+1)
	for _, g := range ids {
		t.start[g+1]++
	}
	for g := 0; g < groups; g++ {
		t.start[g+1] += t.start[g]
	}
	t.rows = make([]int32, len(ids))
	next := append([]int32(nil), t.start[:groups]...)
	for j, g := range ids {
		t.rows[next[g]] = int32(sel.at(j))
		next[g]++
	}
	return t
}

// Probe matches the first n rows of cols, keyed by keyOrds, against the
// table, and appends one (probe row, build row) pair per match to the two
// lists: probe rows ascending, and the build rows of one probe row ascending.
func (t *JoinTable) Probe(cols []Vector, keyOrds []int, n int, probe, build []int32) ([]int32, []int32) {
	if len(t.rows) == 0 || n == 0 {
		return probe, build
	}
	sel := keyRows(cols, keyOrds, t.sel[:0])
	if sel != nil {
		t.sel = sel
	}
	t.ids = t.groups(cols, keyOrds, sel, n, t.ids, false)
	for j, g := range t.ids {
		if g == NoGroup {
			continue
		}
		i := int32(sel.at(j))
		for _, b := range t.rows[t.start[g]:t.start[g+1]] {
			probe = append(probe, i)
			build = append(build, b)
		}
	}
	return probe, build
}

// SortPairs reorders a pair list that ascends by minor into one that ascends
// by major, of which no value reaches n — and, one major value's pairs among
// themselves, still by minor: a stable counting sort. A join that built on
// its left input uses it to hand its matches on in the order a join built on
// the right would have found them.
func SortPairs(major, minor []int32, n int) ([]int32, []int32) {
	next := make([]int32, n+1)
	for _, m := range major {
		next[m+1]++
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	outMajor, outMinor := make([]int32, len(major)), make([]int32, len(minor))
	for j, m := range major {
		outMajor[next[m]], outMinor[next[m]] = m, minor[j]
		next[m]++
	}
	return outMajor, outMinor
}
