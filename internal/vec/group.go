package vec

// Group-ID vectors: the vectorized grouped fold.
//
// The row-at-a-time grouped aggregate pays a hash-or-compare of the whole
// grouping key per input row. The vectorized fold instead turns each chunk's
// key columns into a dense []uint32 group-ID vector, and the aggregate
// kernels fold whole chunks into typed per-group accumulator arrays
// (GroupedAgg) indexed by group ID — one bounds-checked array access per row
// instead of an interface-keyed map probe per row.
//
// A group ID is found in three steps, none of which builds a key per row:
//
//  1. Codes. Every key column has a dictionary for the life of the scan
//     partial (keyDict) that numbers its distinct values 1, 2, 3, … as they
//     turn up; NULL is code 0. A chunk is translated column by column, by
//     its vector's kind: a string vector translates its own dictionary (each
//     stripe-local code is looked up once per chunk, then remembered in a
//     translation array) and a bool vector has two entries; an int or
//     timestamp vector indexes the column's window — an array of codes by
//     value − base, kept while the values seen are dense enough for one — and
//     probes the column's dictionary only for a value the window does not
//     hold; a float column probes it per row, and a KindGeneric vector goes
//     datum by datum.
//  2. Composite. Column g gets as many bits as its code count needs, and the
//     codes of a row, shifted side by side, are one small integer: each
//     column's translation ORs its shifted code into the row's slot, so the
//     composite is complete when the last key column has been read.
//  3. Table. A direct-address table indexed by the composite holds the
//     group's ID. New groups take the next ID, so IDs are in first-seen
//     order. When the composite space is too large for a table — more than
//     directMax slots and more than four per group — the codes are hashed
//     into an open-addressing table instead, for the rest of the scan.
//
// Semantics mirror the row path exactly where the row path is well-defined:
//   - group IDs are assigned in first-seen scan order, so emitting groups in
//     ID order reproduces the row path's first-seen output order;
//   - sums accumulate in int64 until the first float64 input of that group
//     (in scan order), then promote — identical to expr.AggState;
//   - NULL is a valid grouping value and NULL group keys compare equal;
//   - two values are one key iff they have the same type and the same bits:
//     int 1, float 1.0 and text '1' are three keys. Floats go by IEEE bits
//     with every NaN folded into one (no SQL engine gives each NaN row its
//     own group) and -0.0 apart from 0.0, like the row path's formatted keys;
//     timestamps go by instant (UnixNano); kinds without a typed form (jsonb)
//     go by their types.Format text.

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"citusgo/internal/types"
)

// directMax is the largest direct-address table a dictionary uses whatever
// its group count (256 KiB of IDs). A larger one is still used while it has
// no more than four slots per group: a single high-cardinality key is its own
// dense composite.
const directMax = 1 << 16

// Value classes of keyDict.nums.
const (
	tagInt = iota
	tagFloat
	tagBool
	tagTime
	numTags
)

// keyDict numbers the distinct values of one key column from 1, in the
// order they are first asked for; code 0 is NULL.
type keyDict struct {
	nums  [numTags]map[uint64]uint32
	strs  map[string]uint32
	other map[string]uint32 // values of no typed kind, by types.Format
	n     uint32            // codes handed out
	// frozen: a value without a code gets none, and reads as code 0
	// (GroupDict.Freeze)
	frozen bool

	// win is a window on nums[winTag] for an int64 column (ints, or
	// timestamps): win[x-base] is the code of x, 0 when x has none yet or the
	// window has not learnt it. It covers the values seen so far while they
	// are dense — no more than winSparse slots per code — so a low-cardinality
	// or a serial key is translated by one array look-up per row, and a
	// scattered one (which would make it huge) by the map.
	win    []uint32
	base   int64
	winTag int
	lo, hi int64 // the smallest and largest value asked for under winTag
}

// winSparse bounds the window's size: this many slots per code, plus winPad.
const (
	winSparse = 8
	winPad    = 256
)

func (k *keyDict) num(tag int, bits uint64) uint32 {
	m := k.nums[tag]
	if m == nil {
		m = make(map[uint64]uint32)
		k.nums[tag] = m
	}
	c, ok := m[bits]
	if !ok && !k.frozen {
		k.n++
		c = k.n
		m[bits] = c
	}
	return c
}

func (k *keyDict) text(m *map[string]uint32, s string) uint32 {
	if *m == nil {
		*m = make(map[string]uint32)
	}
	c, ok := (*m)[s]
	if !ok && !k.frozen {
		k.n++
		c = k.n
		(*m)[s] = c
	}
	return c
}

// floatKey is the grouping identity of a float: its bits, every NaN the same.
func floatKey(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

func boolKey(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// datum is the code of one value of any type: the slow door every typed
// translation must agree with.
func (k *keyDict) datum(d types.Datum) uint32 {
	switch x := d.(type) {
	case nil:
		return 0
	case int64:
		return k.num(tagInt, uint64(x))
	case float64:
		return k.num(tagFloat, floatKey(x))
	case bool:
		return k.num(tagBool, boolKey(x))
	case string:
		return k.text(&k.strs, x)
	case time.Time:
		return k.num(tagTime, uint64(x.UnixNano()))
	}
	return k.text(&k.other, types.Format(d))
}

// GroupDict interns composite group keys into dense uint32 IDs, first-seen
// ordered. It belongs to one scan goroutine.
type GroupDict struct {
	cols []keyDict
	n    int           // groups
	keys []types.Datum // representative datums, len(cols) per group

	// Direct mode (direct != nil). Column g's code sits width[g] bits wide at
	// bit shift[g] of a key's composite; direct maps a composite to its
	// group's ID+1 (0: none yet) and comps lists every group's composite,
	// from which a new layout rebuilds the table.
	width, shift []uint8
	direct       []uint32
	comps        []uint32

	// Hashed mode (direct == nil), entered once and for good. hashed is an
	// open-addressing table of ID+1 probed by the hash of a key's codes, and
	// codes lists every group's codes, len(cols) per group.
	hashed   []uint32
	codes    []uint32
	colCodes [][]uint32 // per-chunk scratch: column g's code of every row

	trans  []uint32 // per-chunk scratch: chunk-local code → column code
	frozen bool     // see Freeze
}

// NewGroupDict returns an empty dictionary.
func NewGroupDict() *GroupDict { return &GroupDict{} }

// NoGroup is the ID a frozen dictionary gives a key it does not hold.
const NoGroup = ^uint32(0)

// Freeze ends the dictionary's learning: from here on Encode looks keys up,
// gives NoGroup to one it has not seen, and adds neither a group nor a code.
// This is a hash join's probe: the build side's keys are the groups.
func (d *GroupDict) Freeze() {
	d.frozen = true
	for g := range d.cols {
		d.cols[g].frozen = true
	}
}

// NumGroups returns the number of distinct keys seen so far.
func (d *GroupDict) NumGroups() int { return d.n }

// Key returns the representative datums of group id (aliased, read-only).
func (d *GroupDict) Key(id uint32) types.Row {
	nk := len(d.cols)
	return d.keys[int(id)*nk : int(id+1)*nk : int(id+1)*nk]
}

func (d *GroupDict) init(nk int) {
	if d.cols != nil {
		return
	}
	d.cols = make([]keyDict, nk)
	d.width = make([]uint8, nk)
	d.shift = make([]uint8, nk)
	d.direct = make([]uint32, 1) // no code yet: every key is all-NULL
}

// transBuf returns n zeroed translation slots.
func (d *GroupDict) transBuf(n int) []uint32 {
	d.trans = room(d.trans, n)
	clear(d.trans)
	return d.trans
}

// encodeCol ORs into out[j] the column code, shifted left by shift, of the
// j-th selected row of v. A NULL row adds nothing: its code is 0.
func (d *GroupDict) encodeCol(k *keyDict, v *Vector, sel Sel, out []uint32, shift uint8) {
	nulls := v.Nulls
	switch v.Kind {
	case KindString:
		trans, codes := d.transBuf(len(v.Dict)), v.Codes
		if sel == nil && nulls == nil {
			for j, c := range codes[:len(out)] {
				if trans[c] == 0 {
					trans[c] = k.text(&k.strs, v.Dict[c]) << shift
				}
				out[j] |= trans[c]
			}
			return
		}
		for j := range out {
			i := sel.at(j)
			if nulls != nil && nulls[i] {
				continue
			}
			c := codes[i]
			if trans[c] == 0 {
				trans[c] = k.text(&k.strs, v.Dict[c]) << shift
			}
			out[j] |= trans[c]
		}
	case KindBool:
		var trans [2]uint32
		for j := range out {
			i := sel.at(j)
			if nulls != nil && nulls[i] {
				continue
			}
			c := boolKey(v.Bools[i])
			if trans[c] == 0 {
				trans[c] = k.num(tagBool, c) << shift
			}
			out[j] |= trans[c]
		}
	case KindInt:
		k.encodeInts(tagInt, v.Ints, nulls, sel, out, shift)
	case KindTime:
		k.encodeInts(tagTime, v.Ints, nulls, sel, out, shift)
	case KindFloat:
		for j := range out {
			i := sel.at(j)
			if nulls == nil || !nulls[i] {
				out[j] |= k.num(tagFloat, floatKey(v.Floats[i])) << shift
			}
		}
	default:
		for j := range out {
			i := sel.at(j)
			out[j] |= k.datum(v.Datum(i)) << shift
		}
	}
}

// encodeInts is encodeCol for an int64 column: one look-up in the column's
// window per row, and intSlow for a value the window does not know.
func (k *keyDict) encodeInts(tag int, vals []int64, nulls []bool, sel Sel, out []uint32, shift uint8) {
	if k.win == nil {
		k.winTag = tag
	}
	if k.winTag != tag {
		// a column that has held ints and timestamps: the window serves the
		// first kind, the other goes by the map
		for j := range out {
			i := sel.at(j)
			if nulls == nil || !nulls[i] {
				out[j] |= k.num(tag, uint64(vals[i])) << shift
			}
		}
		return
	}
	base, win := k.base, k.win
	if sel == nil && nulls == nil {
		for j, x := range vals[:len(out)] {
			u := uint64(x) - uint64(base)
			if u >= uint64(len(win)) || win[u] == 0 {
				out[j] |= k.intSlow(x) << shift
				base, win = k.base, k.win
				continue
			}
			out[j] |= win[u] << shift
		}
		return
	}
	for j := range out {
		i := sel.at(j)
		if nulls != nil && nulls[i] {
			continue
		}
		u := uint64(vals[i]) - uint64(base)
		if u >= uint64(len(win)) || win[u] == 0 {
			out[j] |= k.intSlow(vals[i]) << shift
			base, win = k.base, k.win
			continue
		}
		out[j] |= win[u] << shift
	}
}

// intSlow returns the code of x, a value under winTag the window had no
// answer for, and teaches it to the window — moved and grown to cover every
// value seen, if those are still dense enough for one.
func (k *keyDict) intSlow(x int64) uint32 {
	c := k.num(k.winTag, uint64(x))
	if k.frozen {
		return c
	}
	if k.win == nil {
		k.lo, k.hi = x, x
	}
	k.lo, k.hi = min(k.lo, x), max(k.hi, x)
	if u := uint64(x) - uint64(k.base); u < uint64(len(k.win)) {
		k.win[u] = c
		return c
	}
	span := uint64(k.hi) - uint64(k.lo)
	if span >= uint64(winSparse*k.n+winPad) {
		return c // too scattered: what the window holds it keeps, x stays with the map
	}
	// Room to grow on both sides, so that a run of new values moves it
	// rarely. Offsets are taken modulo 2^64, so a base that wraps around
	// below the smallest int64 is as good as any.
	pad := span/2 + winPad/2
	base := k.lo - int64(pad)
	win := make([]uint32, span+2*pad+1)
	for i, have := range k.win {
		if u := uint64(k.base) + uint64(i) - uint64(base); have != 0 && u < uint64(len(win)) {
			win[u] = have
		}
	}
	k.win, k.base = win, base
	k.win[uint64(x)-uint64(base)] = c
	return c
}

// Encode computes the group-ID vector for one chunk: the ID of the
// groupOrds columns' key for each selected row (all nrows when sel is nil),
// written to ids. Element j of the result corresponds to sel[j] (or row j
// when sel is nil) — the same element correspondence NumExpr.Eval uses, so
// evaluated aggregate-argument vectors line up index-for-index with the ID
// vector.
func (d *GroupDict) Encode(chunk []Vector, groupOrds []int, sel Sel, nrows int, ids []uint32) []uint32 {
	d.init(len(groupOrds))
	ids = room(ids, selLen(sel, nrows))
	return d.assign(ids,
		func(g int, out []uint32, shift uint8) {
			d.encodeCol(&d.cols[g], &chunk[groupOrds[g]], sel, out, shift)
		},
		func(j int) {
			i := sel.at(j)
			for _, ord := range groupOrds {
				d.keys = append(d.keys, chunk[ord].Datum(i))
			}
		})
}

// Intern registers (or finds) one composite key given its datums — the
// cross-partial merge path: partial B's representative keys re-encode into
// the merged dictionary.
func (d *GroupDict) Intern(key types.Row) uint32 {
	d.init(len(key))
	var id [1]uint32
	return d.assign(id[:],
		func(g int, out []uint32, shift uint8) { out[0] |= d.cols[g].datum(key[g]) << shift },
		func(int) { d.keys = append(d.keys, key...) })[0]
}

// assign fills ids with the group IDs of a batch of keys. encode ORs column
// g's shifted codes of the batch into a zeroed slice; addKey appends the
// representative datums of the batch's key j, a group's first.
func (d *GroupDict) assign(ids []uint32, encode func(g int, out []uint32, shift uint8), addKey func(j int)) []uint32 {
	for d.direct != nil {
		clear(ids)
		for g := range d.cols {
			encode(g, ids, d.shift[g])
		}
		if d.relayout() {
			continue // the batch brought codes the layout had no room for: once more
		}
		for j, comp := range ids {
			id := d.direct[comp]
			if id == 0 && d.frozen {
				// a value without a code left its bits 0, and no key of a frozen
				// dictionary's groups has a NULL: see NewJoinTable
				ids[j] = NoGroup
				continue
			}
			if id == 0 {
				d.comps = append(d.comps, comp)
				id = d.add(j, addKey)
				d.direct[comp] = id
			}
			ids[j] = id - 1
		}
		return ids
	}
	for g := range d.cols {
		d.colCodes[g] = room(d.colCodes[g], len(ids))
		clear(d.colCodes[g])
		encode(g, d.colCodes[g], 0)
	}
	for j := range ids {
		ids[j] = d.probe(j, addKey)
	}
	return ids
}

// add registers key j of the batch as a new group and returns its ID+1.
func (d *GroupDict) add(j int, addKey func(j int)) uint32 {
	addKey(j)
	d.n++
	return uint32(d.n)
}

// relayout gives every column the bits its codes need and reports whether
// that changed the layout. While it does not — nearly always — it costs a
// comparison per column; when a column has outgrown its width, the groups'
// composites are taken apart under the old layout and the table rebuilt under
// the new one, or given up for the hashed table when it would be too large.
func (d *GroupDict) relayout() bool {
	grew := false
	for g := range d.cols {
		grew = grew || bits.Len32(d.cols[g].n) > int(d.width[g])
	}
	if !grew {
		return false
	}
	nk := len(d.cols)
	codes := make([]uint32, 0, d.n*nk)
	for _, comp := range d.comps {
		for g := range d.cols {
			codes = append(codes, comp>>d.shift[g]&(1<<d.width[g]-1))
		}
	}
	total := 0
	for g := range d.cols {
		d.width[g] = uint8(bits.Len32(d.cols[g].n))
		d.shift[g] = uint8(total)
		total += int(d.width[g])
	}
	if total > 30 || (1<<total > directMax && 1<<total > 4*d.n) {
		d.direct, d.comps, d.codes = nil, nil, codes
		d.colCodes = make([][]uint32, nk)
		d.rehash(max(1024, 1<<bits.Len(uint(4*d.n))))
		return true
	}
	d.direct = make([]uint32, 1<<total)
	for id := range d.comps {
		comp := uint32(0)
		for g, c := range codes[id*nk : (id+1)*nk] {
			comp |= c << d.shift[g]
		}
		d.comps[id] = comp
		d.direct[comp] = uint32(id + 1)
	}
	return true
}

func hashStep(h, code uint32) uint32 { return (h ^ code) * 0x9E3779B1 }

// slot spreads a hash over a table of size slots (a power of two).
func slot(h uint32, size int) int { return int(h^h>>15) & (size - 1) }

// rehash rebuilds the open-addressing table with size slots (a power of two).
func (d *GroupDict) rehash(size int) {
	d.hashed = make([]uint32, size)
	nk := len(d.cols)
	for id := 0; id < d.n; id++ {
		h := uint32(0)
		for _, c := range d.codes[id*nk : (id+1)*nk] {
			h = hashStep(h, c)
		}
		s := slot(h, size)
		for d.hashed[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		d.hashed[s] = uint32(id + 1)
	}
}

// probe finds row j of colCodes in the hashed table, adding it when new, and
// returns its group ID.
func (d *GroupDict) probe(j int, addKey func(j int)) uint32 {
	if 2*d.n >= len(d.hashed) {
		d.rehash(2 * len(d.hashed))
	}
	h := uint32(0)
	for _, codes := range d.colCodes {
		h = hashStep(h, codes[j])
	}
	nk := len(d.cols)
	for s := slot(h, len(d.hashed)); ; s = (s + 1) & (len(d.hashed) - 1) {
		e := d.hashed[s]
		if e == 0 && d.frozen {
			return NoGroup
		}
		if e == 0 {
			for _, codes := range d.colCodes {
				d.codes = append(d.codes, codes[j])
			}
			e = d.add(j, addKey)
			d.hashed[s] = e
			return e - 1
		}
		have := d.codes[int(e-1)*nk : int(e)*nk]
		same := true
		for g, codes := range d.colCodes {
			same = same && codes[j] == have[g]
		}
		if same {
			return e - 1
		}
	}
}

// ---------------------------------------------------------------------------
// Typed per-group accumulators

// GroupedAgg folds one aggregate over group-ID vectors into typed per-group
// arrays, with exactly expr.AggState's semantics per group: NULLs are
// ignored, sum/avg start in the first input's type and promote to float64 at
// the first float, min/max keep the first of equal values, avg divides by the
// non-NULL count. Array entries are created by Grow and addressed by group
// ID, so the fold loops touch no maps and no interface values.
//
// An aggregate without GROUP BY is the one-group case: Grow(1), and nil for
// every ids argument, which stands for "group 0 for each row".
//
// Partials of parallel chunk scans MergeFrom in scan order, which keeps int
// sums exact and grouped output deterministic.
type GroupedAgg struct {
	Kind AggKind

	counts []int64 // per-group non-NULL input count (count(*) rows for star)
	sumI   []int64
	sumF   []float64
	// sumSet marks groups whose sum started; sumIsF marks groups promoted
	// to float64 (expr.AggState's first-float-input rule, per group).
	sumSet []bool
	sumIsF []bool

	// min/max live in the array of mmKind — the kind of every input so far
	// (KindNull before the first) — or, once inputs of two kinds have met, as
	// datums under KindGeneric. mmSet marks the groups that hold a value.
	mmKind Kind
	mmSet  []bool
	mmI    []int64 // KindInt, KindTime
	mmF    []float64
	mmS    []string
	mmD    []types.Datum

	zero []uint32 // all zeroes: the IDs of the one-group case

	// dense's scratch
	denseIDs []uint32
	denseI   []int64
	denseF   []float64
	denseS   []string
	strs     []string // a string chunk's values, read through its codes
}

// NewGroupedAgg returns an empty grouped accumulator.
func NewGroupedAgg(kind AggKind) *GroupedAgg { return &GroupedAgg{Kind: kind} }

// NumGroups returns how many group slots exist.
func (g *GroupedAgg) NumGroups() int { return len(g.counts) }

func growTo[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Grow extends the accumulator arrays to n group slots (new slots zeroed:
// count 0, sum unset, no min/max — the empty aggregate).
func (g *GroupedAgg) Grow(n int) {
	if n <= len(g.counts) {
		return // nearly every chunk: no new group
	}
	g.counts = growTo(g.counts, n)
	switch g.Kind {
	case AggSum, AggAvg:
		g.sumI = growTo(g.sumI, n)
		g.sumF = growTo(g.sumF, n)
		g.sumSet = growTo(g.sumSet, n)
		g.sumIsF = growTo(g.sumIsF, n)
	case AggMin, AggMax:
		g.growMinMax()
	}
}

func (g *GroupedAgg) growMinMax() {
	n := len(g.counts)
	g.mmSet = growTo(g.mmSet, n)
	switch g.mmKind {
	case KindInt, KindTime:
		g.mmI = growTo(g.mmI, n)
	case KindFloat:
		g.mmF = growTo(g.mmF, n)
	case KindString:
		g.mmS = growTo(g.mmS, n)
	case KindGeneric:
		g.mmD = growTo(g.mmD, n)
	}
}

// groupIDs returns ids, or m zero IDs when ids is nil.
func (g *GroupedAgg) groupIDs(ids []uint32, m int) []uint32 {
	if ids != nil {
		return ids
	}
	g.zero = growTo(g.zero, m)
	return g.zero[:m]
}

// AddStar folds count(*): one row per ID, NULLs included; n rows into group
// 0 when ids is nil.
func (g *GroupedAgg) AddStar(ids []uint32, n int) {
	if ids == nil {
		g.counts[0] += int64(n)
		return
	}
	for _, id := range ids {
		g.counts[id]++
	}
}

func (g *GroupedAgg) errNonNumeric(v types.Datum) error {
	name := "sum"
	if g.Kind == AggAvg {
		name = "avg"
	}
	return fmt.Errorf("%s expects numeric input, got %s", name, types.TypeOf(v))
}

// The fold kernels run over two plain slices, a value and a group ID per row
// to fold, with nothing to skip and nothing to look up: dense cuts a column
// chunk down to that first. With nil ids — one group — count and sum keep
// their running value in a register and touch the group's slot once per
// chunk; they add in the same order either way.

// dense returns the values and IDs of the rows to fold: element sel[j] (j
// when sel is nil) of vals beside ids[j], for each of the m selected rows
// that nulls, when not nil, does not mark. Without a selection and without
// NULLs those are vals and ids as they stand; otherwise the rows are
// gathered into buf and g's ID scratch. Nil ids stay nil.
func dense[T any](g *GroupedAgg, buf *[]T, vals []T, nulls []bool, sel Sel, m int, ids []uint32) ([]T, []uint32) {
	if sel == nil && nulls == nil {
		return vals[:m], ids
	}
	*buf = room(*buf, m)
	out, outIDs := *buf, []uint32(nil)
	if ids != nil {
		g.denseIDs = room(g.denseIDs, m)
		outIDs = g.denseIDs
	}
	n := 0
	for j := 0; j < m; j++ {
		i := sel.at(j)
		if nulls != nil && nulls[i] {
			continue
		}
		out[n] = vals[i]
		if ids != nil {
			outIDs[n] = ids[j]
		}
		n++
	}
	if ids != nil {
		outIDs = outIDs[:n]
	}
	return out[:n], outIDs
}

func (g *GroupedAgg) countValues(nulls []bool, sel Sel, m int, ids []uint32) {
	if nulls == nil {
		g.AddStar(ids, m)
		return
	}
	for j, id := range g.groupIDs(ids, m) {
		i := sel.at(j)
		if !nulls[i] {
			g.counts[id]++
		}
	}
}

// promote turns group id's sum into a float64: at the group's first float
// input the sum goes on in float64, from whatever the ints had added up to.
func (g *GroupedAgg) promote(id uint32) {
	g.sumIsF[id], g.sumSet[id] = true, true
	g.sumF[id] = float64(g.sumI[id])
}

func (g *GroupedAgg) addSumInt(id uint32, v int64) {
	if g.sumIsF[id] {
		g.sumF[id] += float64(v)
	} else {
		g.sumI[id] += v
		g.sumSet[id] = true
	}
}

func (g *GroupedAgg) addSumFloat(id uint32, v float64) {
	if !g.sumIsF[id] {
		g.promote(id)
	}
	g.sumF[id] += v
}

func (g *GroupedAgg) sumInts(vals []int64, ids []uint32) {
	if len(vals) == 0 {
		return
	}
	if ids == nil && !g.sumIsF[0] {
		sum := g.sumI[0]
		for _, v := range vals {
			sum += v
		}
		g.sumI[0], g.sumSet[0] = sum, true
		g.counts[0] += int64(len(vals))
		return
	}
	for j, id := range g.groupIDs(ids, len(vals)) {
		g.addSumInt(id, vals[j])
		g.counts[id]++
	}
}

func (g *GroupedAgg) sumFloats(vals []float64, ids []uint32) {
	if len(vals) == 0 {
		return
	}
	if ids == nil {
		if !g.sumIsF[0] {
			g.promote(0)
		}
		sum := g.sumF[0]
		for _, v := range vals {
			sum += v
		}
		g.sumF[0] = sum
		g.counts[0] += int64(len(vals))
		return
	}
	// the arrays in locals, the rare promotion out of line: what is left in
	// the loop is a load, an add and a store per array
	sumF, isF, counts := g.sumF, g.sumIsF, g.counts
	for j, id := range ids {
		if !isF[id] {
			g.promote(id)
		}
		sumF[id] += vals[j]
		counts[id]++
	}
}

// foldMinMax is the typed min/max kernel: vals, cut down to the rows to fold
// (dense), into have, the array of that type. Strict comparisons keep the
// first of equal values and leave a NaN where it is, as types.Compare does.
func foldMinMax[T ordered](g *GroupedAgg, have []T, buf *[]T, vals []T, nulls []bool, sel Sel, m int, ids []uint32) {
	vals, ids = dense(g, buf, vals, nulls, sel, m, g.groupIDs(ids, m))
	set, isMax := g.mmSet, g.Kind == AggMax
	for j, id := range ids {
		if x := vals[j]; !set[id] {
			have[id], set[id] = x, true
		} else if (isMax && x > have[id]) || (!isMax && x < have[id]) {
			have[id] = x
		}
	}
}

// minMaxAs makes k the kind the min/max state is held in and reports whether
// the typed array of that kind can take the input. It cannot when values of
// another kind are already held: the state then moves to datums for good.
func (g *GroupedAgg) minMaxAs(k Kind) bool {
	if g.mmKind == KindNull {
		g.mmKind = k
		g.growMinMax()
	}
	if g.mmKind == k && k != KindGeneric {
		return true
	}
	if g.mmKind != KindGeneric {
		d := make([]types.Datum, len(g.counts))
		for id := range d {
			d[id] = g.minMax(uint32(id))
		}
		g.mmKind, g.mmD = KindGeneric, d
		g.mmI, g.mmF, g.mmS = nil, nil, nil
	}
	return false
}

func (g *GroupedAgg) addMinMaxDatum(id uint32, v types.Datum) {
	if rel := types.Compare(v, g.mmD[id]); !g.mmSet[id] || (g.Kind == AggMax && rel > 0) || (g.Kind == AggMin && rel < 0) {
		g.mmD[id], g.mmSet[id] = v, true
	}
}

// AddCol folds a bare-column argument: element-for-element with ids, which
// must come from Encode over the same sel. NULL inputs are ignored.
func (g *GroupedAgg) AddCol(v *Vector, sel Sel, ids []uint32) error {
	m := selLen(sel, v.n)
	switch {
	case v.Kind == KindNull:
		// all NULL: nothing to fold
	case g.Kind == AggCount:
		g.countValues(v.Nulls, sel, m, ids)
	case g.Kind == AggSum || g.Kind == AggAvg:
		switch v.Kind {
		case KindInt:
			g.sumInts(dense(g, &g.denseI, v.Ints, v.Nulls, sel, m, ids))
		case KindFloat:
			g.sumFloats(dense(g, &g.denseF, v.Floats, v.Nulls, sel, m, ids))
		default:
			return g.sumDatums(v, sel, g.groupIDs(ids, m))
		}
	case (v.Kind == KindInt || v.Kind == KindTime) && g.minMaxAs(v.Kind):
		foldMinMax(g, g.mmI, &g.denseI, v.Ints, v.Nulls, sel, m, ids)
	case v.Kind == KindFloat && g.minMaxAs(KindFloat):
		foldMinMax(g, g.mmF, &g.denseF, v.Floats, v.Nulls, sel, m, ids)
	case v.Kind == KindString && g.minMaxAs(KindString):
		// the strings, read through their codes; a NULL row's is Dict[0],
		// which the NULL mask then leaves out
		g.strs = room(g.strs, v.n)
		for i, c := range v.Codes {
			g.strs[i] = v.Dict[c]
		}
		foldMinMax(g, g.mmS, &g.denseS, g.strs, v.Nulls, sel, m, ids)
	default:
		g.minMaxAs(KindGeneric)
		for j, id := range g.groupIDs(ids, m) {
			i := sel.at(j)
			if d := v.Datum(i); d != nil {
				g.addMinMaxDatum(id, d)
			}
		}
	}
	return nil
}

// sumDatums is sum/avg over a vector of no numeric kind: a KindGeneric
// column may hold numbers among other things, and the first other thing
// fails the query, as in the row path.
func (g *GroupedAgg) sumDatums(v *Vector, sel Sel, ids []uint32) error {
	for j, id := range ids {
		i := sel.at(j)
		switch x := v.Datum(i).(type) {
		case nil:
			continue
		case int64:
			g.addSumInt(id, x)
		case float64:
			g.addSumFloat(id, x)
		default:
			return g.errNonNumeric(x)
		}
		g.counts[id]++
	}
	return nil
}

// AddVec folds an evaluated numeric vector (computed aggregate arguments);
// element j corresponds to ids[j].
func (g *GroupedAgg) AddVec(v *NumVec, ids []uint32) {
	switch g.Kind {
	case AggCount:
		g.countValues(v.Null, nil, v.N, ids)
	case AggSum, AggAvg:
		if v.Float {
			g.sumFloats(dense(g, &g.denseF, v.Floats, v.Null, nil, v.N, ids))
		} else {
			g.sumInts(dense(g, &g.denseI, v.Ints, v.Null, nil, v.N, ids))
		}
	case AggMin, AggMax:
		// a NumVec is all ints or all floats for the whole scan
		if v.Float {
			g.minMaxAs(KindFloat)
			foldMinMax(g, g.mmF, &g.denseF, v.Floats, v.Null, nil, v.N, ids)
		} else {
			g.minMaxAs(KindInt)
			foldMinMax(g, g.mmI, &g.denseI, v.Ints, v.Null, nil, v.N, ids)
		}
	}
}

// MergeFrom folds another partial's groups into g: o's group i lands in
// g's group idMap[i]. Call in scan order (earlier partial receives later
// ones) so int sums and promotion points match a sequential fold.
func (g *GroupedAgg) MergeFrom(o *GroupedAgg, idMap []uint32) {
	for i, dst := range idMap {
		g.counts[dst] += o.counts[i]
	}
	switch g.Kind {
	case AggSum, AggAvg:
		for i, dst := range idMap {
			if !o.sumSet[i] {
				continue
			}
			if o.sumIsF[i] {
				g.addSumFloat(dst, o.sumF[i])
			} else {
				g.addSumInt(dst, o.sumI[i])
			}
		}
	case AggMin, AggMax:
		switch {
		case o.mmKind == KindNull:
			// o saw no value
		case o.mmKind != KindGeneric && g.minMaxAs(o.mmKind):
			// o's groups that hold no value are its NULLs
			none, n := notSet(o.mmSet), len(idMap)
			switch o.mmKind {
			case KindInt, KindTime:
				foldMinMax(g, g.mmI, &g.denseI, o.mmI, none, nil, n, idMap)
			case KindFloat:
				foldMinMax(g, g.mmF, &g.denseF, o.mmF, none, nil, n, idMap)
			case KindString:
				foldMinMax(g, g.mmS, &g.denseS, o.mmS, none, nil, n, idMap)
			}
		default:
			g.minMaxAs(KindGeneric)
			for i, dst := range idMap {
				if o.mmSet[i] {
					g.addMinMaxDatum(dst, o.minMax(uint32(i)))
				}
			}
		}
	}
}

// notSet turns a "holds a value" mask into the NULL mask the kernels take.
func notSet(set []bool) []bool {
	nulls := make([]bool, len(set))
	for i, s := range set {
		nulls[i] = !s
	}
	return nulls
}

// minMax returns group id's min or max as a datum, nil when it has none.
func (g *GroupedAgg) minMax(id uint32) types.Datum {
	if !g.mmSet[id] {
		return nil
	}
	switch g.mmKind {
	case KindInt:
		return g.mmI[id]
	case KindTime:
		return nanosTime(g.mmI[id])
	case KindFloat:
		return g.mmF[id]
	case KindString:
		return g.mmS[id]
	}
	return g.mmD[id]
}

// Result finalizes group id, mirroring expr.AggState.Result.
func (g *GroupedAgg) Result(id uint32) types.Datum {
	switch g.Kind {
	case AggCount:
		return g.counts[id]
	case AggSum:
		if !g.sumSet[id] {
			return nil
		}
		if g.sumIsF[id] {
			return g.sumF[id]
		}
		return g.sumI[id]
	case AggMin, AggMax:
		return g.minMax(id)
	case AggAvg:
		if g.counts[id] == 0 || !g.sumSet[id] {
			return nil
		}
		if g.sumIsF[id] {
			return g.sumF[id] / float64(g.counts[id])
		}
		return float64(g.sumI[id]) / float64(g.counts[id])
	}
	return nil
}
