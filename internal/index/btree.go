// Package index implements the two index access methods the engine
// supports: a B+tree for key lookups and range scans (primary keys,
// secondary btree indexes) and a GIN trigram index for substring search
// over text, the structure the paper's real-time analytics benchmark
// depends on (pg_trgm GIN index over JSON commit messages).
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"citusgo/internal/heap"
	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// Key is a composite index key.
type Key = []types.Datum

// btreeFanout is the most entries a leaf holds (unless they all share one
// key) and the most separators an inner node holds. A leaf's arrays are
// allocated once with one slot more, the entry that makes it split: 64
// slots fill whole size classes, 512 B of int64s or TIDs, 1 KiB of strings
// or datums.
const btreeFanout = 63

// colKind is the type of a key column's array in every node of a tree, as
// vec.Vector's kinds are: an int64 column is an []int64, a text column an
// []string whose bytes the tree owns, any other column an []types.Datum.
type colKind uint8

const (
	kindInt colKind = iota
	kindText
	kindDatum
)

// kindOf is the kind a column takes from its first key.
func kindOf(d types.Datum) colKind {
	switch d.(type) {
	case int64:
		return kindInt
	case string:
		return kindText
	}
	return kindDatum
}

// keyLayout places a tree's key columns: column c of entry i is element
// i*stride[kind[c]] + off[c] of the node's array of that kind.
type keyLayout struct {
	kind   []colKind
	off    []int
	stride [3]int
}

func newLayout(kind []colKind) keyLayout {
	l := keyLayout{kind: kind, off: make([]int, len(kind))}
	for c, k := range kind {
		l.off[c] = l.stride[k]
		l.stride[k]++
	}
	return l
}

// btreeNode is a leaf unless it has children. Keys are flat, each column in
// the array of its kind (keyLayout). A leaf's entry i points at tids[i]; an
// inner node's children[i] covers the keys below its separator i, and
// children[len(children)-1] the rest. A leaf of int64 keys alone holds no
// pointer but next: 64 bytes, an int64 array and a TID array.
type btreeNode struct {
	ints  []int64
	tids  []heap.TID
	next  *btreeNode // the leaf to the right
	*refs            // nil in a leaf of int64 keys alone, but the first
}

// refs are a node's arrays of pointers.
type refs struct {
	strs     []string
	datums   []types.Datum
	children []*btreeNode
}

func (n *btreeNode) leaf() bool { return n.refs == nil || n.children == nil }

// len is the number of entries (separators) of n.
func (n *btreeNode) len() int {
	if n.leaf() {
		return len(n.tids)
	}
	return len(n.children) - 1
}

// compare compares entry i of n with key. Keys order lexicographically, and
// a shorter key that is a prefix of a longer one sorts first, which makes
// prefix scans a plain range scan starting at the prefix itself; prefix
// compares over key's columns alone. An int64 probe of an int column
// compares as int64s and a string probe of a text column as strings; any
// other probe goes to types.Compare with the stored value.
func (l *keyLayout) compare(n *btreeNode, i int, key Key, prefix bool) int {
	for c, d := range key[:min(len(key), len(l.kind))] {
		r, at := 0, i*l.stride[l.kind[c]]+l.off[c]
		v, isInt := d.(int64)
		s, isText := d.(string)
		switch k := l.kind[c]; {
		case k == kindInt && isInt:
			r = cmp.Compare(n.ints[at], v)
		case k == kindText && isText:
			r = strings.Compare(n.strs[at], s)
		default:
			r = types.Compare(l.column(n, i, c), d)
		}
		if r != 0 {
			return r
		}
	}
	if prefix {
		return 0
	}
	return cmp.Compare(len(l.kind), len(key))
}

// same reports whether entries i and j of n hold equal keys.
func (l *keyLayout) same(n *btreeNode, i, j int) bool {
	w := l.stride
	return slices.Equal(entry(n.ints, w[kindInt], i), entry(n.ints, w[kindInt], j)) && (n.refs == nil ||
		slices.Equal(entry(n.strs, w[kindText], i), entry(n.strs, w[kindText], j)) &&
			slices.EqualFunc(entry(n.datums, w[kindDatum], i), entry(n.datums, w[kindDatum], j), types.Equal))
}

// column returns column c of entry i of n as a datum.
func (l *keyLayout) column(n *btreeNode, i, c int) types.Datum {
	switch at := i*l.stride[l.kind[c]] + l.off[c]; l.kind[c] {
	case kindInt:
		return n.ints[at]
	case kindText:
		return n.strs[at]
	default:
		return n.datums[at]
	}
}

// appendKey appends entry i of n's key to dst as datums.
func (l *keyLayout) appendKey(dst Key, n *btreeNode, i int) Key {
	for c := range l.kind {
		dst = append(dst, l.column(n, i, c))
	}
	return dst
}

// put inserts key at entry i of n, whose arrays have room for it, owning
// what it keeps (own).
func (l *keyLayout) put(n *btreeNode, i int, key Key) {
	w := l.stride
	n.ints = gap(n.ints, w[kindInt], i)
	if n.refs != nil {
		n.strs, n.datums = gap(n.strs, w[kindText], i), gap(n.datums, w[kindDatum], i)
	}
	for c, d := range key {
		switch at := i*w[l.kind[c]] + l.off[c]; l.kind[c] {
		case kindInt:
			n.ints[at] = d.(int64)
		case kindText:
			n.strs[at] = strings.Clone(d.(string))
		default:
			n.datums[at] = own(d)
		}
	}
}

// own is d boxed anew, a string or a document copied out of the bytes it
// was decoded from: an entry keeps alive its own boxes and bytes, never the
// arrays a row was decoded into (rowbatch.Decoder writes them again) nor the
// page array its tuple lies in, which a compaction replaces.
func own(d types.Datum) types.Datum {
	switch v := d.(type) {
	case int64:
		return v
	case float64:
		return v
	case string:
		return strings.Clone(v)
	case time.Time:
		return v
	case jsonb.Value:
		return jsonb.ViewValidWire(v.AppendWire(make([]byte, 0, v.WireSize())))
	}
	return d
}

// putFrom inserts entry j of src at entry i of inner node n.
func (l *keyLayout) putFrom(n *btreeNode, i int, src *btreeNode, j int) {
	w := l.stride
	n.ints = slices.Insert(n.ints, i*w[kindInt], entry(src.ints, w[kindInt], j)...)
	if src.refs != nil {
		n.strs = slices.Insert(n.strs, i*w[kindText], entry(src.strs, w[kindText], j)...)
		n.datums = slices.Insert(n.datums, i*w[kindDatum], entry(src.datums, w[kindDatum], j)...)
	}
}

// reserve moves n's keys to arrays with room for size entries.
func (l *keyLayout) reserve(n *btreeNode, size int) {
	w := l.stride
	n.ints = grown(n.ints, w[kindInt], size)
	if n.refs != nil {
		n.strs, n.datums = grown(n.strs, w[kindText], size), grown(n.datums, w[kindDatum], size)
	}
}

// split moves keys at… of n, and a leaf's TIDs, to dst, a new node, in
// arrays with room for size entries.
func (l *keyLayout) split(n, dst *btreeNode, at, size int) {
	w := l.stride
	n.ints, dst.ints = cut(n.ints, w[kindInt], at, size)
	if !n.leaf() || w[kindInt] < len(l.kind) {
		dst.refs = &refs{}
		n.strs, dst.strs = cut(n.strs, w[kindText], at, size)
		n.datums, dst.datums = cut(n.datums, w[kindDatum], at, size)
	}
	if n.leaf() {
		n.tids, dst.tids = cut(n.tids, 1, at, size)
	}
}

// entry, gap, grown and cut act on one of a node's arrays, w elements an
// entry. gap opens room for an entry at i, within s's capacity.
func entry[E any](s []E, w, i int) []E { return s[i*w : (i+1)*w] }

func gap[E any](s []E, w, i int) []E {
	s = s[:len(s)+w]
	copy(s[(i+1)*w:], s[i*w:])
	return s
}

// grown is s in an array with room for size entries.
func grown[E any](s []E, w, size int) []E {
	if w == 0 {
		return nil
	}
	return append(make([]E, 0, size*w), s...)
}

// cut moves entries at… of s to a new array with room for size entries.
func cut[E any](s []E, w, at, size int) (left, right []E) {
	right = grown(s[at*w:], w, size)
	clear(s[at*w:])
	return s[:at*w], right
}

// BTree is a concurrency-safe B+tree from composite keys of a fixed width
// to tuple ids. Entries with equal keys sit side by side in insertion order
// and never straddle two leaves: a split moves to the nearest boundary
// between runs of equal keys, and a leaf that is one run grows instead.
// Each key column takes the kind of the first key inserted; a later key that
// does not fit it (a NULL, a float, a mix of kinds) makes it a datum column
// in every node.
type BTree struct {
	mu      sync.RWMutex
	width   int
	lay     keyLayout // set by the first Insert
	root    *btreeNode
	entries int
}

// NewBTree creates an empty tree over keys of width datums.
func NewBTree(width int) *BTree {
	return &BTree{width: width, root: &btreeNode{refs: &refs{}}}
}

// Len returns the number of (key, tid) entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// bound returns the first entry of n whose key is >= key, or > key when
// after is set: the end of key's run in a leaf, and the child to descend
// into from an inner node (equal keys go right, a separator being the first
// key of its right child).
func (t *BTree) bound(n *btreeNode, key Key, after bool) int {
	lo, hi := 0, n.len()
	for lo < hi {
		mid := (lo + hi) / 2
		if c := t.lay.compare(n, mid, key, false); c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds tid under key, after the entries already under it. The key is
// copied in (put): the caller may reuse it and the arrays its datums were
// decoded from.
func (t *BTree) Insert(key Key, tid heap.TID) {
	if len(key) != t.width {
		panic(fmt.Sprintf("index: inserting a key of %d datums into a tree of width %d", len(key), t.width))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lay.kind == nil {
		kind := make([]colKind, t.width)
		for c, d := range key {
			kind[c] = kindOf(d)
		}
		t.lay = newLayout(kind)
	}
	for c, d := range key {
		if k := t.lay.kind[c]; k != kindDatum && kindOf(d) != k {
			t.demote(c)
		}
	}
	t.entries++
	if sep, right := t.insert(t.root, key, tid); right != nil {
		root := &btreeNode{refs: &refs{children: []*btreeNode{t.root, right}}}
		t.lay.putFrom(root, 0, sep, 0)
		t.root = root
	}
}

// demote makes column c a datum column in every node.
func (t *BTree) demote(c int) {
	from := t.lay
	kind := slices.Clone(from.kind)
	kind[c] = kindDatum
	t.lay = newLayout(kind)
	var key Key
	var walk func(n *btreeNode)
	walk = func(n *btreeNode) {
		old, cnt := *n, n.len()
		n.ints, n.refs = nil, &refs{}
		if !old.leaf() {
			n.children = old.children
		}
		t.lay.reserve(n, max(cnt, cap(n.tids)))
		for i := 0; i < cnt; i++ {
			key = from.appendKey(key[:0], &old, i)
			t.lay.put(n, i, key)
		}
		for _, child := range n.children {
			walk(child)
		}
	}
	walk(t.root)
}

// insert descends into n; on a split it returns the new right sibling and a
// node whose first key is the separator.
func (t *BTree) insert(n *btreeNode, key Key, tid heap.TID) (sep, right *btreeNode) {
	i := t.bound(n, key, true)
	if n.leaf() {
		// a leaf's arrays are allocated at btreeFanout+1 slots; only a leaf
		// that is one run outgrows them
		if cnt := len(n.tids); cnt == cap(n.tids) {
			t.lay.reserve(n, max(btreeFanout+1, 2*cnt))
			n.tids = grown(n.tids, 1, max(btreeFanout+1, 2*cnt))
		}
		t.lay.put(n, i, key)
		n.tids = gap(n.tids, 1, i)
		n.tids[i] = tid
		return t.splitLeaf(n, i)
	}
	if sep, right = t.insert(n.children[i], key, tid); right == nil {
		return nil, nil
	}
	t.lay.putFrom(n, i, sep, 0)
	n.children = slices.Insert(n.children, i+1, right)
	if len(n.children) <= btreeFanout+1 {
		return nil, nil
	}
	// the halves and the separator each in arrays of their size
	mid := btreeFanout / 2
	right, sep = &btreeNode{}, &btreeNode{}
	t.lay.split(n, right, mid+1, n.len()-mid-1)
	t.lay.split(n, sep, mid, 1)
	n.children, right.children = cut(n.children, 1, mid+1, len(n.children)-mid-1)
	n.children = slices.Clone(n.children)
	t.lay.reserve(n, mid)
	return sep, right
}

// splitLeaf splits leaf n once it holds more than btreeFanout entries, the
// last insert having gone to entry pos. The split point is the middle, or
// the last entry when the insert appended to the rightmost leaf (so an
// ascending load leaves every leaf full, as nbtree's rightmost split does),
// moved to the nearest boundary between runs; a leaf that is one run does
// not split.
func (t *BTree) splitLeaf(n *btreeNode, pos int) (sep, right *btreeNode) {
	cnt := len(n.tids)
	if cnt <= btreeFanout {
		return nil, nil
	}
	at := cnt / 2
	if n.next == nil && pos == cnt-1 {
		at = cnt - 1
	}
	lo := sort.Search(at, func(i int) bool { return t.lay.same(n, i, at) })
	hi := at + 1 + sort.Search(cnt-at-1, func(i int) bool { return !t.lay.same(n, at+1+i, at) })
	switch {
	case lo == 0 && hi == cnt:
		return nil, nil
	case lo == 0 || hi < cnt && hi-at < at-lo:
		at = hi
	default:
		at = lo
	}
	right = &btreeNode{next: n.next}
	t.lay.split(n, right, at, max(btreeFanout+1, cnt-at))
	n.next = right
	return right, right
}

// Remove deletes one (key, tid) entry. Underfull nodes are not rebalanced —
// vacuum-driven deletion tolerates sparse leaves, as PostgreSQL's btree
// does between index vacuums.
func (t *BTree) Remove(key Key, tid heap.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, i := t.find(key, tid)
	if i < 0 {
		return false
	}
	w := t.lay.stride
	leaf.ints = slices.Delete(leaf.ints, i*w[kindInt], (i+1)*w[kindInt])
	if leaf.refs != nil {
		leaf.strs = slices.Delete(leaf.strs, i*w[kindText], (i+1)*w[kindText])
		leaf.datums = slices.Delete(leaf.datums, i*w[kindDatum], (i+1)*w[kindDatum])
	}
	leaf.tids = slices.Delete(leaf.tids, i, i+1)
	t.entries--
	return true
}

// Repoint moves the entry (key, from) to tid to in place: the key and its
// leaf stay as they are, so nothing splits. Vacuum calls it when it reclaims
// the root of a HOT chain and the chain goes on. It reports whether there
// was such an entry.
func (t *BTree) Repoint(key Key, from, to heap.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, i := t.find(key, from)
	if i >= 0 {
		leaf.tids[i] = to
	}
	return i >= 0
}

// find returns the leaf of key and the entry (key, tid) in it, -1 if none.
func (t *BTree) find(key Key, tid heap.TID) (*btreeNode, int) {
	leaf := t.findLeaf(key)
	for i := t.bound(leaf, key, false); i < len(leaf.tids) && t.lay.compare(leaf, i, key, false) == 0; i++ {
		if leaf.tids[i] == tid {
			return leaf, i
		}
	}
	return leaf, -1
}

func (t *BTree) findLeaf(key Key) *btreeNode {
	n := t.root
	for !n.leaf() {
		n = n.children[t.bound(n, key, true)]
	}
	return n
}

// SearchEqual calls fn with the tuple ids under an exact key, in insertion
// order, if there are any. tids is a view of the leaf, valid only during the
// call: fn copies what it keeps.
func (t *BTree) SearchEqual(key Key, fn func(tids []heap.TID)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key)
	i := t.bound(leaf, key, false)
	end := i
	for end < len(leaf.tids) && t.lay.compare(leaf, end, key, false) == 0 {
		end++
	}
	if end > i {
		fn(leaf.tids[i:end:end])
	}
}

// Range visits the distinct keys with lo <= key <= hi in key order, once
// each with all the tuple ids under it (nil bounds are unbounded; clear
// loIncl/hiIncl for open bounds). A bound shorter than the width is a
// prefix: an inclusive hi takes in every key that begins with it. fn
// returning false stops. tids is a view of the leaf, valid only during the
// call: fn copies what it keeps.
func (t *BTree) Range(lo, hi Key, loIncl, hiIncl bool, fn func(tids []heap.TID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, i := t.root, 0
	if lo == nil {
		for !leaf.leaf() {
			leaf = leaf.children[0]
		}
	} else {
		leaf = t.findLeaf(lo)
		i = t.bound(leaf, lo, false)
	}
	for ; leaf != nil; leaf, i = leaf.next, 0 {
		for i < len(leaf.tids) {
			k, end := i, i+1
			for end < len(leaf.tids) && t.lay.same(leaf, end, k) {
				end++
			}
			tids := leaf.tids[i:end:end]
			i = end
			if lo != nil && !loIncl && t.lay.compare(leaf, k, lo, false) == 0 {
				continue
			}
			if hi != nil {
				if c := t.lay.compare(leaf, k, hi, true); c > 0 || c == 0 && !hiIncl && len(hi) <= t.width {
					return
				}
			}
			if !fn(tids) {
				return
			}
		}
	}
}

// SearchPrefix visits all keys that start with prefix, as Range does.
func (t *BTree) SearchPrefix(prefix Key, fn func(tids []heap.TID) bool) {
	t.Range(prefix, prefix, true, true, fn)
}
