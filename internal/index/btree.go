// Package index implements the two index access methods the engine
// supports: a B+tree for key lookups and range scans (primary keys,
// secondary btree indexes) and a GIN trigram index for substring search
// over text, the structure the paper's real-time analytics benchmark
// depends on (pg_trgm GIN index over JSON commit messages).
package index

import (
	"fmt"
	"slices"
	"sync"

	"citusgo/internal/heap"
	"citusgo/internal/types"
)

// Key is a composite index key.
type Key = []types.Datum

// CompareKeys orders composite keys lexicographically. A shorter key that
// is a prefix of a longer one sorts first, which makes prefix scans a plain
// range scan starting at the prefix itself.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// HasPrefix reports whether key starts with prefix under Compare equality.
func HasPrefix(key, prefix Key) bool {
	if len(prefix) > len(key) {
		return false
	}
	for i := range prefix {
		if types.Compare(key[i], prefix[i]) != 0 {
			return false
		}
	}
	return true
}

// btreeFanout is the most entries a leaf holds (unless they all share one
// key) and the most separators an inner node holds. A leaf's arrays are
// allocated once with one slot more, the entry that makes it split: 64
// slots fill whole size classes, 1 KiB of datums per key column and 512 B
// of TIDs.
const btreeFanout = 63

// btreeNode is a leaf when children is nil. Keys are flat, width datums an
// entry: entry i's key is keys[i*width:(i+1)*width]. A leaf's entry i points
// at tids[i]; an inner node's children[i] covers the keys below its
// separator i, and children[len(children)-1] the rest.
type btreeNode struct {
	keys     []types.Datum
	tids     []heap.TID
	children []*btreeNode
	next     *btreeNode // the leaf to the right
}

// BTree is a concurrency-safe B+tree from composite keys of a fixed width
// to tuple ids. Entries with equal keys sit side by side in insertion order
// and never straddle two leaves: a split moves to the nearest boundary
// between runs of equal keys, and a leaf that is one run grows instead.
type BTree struct {
	mu      sync.RWMutex
	width   int
	root    *btreeNode
	entries int
}

// NewBTree creates an empty tree over keys of width datums.
func NewBTree(width int) *BTree {
	return &BTree{width: width, root: &btreeNode{}}
}

// Len returns the number of (key, tid) entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries
}

// key returns entry (or separator) i of n, capped so that appending to it
// cannot write into the node.
func (t *BTree) key(n *btreeNode, i int) Key {
	return n.keys[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// lowerBound returns the first entry of n whose key is >= key.
func (t *BTree) lowerBound(n *btreeNode, key Key) int {
	lo, hi := 0, len(n.keys)/t.width
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareKeys(t.key(n, mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first entry of n whose key is > key: the end of
// key's run in a leaf, and the child to descend into from an inner node
// (equal keys go right, a separator being the first key of its right
// child).
func (t *BTree) upperBound(n *btreeNode, key Key) int {
	lo, hi := 0, len(n.keys)/t.width
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareKeys(t.key(n, mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds tid under key, after the entries already under it. The key's
// datums are copied in: the caller may reuse key.
func (t *BTree) Insert(key Key, tid heap.TID) {
	if len(key) != t.width {
		panic(fmt.Sprintf("index: inserting a key of %d datums into a tree of width %d", len(key), t.width))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries++
	if sep, right := t.insert(t.root, key, tid); right != nil {
		t.root = &btreeNode{keys: sep, children: []*btreeNode{t.root, right}}
	}
}

// insert descends into n; on a split it returns the separator (a key of its
// own) and the new right sibling.
func (t *BTree) insert(n *btreeNode, key Key, tid heap.TID) (Key, *btreeNode) {
	i := t.upperBound(n, key)
	if n.children == nil {
		t.insertEntry(n, i, key, tid)
		return t.splitLeaf(n, i)
	}
	sep, right := t.insert(n.children[i], key, tid)
	if right == nil {
		return nil, nil
	}
	n.keys = slices.Insert(n.keys, i*t.width, sep...)
	n.children = slices.Insert(n.children, i+1, right)
	if len(n.children) <= btreeFanout+1 {
		return nil, nil
	}
	mid := btreeFanout / 2
	w := t.width
	sep = slices.Clone(n.keys[mid*w : (mid+1)*w])
	right = &btreeNode{
		keys:     slices.Clone(n.keys[(mid+1)*w:]),
		children: slices.Clone(n.children[mid+1:]),
	}
	clear(n.keys[mid*w:])
	clear(n.children[mid+1:])
	n.keys = n.keys[:mid*w]
	n.children = n.children[:mid+1]
	return sep, right
}

// insertEntry puts (key, tid) at entry i of leaf n. A leaf's arrays are
// allocated at btreeFanout+1 slots; only a leaf that is one run outgrows
// them.
func (t *BTree) insertEntry(n *btreeNode, i int, key Key, tid heap.TID) {
	w, cnt := t.width, len(n.tids)
	if cnt == cap(n.tids) {
		size := max(btreeFanout+1, 2*cnt)
		keys, tids := make([]types.Datum, cnt*w, size*w), make([]heap.TID, cnt, size)
		copy(keys, n.keys)
		copy(tids, n.tids)
		n.keys, n.tids = keys, tids
	}
	n.keys = n.keys[:(cnt+1)*w]
	copy(n.keys[(i+1)*w:], n.keys[i*w:cnt*w])
	copy(n.keys[i*w:], key)
	n.tids = n.tids[:cnt+1]
	copy(n.tids[i+1:], n.tids[i:cnt])
	n.tids[i] = tid
}

// splitLeaf splits leaf n once it holds more than btreeFanout entries, the
// last insert having gone to entry pos. The split point is the middle, or
// the last entry when the insert appended to the rightmost leaf (so an
// ascending load leaves every leaf full, as nbtree's rightmost split does),
// moved to the nearest boundary between runs; a leaf that is one run does
// not split.
func (t *BTree) splitLeaf(n *btreeNode, pos int) (Key, *btreeNode) {
	cnt := len(n.tids)
	if cnt <= btreeFanout {
		return nil, nil
	}
	at := cnt / 2
	if n.next == nil && pos == cnt-1 {
		at = cnt - 1
	}
	run := t.key(n, at)
	lo, hi := t.lowerBound(n, run), t.upperBound(n, run)
	switch {
	case lo == 0 && hi == cnt:
		return nil, nil
	case lo == 0 || hi < cnt && hi-at < at-lo:
		at = hi
	default:
		at = lo
	}
	w, size := t.width, max(btreeFanout+1, cnt-at)
	right := &btreeNode{
		keys: make([]types.Datum, (cnt-at)*w, size*w),
		tids: make([]heap.TID, cnt-at, size),
		next: n.next,
	}
	copy(right.keys, n.keys[at*w:])
	copy(right.tids, n.tids[at:])
	clear(n.keys[at*w:])
	n.keys, n.tids, n.next = n.keys[:at*w], n.tids[:at], right
	return slices.Clone(t.key(right, 0)), right
}

// Remove deletes one (key, tid) entry. Underfull nodes are not rebalanced —
// vacuum-driven deletion tolerates sparse leaves, as PostgreSQL's btree
// does between index vacuums.
func (t *BTree) Remove(key Key, tid heap.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key)
	for i := t.lowerBound(leaf, key); i < len(leaf.tids) && CompareKeys(t.key(leaf, i), key) == 0; i++ {
		if leaf.tids[i] == tid {
			w, cnt := t.width, len(leaf.tids)
			copy(leaf.keys[i*w:], leaf.keys[(i+1)*w:])
			clear(leaf.keys[(cnt-1)*w:])
			leaf.keys = leaf.keys[:(cnt-1)*w]
			leaf.tids = slices.Delete(leaf.tids, i, i+1)
			t.entries--
			return true
		}
	}
	return false
}

// Repoint moves the entry (key, from) to tid to in place: the key and its
// leaf stay as they are, so nothing splits. Vacuum calls it when it reclaims
// the root of a HOT chain and the chain goes on. It reports whether there
// was such an entry.
func (t *BTree) Repoint(key Key, from, to heap.TID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key)
	for i := t.lowerBound(leaf, key); i < len(leaf.tids) && CompareKeys(t.key(leaf, i), key) == 0; i++ {
		if leaf.tids[i] == from {
			leaf.tids[i] = to
			return true
		}
	}
	return false
}

func (t *BTree) findLeaf(key Key) *btreeNode {
	n := t.root
	for n.children != nil {
		n = n.children[t.upperBound(n, key)]
	}
	return n
}

// SearchEqual returns a copy of the tuple ids under an exact key, in
// insertion order.
func (t *BTree) SearchEqual(key Key) []heap.TID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key)
	i := t.lowerBound(leaf, key)
	end := i
	for end < len(leaf.tids) && CompareKeys(t.key(leaf, end), key) == 0 {
		end++
	}
	if end == i {
		return nil
	}
	return slices.Clone(leaf.tids[i:end])
}

// Range visits the distinct keys with lo <= key <= hi in key order, once
// each with all the tuple ids under it (nil bounds are unbounded; clear
// loIncl/hiIncl for open bounds). fn returning false stops. key and tids
// are views of the leaf, valid only during the call: fn copies what it
// keeps.
func (t *BTree) Range(lo, hi Key, loIncl, hiIncl bool, fn func(key Key, tids []heap.TID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf, i := t.root, 0
	if lo == nil {
		for leaf.children != nil {
			leaf = leaf.children[0]
		}
	} else {
		leaf = t.findLeaf(lo)
		i = t.lowerBound(leaf, lo)
	}
	for ; leaf != nil; leaf, i = leaf.next, 0 {
		for i < len(leaf.tids) {
			k := t.key(leaf, i)
			end := i + 1
			for end < len(leaf.tids) && CompareKeys(t.key(leaf, end), k) == 0 {
				end++
			}
			tids := leaf.tids[i:end:end]
			i = end
			if lo != nil && !loIncl && CompareKeys(k, lo) == 0 {
				continue
			}
			if hi != nil {
				c := CompareKeys(k, hi)
				// allow longer keys matching the prefix when hiIncl: a
				// composite key (7, 3) is "equal" to prefix bound (7) for
				// prefix scans
				if c > 0 && !(hiIncl && HasPrefix(k, hi)) {
					return
				}
				if c == 0 && !hiIncl {
					return
				}
			}
			if !fn(k, tids) {
				return
			}
		}
	}
}

// SearchPrefix visits all keys that start with prefix, as Range does.
func (t *BTree) SearchPrefix(prefix Key, fn func(key Key, tids []heap.TID) bool) {
	t.Range(prefix, prefix, true, true, func(k Key, tids []heap.TID) bool {
		if !HasPrefix(k, prefix) {
			return false
		}
		return fn(k, tids)
	})
}
