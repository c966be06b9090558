package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"citusgo/internal/heap"
	"citusgo/internal/types"
)

// key returns entry i of n as datums.
func (t *BTree) key(n *btreeNode, i int) Key { return t.lay.appendKey(nil, n, i) }

// all returns the tree's entries in key order, read from its leaves.
func (t *BTree) all() []refEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.root
	for !l.leaf() {
		l = l.children[0]
	}
	var all []refEntry
	for ; l != nil; l = l.next {
		for i, tid := range l.tids {
			all = append(all, refEntry{t.key(l, i), tid})
		}
	}
	return all
}

// searchEqual returns a copy of the TIDs SearchEqual visits, nil for none.
func searchEqual(bt *BTree, key Key) (tids []heap.TID) {
	bt.SearchEqual(key, func(ts []heap.TID) { tids = slices.Clone(ts) })
	return tids
}

// check verifies the tree's invariants: every node's arrays hold its keys
// at the layout's strides, and a leaf's spare capacity holds no string or
// datum; a leaf's keys are sorted and lie within the separators above it
// (so a run of equal keys never straddles two leaves), every leaf is at one
// depth, the leaf chain visits the leaves in key order, and Len counts them
// all.
func (t *BTree) check() error {
	w := t.lay.stride
	var leaves []*btreeNode
	depth := -1
	var walk func(n *btreeNode, lo, hi Key, d int) error
	walk = func(n *btreeNode, lo, hi Key, d int) error {
		cnt, r := n.len(), n.refs
		if r == nil {
			if w[kindText]+w[kindDatum] > 0 {
				return fmt.Errorf("a node of text or datum keys has no refs")
			}
			r = &refs{}
		}
		if len(n.ints) != cnt*w[kindInt] || len(r.strs) != cnt*w[kindText] || len(r.datums) != cnt*w[kindDatum] {
			return fmt.Errorf("node of %d keys holds %d ints, %d strings and %d datums at strides %v", cnt, len(n.ints), len(r.strs), len(r.datums), w)
		}
		for i := 0; i < cnt; i++ {
			k := t.key(n, i)
			if lo != nil && CompareKeys(k, lo) < 0 || hi != nil && CompareKeys(k, hi) >= 0 {
				return fmt.Errorf("key %v outside its separators [%v, %v)", k, lo, hi)
			}
			if i > 0 {
				c := CompareKeys(t.key(n, i-1), k)
				if c > 0 || c == 0 && !n.leaf() {
					return fmt.Errorf("keys out of order at %d: %v then %v", i, t.key(n, i-1), k)
				}
			}
		}
		if n.leaf() {
			for _, d := range r.datums[len(r.datums):cap(r.datums)] {
				if d != nil {
					return fmt.Errorf("leaf pins %v in its spare capacity", d)
				}
			}
			for _, s := range r.strs[len(r.strs):cap(r.strs)] {
				if s != "" {
					return fmt.Errorf("leaf pins %q in its spare capacity", s)
				}
			}
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("leaves at depths %d and %d", depth, d)
			}
			leaves = append(leaves, n)
			return nil
		}
		if n.tids != nil {
			return fmt.Errorf("inner node has %d tids", len(n.tids))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = t.key(n, i-1)
			}
			if i < cnt {
				chi = t.key(n, i)
			}
			if err := walk(c, clo, chi, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	entries := 0
	for i, l := range leaves {
		entries += len(l.tids)
		if want := (*btreeNode)(nil); i+1 < len(leaves) {
			want = leaves[i+1]
			if l.next != want {
				return fmt.Errorf("leaf %d's next is not leaf %d", i, i+1)
			}
		} else if l.next != want {
			return fmt.Errorf("the last leaf has a next")
		}
	}
	if entries != t.entries {
		return fmt.Errorf("leaves hold %d entries, Len says %d", entries, t.entries)
	}
	return nil
}

// check verifies a posting list's blocks: each holds 1..ginBlockLen
// ascending TIDs whose head matches what its gaps decode to, the blocks
// ascend and tile data without a gap.
func (l *postingList) check() error {
	if len(l.blocks) == 0 {
		return fmt.Errorf("empty posting list")
	}
	prev := heap.TID(-1)
	for b, h := range l.blocks {
		if b == 0 && h.off != 0 || b > 0 && h.off < l.blocks[b-1].off {
			return fmt.Errorf("block %d starts at %d", b, h.off)
		}
		tids := l.appendBlock(nil, b)
		if len(tids) != int(h.n) || h.n == 0 || h.n > ginBlockLen {
			return fmt.Errorf("block %d decodes to %d TIDs, head says %d", b, len(tids), h.n)
		}
		if tids[0] != h.first || tids[len(tids)-1] != h.last {
			return fmt.Errorf("block %d runs %d..%d, head says %d..%d", b, tids[0], tids[len(tids)-1], h.first, h.last)
		}
		for _, tid := range tids {
			if tid <= prev {
				return fmt.Errorf("block %d: %d after %d", b, tid, prev)
			}
			prev = tid
		}
	}
	return nil
}

// ingestWords is the vocabulary of the repo benchmark's ingest_live
// commit messages.
var ingestWords = []string{
	"fix", "bug", "add", "feature", "update", "docs", "refactor", "test",
	"remove", "improve", "cleanup", "merge", "branch", "release", "version",
	"postgres", "index", "query", "cache", "api", "server", "client",
	"support", "error", "handling", "performance", "initial", "commit",
}

// ingestTexts renders n events' commit messages as the ingest_live index
// expression does (jsonb_path_query_array(...)::text): one to four
// messages of three to eight words.
func ingestTexts(n int) []string {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, n)
	for i := range texts {
		msgs := make([]string, 1+rng.Intn(4))
		for j := range msgs {
			w := make([]string, 3+rng.Intn(6))
			for k := range w {
				w[k] = ingestWords[rng.Intn(len(ingestWords))]
			}
			msgs[j] = `"` + strings.Join(w, " ") + `"`
		}
		texts[i] = "[" + strings.Join(msgs, ", ") + "]"
	}
	return texts
}

// liveBytes returns how much the heap holds after build, collected before
// and after, with build's result kept alive.
func liveBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestBTreeBytesPerEntry gates what an entry of a one-column index costs:
// its key in the leaf's array, its TID and its share of the nodes. An int64
// key is 8 bytes in the leaf; a text key (ingest_live's event ids) is a
// string header in the leaf and its bytes, which the tree copies. The keys
// are made before the measurement, so a tree that kept the caller's box or
// bytes would measure less than it costs; one that made a box of its own
// would measure more.
func TestBTreeBytesPerEntry(t *testing.T) {
	const n = 100_000
	sequential := func() []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	random := func() []int { return rand.New(rand.NewSource(1)).Perm(n) }
	for _, c := range []struct {
		name  string
		perm  func() []int
		key   func(i int) types.Datum
		limit float64
	}{
		{"int64 sequential", sequential, func(i int) types.Datum { return int64(i) }, 18},
		{"int64 random", random, func(i int) types.Datum { return int64(i) }, 28},
		{"text sequential", sequential, func(i int) types.Datum { return fmt.Sprintf("evt-%012d", i) }, 48},
		{"text random", random, func(i int) types.Datum { return fmt.Sprintf("evt-%012d", i) }, 62},
	} {
		keys := make([]types.Datum, n)
		for i, k := range c.perm() {
			keys[i] = c.key(k)
		}
		var bt *BTree
		per := liveBytes(func() any {
			bt = NewBTree(1)
			for i, k := range keys {
				bt.Insert(Key{k}, heap.TID(i))
			}
			return bt
		}) / n
		t.Logf("%s: %.1f B/entry", c.name, per)
		if per > c.limit {
			t.Errorf("%s: %.1f B/entry, want <= %.0f", c.name, per, c.limit)
		}
		if err := bt.check(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(keys)
	}
}

// TestGINBytesPerPosting gates what a posting costs on one shard's worth
// of ingest_live documents, inserted in TID order as COPY inserts them:
// the packed gaps, the block heads, the lists and the map over them.
func TestGINBytesPerPosting(t *testing.T) {
	texts := ingestTexts(6250)
	postings := 0
	for _, s := range texts {
		postings += len(trigramSet(s))
	}
	per := liveBytes(func() any {
		g := NewGIN()
		for i, s := range texts {
			g.Insert(s, heap.TID(i))
		}
		return g
	}) / float64(postings)
	runtime.KeepAlive(texts)
	t.Logf("%.2f B/posting over %d postings", per, postings)
	if per > 2 {
		t.Errorf("%.2f B/posting, want <= 2", per)
	}
}

// TestBTreeRightmostSplitFillsLeaves pins nbtree's rightmost split: an
// ascending load leaves full leaves, and a run of equal keys ending the
// load stays whole in a leaf of its own.
func TestBTreeRightmostSplitFillsLeaves(t *testing.T) {
	bt := NewBTree(1)
	for i := 0; i < 1000; i++ {
		bt.Insert(Key{int64(i)}, heap.TID(i))
	}
	for i := 0; i < 3*btreeFanout; i++ {
		bt.Insert(Key{int64(1000)}, heap.TID(1000+i))
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	l := bt.root
	for !l.leaf() {
		l = l.children[0]
	}
	var sizes []int
	for ; l != nil; l = l.next {
		sizes = append(sizes, len(l.tids))
	}
	last := sizes[len(sizes)-1]
	for _, n := range sizes[:len(sizes)-2] {
		if n != btreeFanout {
			t.Fatalf("leaf sizes %v: an ascending load leaves full leaves", sizes)
		}
	}
	if last != 3*btreeFanout {
		t.Fatalf("leaf sizes %v: the run of %d equal keys is not one leaf", sizes, 3*btreeFanout)
	}
}

// TestBTreeRunLongerThanALeaf inserts a run of equal keys several leaves
// long in the middle of the tree, interleaved with keys on both sides, and
// checks it comes back once, whole and in insertion order.
func TestBTreeRunLongerThanALeaf(t *testing.T) {
	bt := NewBTree(2)
	var want []heap.TID
	for i := 0; i < 5*btreeFanout; i++ {
		bt.Insert(Key{int64(i), "x"}, heap.TID(i))
		bt.Insert(Key{int64(7), "run"}, heap.TID(10_000+i))
		want = append(want, heap.TID(10_000+i))
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	if got := searchEqual(bt, Key{int64(7), "run"}); !slices.Equal(got, want) {
		t.Fatalf("SearchEqual of the run: %d TIDs, want %d in insertion order", len(got), len(want))
	}
	var calls [][]heap.TID
	bt.SearchPrefix(Key{int64(7)}, func(tids []heap.TID) bool {
		calls = append(calls, slices.Clone(tids))
		return true
	})
	if len(calls) != 2 || !slices.Equal(calls[0], want) || !slices.Equal(calls[1], []heap.TID{7}) {
		t.Fatalf("callbacks under prefix 7: %v, want the run's %d TIDs then (7, \"x\")'s", calls, len(want))
	}
	for _, tid := range want {
		if !bt.Remove(Key{int64(7), "run"}, tid) {
			t.Fatalf("remove %d failed", tid)
		}
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 5*btreeFanout {
		t.Fatalf("Len %d after removing the run", bt.Len())
	}
}

// TestPostingListOutOfOrder inserts TIDs into a list in an order that
// splits full blocks and lands between blocks, then removes them in
// another, checking the blocks after every step.
func TestPostingListOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var l postingList
	var ref []heap.TID
	for _, tid := range rng.Perm(5 * ginBlockLen) {
		tid := heap.TID(tid * 37) // gaps of one and two varint bytes
		if !l.insert(tid) || l.insert(tid) {
			t.Fatalf("insert %d: first must add, second must not", tid)
		}
		ref = append(ref, tid)
		if err := l.check(); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(ref)
	var got []heap.TID
	for b := range l.blocks {
		got = l.appendBlock(got, b)
	}
	if !slices.Equal(got, ref) {
		t.Fatal("list does not decode to its TIDs")
	}
	for _, i := range rng.Perm(len(ref)) {
		if !l.remove(ref[i]) || l.remove(ref[i]) {
			t.Fatalf("remove %d: first must drop, second must not", ref[i])
		}
		if len(l.blocks) == 0 {
			break
		}
		if err := l.check(); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.blocks) != 0 || len(l.data) != 0 {
		t.Fatalf("%d blocks, %d bytes left", len(l.blocks), len(l.data))
	}
}

// TestGINSearchSkipsBlocks intersects a rare trigram's list with lists a
// hundred times longer, so the cursor skips whole blocks between the
// candidates and must start each block it lands in from its head.
func TestGINSearchSkipsBlocks(t *testing.T) {
	g := NewGIN()
	var want []heap.TID
	for i := 0; i < 20_000; i++ {
		text := "common words"
		if i%293 == 7 {
			text += " rare"
			want = append(want, heap.TID(i))
		}
		g.Insert(text, heap.TID(i))
	}
	if got, _ := g.Search("%rare%common%"); !slices.Equal(got, want) {
		t.Fatalf("Search found %d rows, want %d", len(got), len(want))
	}
}

// TestIndexConcurrentReadersAndWriters runs Range, SearchEqual and Search
// against writers whose inserts and removes split leaves and rewrite
// posting blocks (run under -race by make stress). Entries present
// throughout must always be seen, and every answer must be ordered.
func TestIndexConcurrentReadersAndWriters(t *testing.T) {
	const stable = 300
	// a TID names its key: stable i is (2i, "stable"), churn i (2i+1,
	// "churn") and run i (stable, "run")
	const churn, run = 10_000, 20_000
	keyOf := func(tid heap.TID) Key {
		switch {
		case tid >= run:
			return Key{int64(stable), "run"}
		case tid >= churn:
			return Key{int64(2*(tid-churn) + 1), "churn"}
		}
		return Key{int64(2 * tid), "stable"}
	}
	bt, g := NewBTree(2), NewGIN()
	for i := 0; i < stable; i++ {
		bt.Insert(keyOf(heap.TID(i)), heap.TID(i))
		g.Insert("stable postgres", heap.TID(1000*i))
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() { // B-tree writer: odd keys and a growing run, added and removed
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 20; round++ {
			for _, i := range rng.Perm(2 * stable) {
				bt.Insert(keyOf(heap.TID(churn+i)), heap.TID(churn+i))
				bt.Insert(keyOf(heap.TID(run+i)), heap.TID(run+i))
			}
			for _, i := range rng.Perm(2 * stable) {
				bt.Remove(keyOf(heap.TID(churn+i)), heap.TID(churn+i))
				bt.Remove(keyOf(heap.TID(run+i)), heap.TID(run+i))
			}
		}
	}()
	go func() { // GIN writer: TIDs between the stable ones, out of order
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-done:
				return
			default:
			}
			tids := make([]heap.TID, 500)
			for i := range tids {
				tids[i] = heap.TID(1 + rng.Intn(stable*1000-1))
			}
			for _, tid := range tids {
				if tid%1000 != 0 {
					g.Insert("churning postgres", tid)
				}
			}
			for _, tid := range tids {
				if tid%1000 != 0 {
					g.Remove("churning postgres", tid)
				}
			}
		}
	}()
	read := func() error {
		seen := 0
		var prev Key
		var err error
		bt.Range(nil, nil, true, true, func(tids []heap.TID) bool {
			k := keyOf(tids[0])
			if prev != nil && CompareKeys(prev, k) >= 0 {
				err = fmt.Errorf("Range: %v after %v", k, prev)
				return false
			}
			prev = k
			if k[1] == "stable" {
				seen++
			}
			return true
		})
		if err != nil {
			return err
		}
		if seen != stable {
			return fmt.Errorf("Range saw %d stable keys, want %d", seen, stable)
		}
		if got := searchEqual(bt, Key{int64(stable), "stable"}); !slices.Equal(got, []heap.TID{stable / 2}) {
			return fmt.Errorf("SearchEqual of a stable key: %v", got)
		}
		if cands, _ := g.Search("%stable%"); len(cands) != stable || !slices.IsSorted(cands) {
			return fmt.Errorf("Search saw %d stable rows, want %d ascending", len(cands), stable)
		}
		return nil
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeDemotesBesideReaders: each column of a two-column int64 tree is
// made a datum column — by a NULL, then by a float — while other goroutines
// run SearchEqual and Range on the tree and a writer keeps inserting and
// removing (run under -race by make stress). Every stable entry is found by
// every search, and the tree ends with both columns datums.
func TestBTreeDemotesBesideReaders(t *testing.T) {
	const stable = 1000
	bt := NewBTree(2)
	for i := 0; i < stable; i++ {
		bt.Insert(Key{int64(2 * i), int64(i)}, heap.TID(i))
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := r; ; n += 7919 {
				select {
				case <-done:
					return
				default:
				}
				i := n % stable
				if got := searchEqual(bt, Key{int64(2 * i), int64(i)}); !slices.Equal(got, []heap.TID{heap.TID(i)}) {
					errs <- fmt.Errorf("SearchEqual of stable key %d: %v", i, got)
					return
				}
				seen := 0
				bt.Range(Key{int64(0)}, Key{int64(2 * stable)}, true, false, func(tids []heap.TID) bool {
					for _, tid := range tids {
						if tid < stable {
							seen++
						}
					}
					return true
				})
				if seen != stable {
					errs <- fmt.Errorf("Range saw %d stable entries, want %d", seen, stable)
					return
				}
			}
		}()
	}
	odd := func(i int, d types.Datum) {
		tid := heap.TID(stable + i)
		bt.Insert(Key{int64(2*i + 1), int64(i)}, tid)
		bt.Insert(Key{d, int64(i)}, tid+stable)
		if i%2 == 0 {
			bt.Remove(Key{int64(2*i + 1), int64(i)}, tid)
		}
	}
	for i := 0; i < stable; i++ {
		odd(i, int64(-1-i))
	}
	bt.Insert(Key{int64(-1), nil}, 3*stable) // column 1 demotes
	for i := 0; i < stable; i++ {
		odd(i, int64(-1-i))
	}
	bt.Insert(Key{0.5, int64(0)}, 3*stable+1) // column 0 demotes
	for i := 0; i < stable; i++ {
		odd(i, float64(i)+0.5)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !slices.Equal(bt.lay.kind, []colKind{kindDatum, kindDatum}) {
		t.Fatalf("column kinds %v, want both datums", bt.lay.kind)
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	for _, order := range []string{"sequential", "random"} {
		b.Run(order, func(b *testing.B) {
			keys := make([]types.Datum, b.N)
			for i, k := range rand.New(rand.NewSource(1)).Perm(b.N) {
				if order == "sequential" {
					k = i
				}
				keys[i] = int64(k)
			}
			bt := NewBTree(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := range keys {
				bt.Insert(Key{k}, heap.TID(i))
			}
		})
	}
}

func BenchmarkBTreeSearchEqual(b *testing.B) {
	const n = 100_000
	bt := NewBTree(1)
	for i := 0; i < n; i++ {
		bt.Insert(Key{int64(i)}, heap.TID(i))
	}
	keys := make([]types.Datum, n)
	for i := range keys {
		keys[i] = int64(i * 7919 % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.SearchEqual(Key{keys[i%n]}, func([]heap.TID) {})
	}
}

// BenchmarkGINInsert indexes ingest_live's commit-message arrays in TID
// order, as COPY does.
func BenchmarkGINInsert(b *testing.B) {
	texts := ingestTexts(1024)
	g := NewGIN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Insert(texts[i%len(texts)], heap.TID(i))
	}
}

// BenchmarkGINSearch is the dashboard's index search over one shard's
// documents, early in the ingest_live schedule and at its cap.
func BenchmarkGINSearch(b *testing.B) {
	for _, docs := range []int{750, 6250} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			g := NewGIN()
			for i, s := range ingestTexts(docs) {
				g.Insert(s, heap.TID(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cands, _ := g.Search("%postgres%"); len(cands) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}
