package index

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"citusgo/internal/expr"
	"citusgo/internal/heap"
)

func TestBTreeBasicOperations(t *testing.T) {
	bt := NewBTree(1)
	for i := 0; i < 1000; i++ {
		bt.Insert(Key{int64(i)}, heap.TID(i))
	}
	if bt.Len() != 1000 {
		t.Fatalf("len = %d", bt.Len())
	}
	if got := searchEqual(bt, Key{int64(437)}); len(got) != 1 || got[0] != 437 {
		t.Fatalf("search: %v", got)
	}
	if got := searchEqual(bt, Key{int64(5000)}); got != nil {
		t.Fatalf("absent key found: %v", got)
	}
	if !bt.Remove(Key{int64(437)}, 437) {
		t.Fatal("remove failed")
	}
	if got := searchEqual(bt, Key{int64(437)}); got != nil {
		t.Fatal("removed key still present")
	}
	if bt.Remove(Key{int64(437)}, 437) {
		t.Fatal("double remove should fail")
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt := NewBTree(1)
	for i := 0; i < 10; i++ {
		bt.Insert(Key{"same"}, heap.TID(i))
	}
	got := searchEqual(bt, Key{"same"})
	if len(got) != 10 {
		t.Fatalf("want 10 postings, got %d", len(got))
	}
	bt.Remove(Key{"same"}, 3)
	if got := searchEqual(bt, Key{"same"}); len(got) != 9 {
		t.Fatalf("want 9 postings after remove, got %d", len(got))
	}
}

// TestBTreeRepoint: an entry moved to another TID keeps its key, its place
// among the entries under the key and the tree's size; a missing entry is
// reported as such.
func TestBTreeRepoint(t *testing.T) {
	bt := NewBTree(1)
	for i := 0; i < 500; i++ {
		bt.Insert(Key{int64(i % 50)}, heap.TID(i))
	}
	if !bt.Repoint(Key{int64(7)}, 57, 9000) {
		t.Fatal("Repoint found no entry (7, 57)")
	}
	if bt.Repoint(Key{int64(8)}, 57, 9001) {
		t.Fatal("Repoint moved an entry under another key")
	}
	want := []heap.TID{7, 9000, 107, 157, 207, 257, 307, 357, 407, 457}
	if got := searchEqual(bt, Key{int64(7)}); !slices.Equal(got, want) {
		t.Fatalf("key 7 holds %v, want %v", got, want)
	}
	if bt.Len() != 500 {
		t.Fatalf("Len() = %d after Repoint, want 500", bt.Len())
	}
}

func TestBTreeRangeScan(t *testing.T) {
	bt := NewBTree(1)
	for i := 0; i < 500; i += 2 { // even keys only
		bt.Insert(Key{int64(i)}, heap.TID(i))
	}
	var got []int64 // each key's one TID is the key
	bt.Range(Key{int64(100)}, Key{int64(110)}, true, true, func(tids []heap.TID) bool {
		got = append(got, int64(tids[0]))
		return true
	})
	want := []int64{100, 102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("range: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order: %v", got)
		}
	}
	// exclusive bounds
	got = got[:0]
	bt.Range(Key{int64(100)}, Key{int64(110)}, false, false, func(tids []heap.TID) bool {
		got = append(got, int64(tids[0]))
		return true
	})
	if len(got) != 4 || got[0] != 102 || got[3] != 108 {
		t.Fatalf("exclusive range: %v", got)
	}
	// unbounded from the left
	count := 0
	bt.Range(nil, Key{int64(10)}, true, true, func([]heap.TID) bool {
		count++
		return true
	})
	if count != 6 {
		t.Fatalf("left-unbounded count: %d", count)
	}
}

func TestBTreeCompositeKeysAndPrefix(t *testing.T) {
	bt := NewBTree(2)
	for w := int64(1); w <= 4; w++ {
		for d := int64(1); d <= 10; d++ {
			bt.Insert(Key{w, d}, heap.TID(w*100+d))
		}
	}
	var hits int
	bt.SearchPrefix(Key{int64(3)}, func(tids []heap.TID) bool {
		hits += len(tids)
		return true
	})
	if hits != 10 {
		t.Fatalf("prefix scan found %d, want 10", hits)
	}
	got := searchEqual(bt, Key{int64(3), int64(7)})
	if len(got) != 1 || got[0] != 307 {
		t.Fatalf("composite exact: %v", got)
	}
}

// TestBTreeMatchesReferenceModel drives random inserts/removes against a
// map-based reference and compares ordered iteration.
func TestBTreeMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bt := NewBTree(1)
	ref := map[int64]map[heap.TID]bool{}
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(500))
		tid := heap.TID(rng.Intn(10))
		if rng.Float64() < 0.6 {
			// avoid duplicate (key, tid) pairs: the reference cannot
			// represent multiplicity
			if !ref[k][tid] {
				bt.Insert(Key{k}, tid)
				if ref[k] == nil {
					ref[k] = map[heap.TID]bool{}
				}
				ref[k][tid] = true
			}
		} else {
			removed := bt.Remove(Key{k}, tid)
			if removed != ref[k][tid] {
				t.Fatalf("remove(%d, %d) = %v, reference says %v", k, tid, removed, ref[k][tid])
			}
			if removed {
				delete(ref[k], tid)
			}
		}
	}
	// full-scan comparison: the leaves' keys, and Range's runs over them
	var treeKeys []int64
	var runs []int
	for _, e := range bt.all() {
		if k := e.key[0].(int64); len(treeKeys) == 0 || treeKeys[len(treeKeys)-1] != k {
			treeKeys = append(treeKeys, k)
		}
	}
	bt.Range(nil, nil, true, true, func(tids []heap.TID) bool {
		runs = append(runs, len(tids))
		return true
	})
	var refKeys []int64
	for k, tids := range ref {
		if len(tids) > 0 {
			refKeys = append(refKeys, k)
		}
	}
	sort.Slice(refKeys, func(i, j int) bool { return refKeys[i] < refKeys[j] })
	if len(treeKeys) != len(refKeys) || len(runs) != len(refKeys) {
		t.Fatalf("tree has %d keys in %d runs, reference %d", len(treeKeys), len(runs), len(refKeys))
	}
	for i := range refKeys {
		if treeKeys[i] != refKeys[i] || runs[i] != len(ref[refKeys[i]]) {
			t.Fatalf("key %d: %d with %d postings, reference %d with %d", i, treeKeys[i], runs[i], refKeys[i], len(ref[refKeys[i]]))
		}
	}
}

func TestCompareKeysProperty(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		k1 := Key{a, s1}
		k2 := Key{b, s2}
		return CompareKeys(k1, k2) == -CompareKeys(k2, k1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// prefix sorts first
	if CompareKeys(Key{int64(1)}, Key{int64(1), int64(0)}) != -1 {
		t.Fatal("prefix must sort before extension")
	}
}

func TestGINSearch(t *testing.T) {
	g := NewGIN()
	docs := map[heap.TID]string{
		1: "fix postgres bug in planner",
		2: "add feature to executor",
		3: "postgres performance tuning",
		4: "documentation updates",
	}
	for tid, text := range docs {
		g.Insert(text, tid)
	}
	if g.Len() != 4 {
		t.Fatalf("len = %d", g.Len())
	}
	cands, usable := g.Search("%postgres%")
	if !usable {
		t.Fatal("pattern should be usable")
	}
	if len(cands) != 2 {
		t.Fatalf("candidates: %v", cands)
	}
	found := map[heap.TID]bool{}
	for _, c := range cands {
		found[c] = true
	}
	if !found[1] || !found[3] {
		t.Fatalf("wrong candidates: %v", cands)
	}

	// short patterns are unusable (seq scan fallback)
	if _, usable := g.Search("%ab%"); usable {
		t.Fatal("2-char pattern must be unusable")
	}
	// absent trigram: empty result but usable
	cands, usable = g.Search("%zzzqqq%")
	if !usable || len(cands) != 0 {
		t.Fatalf("absent pattern: %v %v", cands, usable)
	}
}

func TestGINRemove(t *testing.T) {
	g := NewGIN()
	g.Insert("postgres rocks", 1)
	g.Insert("postgres rolls", 2)
	g.Remove("postgres rocks", 1)
	cands, _ := g.Search("%postgres%")
	if len(cands) != 1 || cands[0] != 2 {
		t.Fatalf("after remove: %v", cands)
	}
	g.Remove("postgres rocks", 99) // removing the unknown is a no-op
	if g.Len() != 1 {
		t.Fatalf("len = %d", g.Len())
	}
}

func TestGINNoFalseNegativesProperty(t *testing.T) {
	// anything indexed that truly contains the search word must be a
	// candidate (GIN may over-return — it is lossy — but never under-return)
	g := NewGIN()
	texts := []string{
		"alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
		"alphabet soup", "the quick brown fox", "lazy dog sleeps",
	}
	for i, s := range texts {
		g.Insert(s, heap.TID(i))
	}
	for _, word := range []string{"gamma", "delta", "quick"} {
		cands, usable := g.Search("%" + word + "%")
		if !usable {
			t.Fatalf("word %q unusable", word)
		}
		set := map[heap.TID]bool{}
		for _, c := range cands {
			set[c] = true
		}
		for i, s := range texts {
			if containsWord(s, word) && !set[heap.TID(i)] {
				t.Fatalf("false negative: %q should match %q", s, word)
			}
		}
	}
}

func containsWord(s, w string) bool {
	return len(s) >= len(w) && (func() bool {
		for i := 0; i+len(w) <= len(s); i++ {
			if s[i:i+len(w)] == w {
				return true
			}
		}
		return false
	})()
}

func gramString(g uint32) string { return string([]byte{byte(g >> 16), byte(g >> 8), byte(g)}) }

// trigramsOf collects what eachTrigram hands on, in its order.
func trigramsOf[T text](s T) []uint32 {
	var grams []uint32
	eachTrigram(s, func(g uint32) { grams = append(grams, g) })
	return grams
}

func TestTrigramsExtraction(t *testing.T) {
	// pg_trgm padding: "  fix " yields "  f", " fi", "fix", "ix "; the
	// trigrams come out lower-cased, in text order, once per occurrence
	for _, c := range []struct {
		text string
		want []string
	}{
		{"Fix Bug", []string{"  f", " fi", "fix", "ix ", "  b", " bu", "bug", "ug "}},
		{"a-a A", []string{"  a", " a ", "  a", " a ", "  a", " a "}},
		{"", nil},
		{"?! ...", nil},
		{"ÉaB9é", []string{"  a", " ab", "ab9", "b9 "}},    // non-ASCII letters separate words
		{"\u212Aey", []string{"  k", " ke", "key", "ey "}}, // the Kelvin sign lower-cases to k
	} {
		grams := trigramsOf(c.text)
		var got []string
		for _, g := range grams {
			got = append(got, gramString(g))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("trigrams of %q = %q, want %q", c.text, got, c.want)
		}
		if b := trigramsOf([]byte(c.text)); !slices.Equal(b, grams) {
			t.Errorf("trigrams of %q as bytes differ from those of the string", c.text)
		}
		slices.Sort(grams)
		if grams = slices.Compact(grams); !slices.Equal(grams, trigramSet(c.text)) {
			t.Errorf("trigram set of %q differs from the reference's", c.text)
		}
	}
}

// TestGINRepeatedTrigramsPostOnce indexes texts that repeat their trigrams
// many times over, a thousand occurrences and more, under TIDs in order,
// shuffled, and spanning several blocks: each row must be posted once per
// distinct trigram, and removing it must leave none of its postings.
func TestGINRepeatedTrigramsPostOnce(t *testing.T) {
	text := strings.Repeat("postgres Postgres POSTGRES fix ", 40)
	bytesText := []byte(strings.Repeat("bug BUG ", 40))
	set := trigramSet(text)
	if n := len(trigramsOf(text)); n < 1000 || n <= 10*len(set) {
		t.Fatalf("%d trigrams, %d distinct: not enough repeats", n, len(set))
	}
	rows := 3 * ginBlockLen
	for _, order := range []string{"in order", "shuffled"} {
		tids := make([]heap.TID, rows)
		for i := range tids {
			tids[i] = heap.TID(i)
		}
		if order == "shuffled" {
			rand.New(rand.NewSource(3)).Shuffle(rows, func(i, j int) { tids[i], tids[j] = tids[j], tids[i] })
		}
		g := NewGIN()
		for _, tid := range tids {
			g.Insert(text, tid)
			g.InsertBytes(bytesText, tid+heap.TID(rows))
		}
		if g.Len() != 2*rows {
			t.Fatalf("%s: Len %d, want %d", order, g.Len(), 2*rows)
		}
		for _, gram := range append(set, trigramSet(string(bytesText))...) {
			l := g.posting[gram]
			if l == nil || l.len() != rows {
				t.Fatalf("%s: %q posts %v rows, want %d", order, gramString(gram), l, rows)
			}
			if err := l.check(); err != nil {
				t.Fatalf("%s: %q: %v", order, gramString(gram), err)
			}
		}
		for _, tid := range tids {
			g.Remove(text, tid)
			g.RemoveBytes(bytesText, tid+heap.TID(rows))
		}
		if g.Len() != 0 || len(g.posting) != 0 {
			t.Fatalf("%s: Len %d and %d lists after removing every row", order, g.Len(), len(g.posting))
		}
	}
}

// TestGINAgainstBruteForce inserts random texts in shuffled TID order with
// removals in between and checks Search against ILIKE over the live texts:
// a sorted, duplicate-free superset of the matches, and no removed TID.
func TestGINAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abcABCxyzXYZ019 .,-_%\"'éÉßİ\u212Aж")
	randText := func() string {
		r := make([]rune, rng.Intn(40))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	ilike := func(text, pattern string) bool {
		return expr.MatchLike(strings.ToLower(text), strings.ToLower(pattern))
	}

	g := NewGIN()
	live := map[heap.TID]string{}
	removed := map[heap.TID]bool{}
	check := func() {
		t.Helper()
		indexed := 0
		var patterns []string
		for _, text := range live {
			if len(trigramsOf(text)) > 0 {
				indexed++
			}
			if r := []rune(text); len(r) >= 3 && len(patterns) < 40 {
				from := rng.Intn(len(r) - 2)
				sub := string(r[from : from+3+rng.Intn(len(r)-from-2)])
				patterns = append(patterns, "%"+sub+"%", sub+"%", "%"+sub, "%"+sub+"_%"+sub+"%")
			}
		}
		if g.Len() != indexed {
			t.Fatalf("Len() = %d, %d live texts have a trigram", g.Len(), indexed)
		}
		for _, pattern := range patterns {
			cands, usable := g.Search(pattern)
			if !usable {
				continue
			}
			if !slices.IsSorted(cands) || len(slices.Compact(slices.Clone(cands))) != len(cands) {
				t.Fatalf("Search(%q) is not sorted and duplicate-free: %v", pattern, cands)
			}
			for _, tid := range cands {
				if removed[tid] {
					t.Fatalf("Search(%q) returned the removed TID %d", pattern, tid)
				}
			}
			for tid, text := range live {
				if _, found := slices.BinarySearch(cands, tid); !found && ilike(text, pattern) {
					t.Fatalf("Search(%q) misses TID %d %q", pattern, tid, text)
				}
			}
		}
	}

	tids := rng.Perm(600)
	for i, n := range tids {
		tid := heap.TID(n)
		live[tid] = randText()
		g.Insert(live[tid], tid)
		if i%3 == 2 { // remove a random live one
			victim := heap.TID(tids[rng.Intn(i+1)])
			if text, ok := live[victim]; ok {
				g.Remove(text, victim)
				delete(live, victim)
				removed[victim] = true
			}
		}
		if i%100 == 99 {
			check()
		}
	}
	for tid, text := range live {
		g.Remove(text, tid)
		delete(live, tid)
		removed[tid] = true
	}
	check()
	if len(g.posting) != 0 {
		t.Fatalf("%d posting lists left after removing everything", len(g.posting))
	}
}
