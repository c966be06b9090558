package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"citusgo/internal/heap"
	"citusgo/internal/types"
)

// FuzzIndex is a differential oracle for both index layouts. A byte script
// drives one B-tree and one GIN against a slice kept sorted by key and a
// map. The script's first byte picks the tree's shape: two columns of mixed
// datum kinds with NULLs, or one or two int64 columns, or one or two text
// columns. Its ops insert runs of equal keys longer than a leaf placed
// first, last and mid-tree, ascending loads, keys of another kind than
// their column's (a NULL, a float equal to an int or between two, a string,
// an int), which make the column a datum column in the middle of the
// script, and remove single entries and whole runs. The GIN gets non-ASCII
// and upper-case text, a common and a rare word, so searches skip blocks,
// TIDs in order, out of order and across block boundaries, and removes that
// empty blocks and lists. After every step the tree's entries must be the
// slice's, datum for datum, and SearchEqual, Range under all four bound
// inclusivities, SearchPrefix, Search and Len must agree with it, for
// probes and bounds that are sometimes of another kind than the keys (a
// float, a NULL or a string against int64 keys); both structures'
// invariants are checked. Run it longer with
//
//	go test ./internal/index -run '^$' -fuzz FuzzIndex -fuzztime 10m
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 0, 10, 2, 1, 0, 2, 2, 77, 200, 4, 9, 6, 40, 5, 3, 7, 40, 7, 200, 8, 5, 9, 3})
	f.Add([]byte{5, 3, 99, 2, 2, 1, 0, 0, 60, 4, 128, 6, 128, 3, 99, 7, 39, 7, 39, 7, 39, 7, 39, 9, 0, 9, 4})
	f.Add([]byte("\x00\x07\x27\x07\x27\x07\xff\x07\x27\x08\x00\x40\x08\x80\x40\x09\x09\x09\x0a\x07\x10"))
	f.Add([]byte("\x00\x02\x00\x00\x02\x01\x00\x02\x02\x05\x30\x06\x00\x06\xff\x03\x50\x00\x3b\x01\x16"))
	// int64 and text trees of width 1 and 2: an ascending load, a run mid-
	// tree and single keys, then a key whose last column is NULL, which
	// demotes it, then more keys, removes and a whole run removed
	for shape := byte(int1Keys); shape <= text2Keys; shape++ {
		width := 2 - int(shape%2)
		script := append([]byte{shape, 3, 60, 2, 2}, []byte{5, 9}[:width]...)
		script = append(script, 10)
		for i := byte(0); i < 40; i++ {
			if i == 20 {
				script = append(append(append(script, 10), []byte{5, 9}[:width]...), 1, 0)
			}
			script = append(append(script, i%2), []byte{i, i * 7}[:width]...)
		}
		f.Add(append(script, 4, 1, 2, 6, 0, 9, 5, 3, 3))
	}
	// dense small int64 keys, so that float probes fall on and between them
	for _, shape := range []byte{int1Keys, int2Keys} {
		script := []byte{shape}
		for i := 0; i < 18; i++ {
			script = append(script, byte(i%2), byte(i*5%16), byte(i*3%16))
		}
		f.Add(script)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64+rng.Intn(192))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		s := &indexScript{script: script, gin: NewGIN(), live: map[heap.TID]liveDoc{}, grams: map[uint32]int{}}
		s.shape = s.next() % 5
		s.bt = NewBTree(s.width())
		for step := 0; len(s.script) > 0; step++ {
			op := s.next()
			if err := s.apply(op); err != nil {
				t.Fatalf("shape %d, step %d (op %d): %v", s.shape, step, op%11, err)
			}
			if err := s.compare(rand.New(rand.NewSource(int64(step)))); err != nil {
				t.Fatalf("shape %d, after step %d (op %d): %v", s.shape, step, op%11, err)
			}
		}
	})
}

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

// The fuzzer's caps: enough for a tree three levels deep and lists of
// several blocks, small enough that every step is checked in full.
const (
	fuzzMaxEntries = 4000
	fuzzMaxDocs    = 1500
)

var (
	fuzzStrings = []string{"", "a", "B", "b", "É", "é", "straße", "STRASSE", "ж"}
	fuzzWords   = []string{"fix", "bug", "Postgres", "POSTGRES", "índex", "ÉTÉ", "straße", "Ünïcode", "go", "data", "a1b2", "q"}
	fuzzRare    = "zyzzyva"
	fuzzSeps    = []string{" ", ", ", `", "`, "-"}
	fuzzLikes   = []string{"%postgres%", "%POSTGRES%", "%gres%", "%fix bug%", "%ix_bu%", "%straße%", "%zyzz%", "%zyzzyva%data%", "%go%", "Postgres%", "%índex%", "%a1b2%", "%code%", "%ünï%"}
)

type refEntry struct {
	key Key
	tid heap.TID
}

// trigramSet is the reference's own trigram extraction: the ascending,
// duplicate-free set of pg_trgm's padded trigrams ("  w", " wo", …, "rd ")
// of every word of the lower-cased text, a word being a run of ASCII letters
// and digits.
func trigramSet(text string) []uint32 {
	var set []uint32
	for _, w := range strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}) {
		padded := "  " + w + " "
		for i := 0; i+3 <= len(padded); i++ {
			set = append(set, uint32(padded[i])<<16|uint32(padded[i+1])<<8|uint32(padded[i+2]))
		}
	}
	slices.Sort(set)
	return slices.Compact(set)
}

type liveDoc struct {
	text  string
	grams []uint32
}

// The tree shapes: two columns of mixed kinds, one or two int64 columns,
// one or two text columns.
const (
	mixedKeys = iota
	int1Keys
	int2Keys
	text1Keys
	text2Keys
)

type indexScript struct {
	script []byte
	shape  byte
	bt     *BTree
	ref    []refEntry // by key, equal keys in insertion order
	nextID heap.TID
	asc    int64

	gin     *GIN
	live    map[heap.TID]liveDoc
	grams   map[uint32]int // live documents per trigram
	indexed int            // live documents with a trigram
	ginNext heap.TID
}

func (s *indexScript) next() byte {
	if len(s.script) == 0 {
		return 0
	}
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

func (s *indexScript) width() int {
	if s.shape == int1Keys || s.shape == text1Keys {
		return 1
	}
	return 2
}

// mixedKey builds a two-column key from two bytes: the first column NULL,
// an int64, a float64 between two ints, or a float64 equal to an int (one
// run of equal keys then holds two representations); the second NULL or
// text.
func mixedKey(next func() byte) Key {
	x, y := next(), next()
	var k1 types.Datum
	if y%6 != 0 {
		k1 = fuzzStrings[int(y/6)%len(fuzzStrings)]
	}
	k0 := oddDatum(x)
	if _, ok := k0.(string); ok {
		k0 = int64(x/8) % 16
	}
	return Key{k0, k1}
}

// oddDatum is a datum of any kind from one byte: NULL, a float64 between
// two ints or equal to one, a string, or an int64.
func oddDatum(x byte) types.Datum {
	v := int64(x/8) % 16
	switch x % 8 {
	case 0:
		return nil
	case 1:
		return float64(v) + 0.5
	case 2:
		return float64(v)
	case 3:
		return fuzzStrings[int(v)%len(fuzzStrings)]
	}
	return v
}

// genKey builds a key of the tree's shape from the next bytes.
func (s *indexScript) genKey(next func() byte) Key {
	if s.shape == mixedKeys {
		return mixedKey(next)
	}
	key := make(Key, s.width())
	for c := range key {
		if s.shape == int1Keys || s.shape == int2Keys {
			key[c] = int64(next() % 16) // oddDatum's range: its floats fall on and between these
		} else {
			key[c] = fuzzStrings[int(next())%len(fuzzStrings)]
		}
	}
	return key
}

// edgeKey is a key of the tree's shape below every generated key (the
// first of the tree), or above them all but the ascending load's.
func (s *indexScript) edgeKey(last bool) Key {
	if s.shape == mixedKeys {
		if last {
			return Key{int64(1 << 40), "zz"}
		}
		return Key{nil, nil}
	}
	var d types.Datum = int64(-1 << 40)
	switch text := s.shape == text1Keys || s.shape == text2Keys; {
	case text && last:
		d = "\U0010FFFF"
	case text:
		d = ""
	case last:
		d = int64(1 << 40)
	}
	if s.width() == 1 {
		return Key{d}
	}
	return Key{d, d}
}

// ascKey is the next key of an ascending load, past every key so far.
func (s *indexScript) ascKey() Key {
	s.asc++
	key := make(Key, s.width())
	for c := range key {
		if s.shape == text1Keys || s.shape == text2Keys {
			key[c] = fmt.Sprintf("\U0010FFFF%06d", s.asc)
		} else {
			key[c] = int64(1<<20) + s.asc
		}
	}
	if s.shape == mixedKeys {
		key[1] = fuzzStrings[s.asc%int64(len(fuzzStrings))]
	}
	return key
}

// oddKey is a key of the tree's shape with one column, picked by the next
// byte, replaced by oddDatum of the byte after.
func (s *indexScript) oddKey(next func() byte) Key {
	key := s.genKey(next)
	key[int(next())%len(key)] = oddDatum(next())
	return key
}

func (s *indexScript) insert(key Key) {
	if len(s.ref) >= fuzzMaxEntries {
		return
	}
	s.nextID++
	s.bt.Insert(key, s.nextID)
	i := sort.Search(len(s.ref), func(i int) bool { return CompareKeys(s.ref[i].key, key) > 0 })
	s.ref = slices.Insert(s.ref, i, refEntry{slices.Clone(key), s.nextID})
}

// remove drops the first entry of its run with tid from ref, as the tree
// does.
func (s *indexScript) remove(key Key, tid heap.TID) error {
	i := slices.IndexFunc(s.ref, func(e refEntry) bool { return e.tid == tid && CompareKeys(e.key, key) == 0 })
	if got := s.bt.Remove(key, tid); got != (i >= 0) {
		return fmt.Errorf("Remove(%v, %d) = %v, reference has it: %v", key, tid, got, i >= 0)
	}
	if i >= 0 {
		s.ref = slices.Delete(s.ref, i, i+1)
	}
	return nil
}

// genText builds a document of one to four words. Half the documents open
// with "data" and one word in a hundred is the rare "zyzzyva", so a search
// can intersect lists whose lengths differ a hundredfold, and its cursor skip
// whole blocks of the longer one.
func genText(rng *rand.Rand) string {
	var words []string
	if rng.Intn(2) == 0 {
		words = append(words, "data")
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if rng.Intn(100) == 0 {
			words = append(words, fuzzRare)
		} else {
			words = append(words, fuzzWords[rng.Intn(len(fuzzWords))])
		}
	}
	return strings.Join(words, fuzzSeps[rng.Intn(len(fuzzSeps))])
}

func (s *indexScript) ginInsert(tid heap.TID, text string) {
	if _, ok := s.live[tid]; ok || len(s.live) >= fuzzMaxDocs {
		return
	}
	s.gin.Insert(text, tid)
	doc := liveDoc{text, trigramSet(text)}
	s.live[tid] = doc
	for _, g := range doc.grams {
		s.grams[g]++
	}
	if len(doc.grams) > 0 {
		s.indexed++
	}
}

func (s *indexScript) ginRemove(tid heap.TID) {
	doc, ok := s.live[tid]
	if !ok {
		return
	}
	s.gin.Remove(doc.text, tid)
	delete(s.live, tid)
	for _, g := range doc.grams {
		if s.grams[g]--; s.grams[g] == 0 {
			delete(s.grams, g)
		}
	}
	if len(doc.grams) > 0 {
		s.indexed--
	}
}

func (s *indexScript) apply(op byte) error {
	switch op % 11 {
	case 0, 1: // one entry
		s.insert(s.genKey(s.next))
	case 2: // a run longer than a leaf: first, last or mid-tree
		var key Key
		switch s.next() % 3 {
		case 0:
			key = s.edgeKey(false)
		case 1:
			key = s.edgeKey(true)
		default:
			key = s.genKey(s.next)
		}
		for n := btreeFanout + 1 + int(s.next())%btreeFanout; n > 0; n-- {
			s.insert(key)
		}
	case 3: // an ascending load past every key so far
		for n := 1 + int(s.next())%128; n > 0; n-- {
			s.insert(s.ascKey())
		}
	case 4: // remove an entry that is there
		if len(s.ref) > 0 {
			e := s.ref[(int(s.next())<<8|int(s.next()))%len(s.ref)]
			return s.remove(e.key, e.tid)
		}
	case 5: // remove an entry that is not
		return s.remove(s.genKey(s.next), s.nextID+1)
	case 6: // remove a whole run
		if len(s.ref) > 0 {
			key := s.ref[(int(s.next())<<8|int(s.next()))%len(s.ref)].key
			for _, e := range slices.Clone(s.ref) {
				if CompareKeys(e.key, key) == 0 {
					if err := s.remove(key, e.tid); err != nil {
						return err
					}
				}
			}
		}
	case 7: // up to 256 documents from a generator the next byte seeds: in TID
		// order, with gaps of one to three varint bytes, or out of order
		n, rng := 1+int(s.next()), rand.New(rand.NewSource(int64(s.next())))
		for ; n > 0; n-- {
			switch r := rng.Intn(64); {
			case r < 8 && s.ginNext > 0:
				s.ginInsert(heap.TID(rng.Intn(int(s.ginNext))), genText(rng))
				continue
			case r == 8:
				s.ginNext += 300
			case r == 9:
				s.ginNext += 70_000
			default:
				s.ginNext++
			}
			s.ginInsert(s.ginNext, genText(rng))
		}
	case 8: // remove a TID range, emptying blocks; or a TID never inserted
		if s.ginNext == 0 {
			return nil
		}
		from := heap.TID(int(s.next()) * int(s.ginNext) / 256)
		for tid, end := from, from+heap.TID(s.next()); tid < end; tid++ {
			s.ginRemove(tid)
		}
		s.gin.Remove(genText(rand.New(rand.NewSource(int64(s.next())))), s.ginNext+1)
	case 9: // remove every document with a word, emptying its lists
		word := fuzzRare
		if b := int(s.next()) % (len(fuzzWords) + 1); b < len(fuzzWords) {
			word = fuzzWords[b]
		}
		for tid, doc := range s.live {
			if strings.Contains(doc.text, word) {
				s.ginRemove(tid)
			}
		}
	case 10: // a key of another kind than its column's, which demotes it
		s.insert(s.oddKey(s.next))
	}
	return nil
}

// refRun is one distinct key of the reference: the key of its earliest
// entry and the TIDs in insertion order, which is what the tree reports.
type refRun struct {
	key  Key
	tids []heap.TID
}

func (s *indexScript) runs() []refRun {
	var runs []refRun
	for _, e := range s.ref {
		if n := len(runs); n > 0 && CompareKeys(runs[n-1].key, e.key) == 0 {
			runs[n-1].tids = append(runs[n-1].tids, e.tid)
		} else {
			runs = append(runs, refRun{e.key, []heap.TID{e.tid}})
		}
	}
	return runs
}

func collect(scan func(fn func([]heap.TID) bool)) [][]heap.TID {
	var got [][]heap.TID
	scan(func(tids []heap.TID) bool {
		got = append(got, slices.Clone(tids))
		return true
	})
	return got
}

func sameRuns(what string, got [][]heap.TID, want []refRun) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i].tids) {
			return fmt.Errorf("%s: key %d has %v, want %v %v", what, i, got[i], want[i].key, want[i].tids)
		}
	}
	return nil
}

// probeKey is a key of the tree's shape, or one of the reference's, with
// now and then one column of another kind (a float, a NULL, a string
// against int64 keys).
func (s *indexScript) probeKey(rng *rand.Rand) Key {
	next := func() byte { return byte(rng.Intn(256)) }
	key := s.genKey(next)
	if len(s.ref) > 0 && rng.Intn(2) == 0 {
		key = slices.Clone(s.ref[rng.Intn(len(s.ref))].key)
	}
	if rng.Intn(3) == 0 {
		key[rng.Intn(len(key))] = oddDatum(next())
	}
	return key
}

// boundKey is a Range bound: nil, one column (a prefix) or the width.
func (s *indexScript) boundKey(rng *rand.Rand) Key {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return s.probeKey(rng)[:1]
	default:
		return s.probeKey(rng)
	}
}

func (s *indexScript) compare(rng *rand.Rand) error {
	if err := s.bt.check(); err != nil {
		return err
	}
	if s.bt.Len() != len(s.ref) {
		return fmt.Errorf("Len %d, reference %d", s.bt.Len(), len(s.ref))
	}
	// the datums themselves, not Compare: int64(3) and float64(3) are one
	// run, and each entry keeps the datum it was inserted with
	for i, e := range s.bt.all() {
		if !slices.Equal(e.key, s.ref[i].key) || e.tid != s.ref[i].tid {
			return fmt.Errorf("entry %d is %v → %d, want %v → %d", i, e.key, e.tid, s.ref[i].key, s.ref[i].tid)
		}
	}
	runs := s.runs()
	if err := sameRuns("full Range", collect(func(fn func([]heap.TID) bool) { s.bt.Range(nil, nil, true, true, fn) }), runs); err != nil {
		return err
	}
	lo, hi := s.boundKey(rng), s.boundKey(rng)
	for _, incl := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		var want []refRun
		for _, r := range runs {
			cl, ch := CompareKeys(r.key, lo), CompareKeys(r.key, hi)
			if (lo == nil || cl > 0 || cl == 0 && incl[0]) &&
				(hi == nil || ch < 0 || incl[1] && (ch == 0 || HasPrefix(r.key, hi))) {
				want = append(want, r)
			}
		}
		what := fmt.Sprintf("Range(%v, %v, %v, %v)", lo, hi, incl[0], incl[1])
		got := collect(func(fn func([]heap.TID) bool) { s.bt.Range(lo, hi, incl[0], incl[1], fn) })
		if err := sameRuns(what, got, want); err != nil {
			return err
		}
	}
	probe := s.probeKey(rng)
	var want []refRun
	for _, r := range runs {
		if CompareKeys(r.key, probe) == 0 {
			want = append(want, r)
		}
	}
	if got := searchEqual(s.bt, probe); len(want) == 0 && got != nil || len(want) > 0 && !slices.Equal(got, want[0].tids) {
		return fmt.Errorf("SearchEqual(%v) = %v, want %v", probe, got, want)
	}
	want = want[:0]
	for _, r := range runs {
		if HasPrefix(r.key, probe[:1]) {
			want = append(want, r)
		}
	}
	if err := sameRuns(fmt.Sprintf("SearchPrefix(%v)", probe[:1]), collect(func(fn func([]heap.TID) bool) { s.bt.SearchPrefix(probe[:1], fn) }), want); err != nil {
		return err
	}
	return s.compareGIN()
}

func (s *indexScript) compareGIN() error {
	if s.gin.Len() != s.indexed {
		return fmt.Errorf("GIN Len %d, %d live texts have a trigram", s.gin.Len(), s.indexed)
	}
	if len(s.gin.posting) != len(s.grams) {
		return fmt.Errorf("GIN holds %d lists, the live texts have %d trigrams", len(s.gin.posting), len(s.grams))
	}
	for gram, l := range s.gin.posting {
		if err := l.check(); err != nil {
			return fmt.Errorf("list %q: %v", gramString(gram), err)
		}
	}
	for _, pattern := range fuzzLikes {
		need := patternTrigrams(pattern)
		got, usable := s.gin.Search(pattern)
		if usable != (len(need) > 0) {
			return fmt.Errorf("Search(%q) usable = %v", pattern, usable)
		}
		if !usable {
			continue
		}
		var want []heap.TID
		for tid, doc := range s.live {
			if !slices.ContainsFunc(need, func(g uint32) bool { _, found := slices.BinarySearch(doc.grams, g); return !found }) {
				want = append(want, tid)
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("Search(%q) = %d TIDs, want %d", pattern, len(got), len(want))
		}
	}
	return nil
}
