package index

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"sync"

	"citusgo/internal/heap"
)

// GIN is a trigram inverted index over a text expression, the equivalent of
// a pg_trgm GIN index. It answers [I]LIKE '%substring%' queries by
// intersecting the posting lists of the pattern's trigrams; matches must be
// rechecked against the heap (lossy, exactly like the real thing).
//
// A trigram is three bytes of [a-z0-9 ] packed into a uint32; its posting
// list is the ascending TIDs of the rows whose text has it, delta-packed
// as PostgreSQL's ginpostinglist.c packs them. The index keeps no copy of
// the text: Remove is given it again.
type GIN struct {
	mu      sync.RWMutex
	posting map[uint32]*postingList
	tuples  int
}

// ginBlockLen is the most TIDs one block of a posting list holds.
const ginBlockLen = 128

// postingList holds its TIDs in blocks of at most ginBlockLen. A block's
// head keeps its first and last TID, absolute, and where in data the
// uvarint gaps to its other entries begin; they end where the next block's
// begin. An in-order insert appends one gap, and an out-of-order insert or a
// remove rewrites one block; a search decodes one list and steps through
// the others, skipping whole blocks by their heads.
type postingList struct {
	data   []byte
	blocks []postingBlock
}

type postingBlock struct {
	first, last heap.TID
	off         uint32 // where the gap to the block's second entry is
	n           uint32 // entries
}

// NewGIN creates an empty trigram index.
func NewGIN() *GIN {
	return &GIN{posting: make(map[uint32]*postingList)}
}

func isAlnum(c byte) bool { return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }

func pack(a, b, c byte) uint32 { return uint32(a)<<16 | uint32(b)<<8 | uint32(c) }

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c | 0x20
	}
	return c
}

// text is what the index is given: a string, or the bytes of one.
type text interface{ ~string | ~[]byte }

func isASCII[T text](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// eachTrigram calls fn with the lower-cased trigrams of s in text order, once
// per occurrence: a trigram the text repeats comes as often as it occurs.
// pg_trgm's padding convention applies (two leading and one trailing space
// per word; a word is a run of letters and digits). ASCII text, the common
// case, is folded byte by byte; only other text pays for strings.ToLower,
// after which the bytes of its multi-byte runes separate words like any
// other non-alphanumeric. Nothing is collected, so nothing is sorted or
// allocated, however long the text.
func eachTrigram[T text](s T, fn func(gram uint32)) {
	if !isASCII(s) {
		eachWordTrigram(strings.ToLower(string(s)), fn)
		return
	}
	eachWordTrigram(s, fn)
}

func eachWordTrigram[T text](s T, fn func(gram uint32)) {
	a, b := byte(' '), byte(' ')
	inWord := false
	for i := 0; i < len(s); i++ {
		c := lowerASCII(s[i])
		if isAlnum(c) {
			fn(pack(a, b, c))
			a, b, inWord = b, c, true
		} else if inWord {
			fn(pack(a, b, ' '))
			a, b, inWord = ' ', ' ', false
		}
	}
	if inWord {
		fn(pack(a, b, ' '))
	}
}

// Insert indexes text under tid. Rows usually arrive in TID order (COPY,
// index build), which makes every posting an append; a trigram the text
// repeats finds tid already last in its list and costs one comparison.
func (g *GIN) Insert(text string, tid heap.TID) { insertText(g, text, tid) }

// InsertBytes is Insert for text held in bytes.
func (g *GIN) InsertBytes(text []byte, tid heap.TID) { insertText(g, text, tid) }

// insertText and removeText take the lock before extracting: handing each
// trigram over as it comes costs less than collecting a row's first.
func insertText[T text](g *GIN, text T, tid heap.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	added := false
	eachTrigram(text, func(gram uint32) {
		l := g.posting[gram]
		if l == nil {
			l = &postingList{}
			g.posting[gram] = l
		}
		added = l.insert(tid) || added
	})
	if added {
		g.tuples++
	}
}

// Remove drops tid, which was inserted with text, from the index. A trigram
// the text repeats finds tid gone the second time.
func (g *GIN) Remove(text string, tid heap.TID) { removeText(g, text, tid) }

// RemoveBytes is Remove for text held in bytes.
func (g *GIN) RemoveBytes(text []byte, tid heap.TID) { removeText(g, text, tid) }

func removeText[T text](g *GIN, text T, tid heap.TID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := false
	eachTrigram(text, func(gram uint32) {
		l := g.posting[gram]
		if l == nil || !l.remove(tid) {
			return
		}
		removed = true
		if len(l.blocks) == 0 {
			delete(g.posting, gram)
		}
	})
	if removed {
		g.tuples--
	}
}

// Len returns the number of indexed tuples: those with at least one
// trigram, the only ones a search can return.
func (g *GIN) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.tuples
}

// patternTrigrams extracts searchable trigrams from the literal runs of a
// LIKE pattern (%, _ are wildcards). Runs shorter than 3 characters yield
// no trigrams.
func patternTrigrams(pattern string) []uint32 {
	var grams []uint32
	for _, run := range strings.FieldsFunc(pattern, func(r rune) bool {
		return r == '%' || r == '_'
	}) {
		// interior trigrams only: the run may start/end mid-word, so padded
		// boundary trigrams would be wrong
		lower := strings.ToLower(run)
		for i := 0; i+3 <= len(lower); i++ {
			if isAlnum(lower[i]) && isAlnum(lower[i+1]) && isAlnum(lower[i+2]) {
				grams = append(grams, pack(lower[i], lower[i+1], lower[i+2]))
			}
		}
	}
	return grams
}

// Search returns candidate TIDs, ascending, for a LIKE pattern by
// intersecting trigram posting lists. usable=false means the pattern has no
// extractable trigrams and the caller must fall back to a sequential scan.
func (g *GIN) Search(pattern string) (candidates []heap.TID, usable bool) {
	grams := patternTrigrams(pattern)
	if len(grams) == 0 {
		return nil, false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	lists := make([]*postingList, len(grams))
	for i, gram := range grams {
		if lists[i] = g.posting[gram]; lists[i] == nil {
			return nil, true // some trigram absent: no matches at all
		}
	}
	// decode the rarest list; every other one only filters what is left of it
	slices.SortFunc(lists, func(a, b *postingList) int { return a.len() - b.len() })
	candidates = make([]heap.TID, 0, lists[0].len())
	for b := range lists[0].blocks {
		candidates = lists[0].appendBlock(candidates, b)
	}
	for _, l := range lists[1:] {
		c := postingCursor{l: l, pos: -1}
		kept := candidates[:0]
		for _, tid := range candidates {
			if c.seek(tid) {
				kept = append(kept, tid)
			}
		}
		candidates = kept
	}
	return candidates, true
}

func (l *postingList) len() int {
	n := 0
	for _, b := range l.blocks {
		n += int(b.n)
	}
	return n
}

// end returns where block b's gaps end in data.
func (l *postingList) end(b int) int {
	if b+1 < len(l.blocks) {
		return int(l.blocks[b+1].off)
	}
	return len(l.data)
}

// appendBlock appends block b's TIDs to dst.
func (l *postingList) appendBlock(dst []heap.TID, b int) []heap.TID {
	tid := l.blocks[b].first
	dst = append(dst, tid)
	for data := l.data[l.blocks[b].off:l.end(b)]; len(data) > 0; {
		gap, k := binary.Uvarint(data)
		tid += heap.TID(gap)
		dst = append(dst, tid)
		data = data[k:]
	}
	return dst
}

// insert adds tid, reporting whether it was absent.
func (l *postingList) insert(tid heap.TID) bool {
	if len(l.blocks) == 0 {
		l.blocks = append(l.blocks, postingBlock{first: tid, last: tid, n: 1})
		return true
	}
	last := &l.blocks[len(l.blocks)-1]
	switch {
	case tid == last.last: // the row's trigram again: answered before any decoding
		return false
	case tid > last.last && last.n < ginBlockLen:
		l.data = binary.AppendUvarint(l.data, uint64(tid-last.last))
		last.last = tid
		last.n++
		return true
	case tid > last.last:
		l.blocks = append(l.blocks, postingBlock{first: tid, last: tid, off: uint32(len(l.data)), n: 1})
		return true
	}
	// out of order: into the last block starting at or below tid
	b := max(sort.Search(len(l.blocks), func(i int) bool { return l.blocks[i].first > tid })-1, 0)
	var stack [ginBlockLen + 1]heap.TID
	tids := l.appendBlock(stack[:0], b)
	i, found := slices.BinarySearch(tids, tid)
	if found {
		return false
	}
	l.rewrite(b, slices.Insert(tids, i, tid))
	return true
}

// remove drops tid, reporting whether it was there.
func (l *postingList) remove(tid heap.TID) bool {
	b := sort.Search(len(l.blocks), func(i int) bool { return l.blocks[i].last >= tid })
	if b == len(l.blocks) || l.blocks[b].first > tid {
		return false
	}
	var stack [ginBlockLen]heap.TID
	tids := l.appendBlock(stack[:0], b)
	i, found := slices.BinarySearch(tids, tid)
	if !found {
		return false
	}
	l.rewrite(b, slices.Delete(tids, i, i+1))
	return true
}

// rewrite re-encodes block b as tids, ascending and at most ginBlockLen+1
// of them: no tids drop the block, and ginBlockLen+1 split it in halves.
func (l *postingList) rewrite(b int, tids []heap.TID) {
	var heads [2]postingBlock
	var enc [(ginBlockLen + 1) * binary.MaxVarintLen64]byte
	off, end := int(l.blocks[b].off), l.end(b)
	buf, nb := enc[:0], 0
	for half := len(tids) / 2; len(tids) > 0; nb++ {
		m := len(tids)
		if m > ginBlockLen {
			m = half
		}
		heads[nb] = postingBlock{first: tids[0], last: tids[m-1], off: uint32(off + len(buf)), n: uint32(m)}
		for i := 1; i < m; i++ {
			buf = binary.AppendUvarint(buf, uint64(tids[i]-tids[i-1]))
		}
		tids = tids[m:]
	}
	l.data = slices.Replace(l.data, off, end, buf...)
	l.blocks = slices.Replace(l.blocks, b, b+1, heads[:nb]...)
	for j := b + nb; j < len(l.blocks); j++ {
		l.blocks[j].off = uint32(int(l.blocks[j].off) + len(buf) - (end - off))
	}
}

// postingCursor steps forward through a posting list.
type postingCursor struct {
	l   *postingList
	b   int      // the block the cursor is in
	pos int      // where the next gap is in data; -1 before the block's first entry
	tid heap.TID // the entry the cursor is at
}

// seek advances the cursor to the first entry >= tid, which must not be
// below the one it is at, and reports whether that entry is tid. Blocks
// ending below tid are skipped by their heads, undecoded.
func (c *postingCursor) seek(tid heap.TID) bool {
	blocks := c.l.blocks
	if c.b < len(blocks) && blocks[c.b].last < tid {
		for c.b++; c.b < len(blocks) && blocks[c.b].last < tid; c.b++ {
		}
		c.pos = -1
	}
	if c.b == len(blocks) {
		return false
	}
	if c.pos < 0 {
		c.tid, c.pos = blocks[c.b].first, int(blocks[c.b].off)
	}
	data := c.l.data
	for c.tid < tid {
		if g := data[c.pos]; g < 0x80 {
			c.tid += heap.TID(g)
			c.pos++
		} else {
			gap, k := binary.Uvarint(data[c.pos:])
			c.tid += heap.TID(gap)
			c.pos += k
		}
	}
	return c.tid == tid
}
