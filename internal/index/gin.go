package index

import (
	"slices"
	"strings"
	"sync"

	"citusgo/internal/heap"
)

// GIN is a trigram inverted index over a text expression, the equivalent of
// a pg_trgm GIN index. It answers [I]LIKE '%substring%' queries by
// intersecting the posting lists of the pattern's trigrams; matches must be
// rechecked against the heap (lossy, exactly like the real thing).
//
// A trigram is three bytes of [a-z0-9 ] packed into a uint32; a posting
// list is the ascending TIDs of the rows whose text has that trigram. The
// index keeps no copy of the text: Remove is given it again.
type GIN struct {
	mu      sync.RWMutex
	posting map[uint32][]heap.TID
	tuples  int
}

// NewGIN creates an empty trigram index.
func NewGIN() *GIN {
	return &GIN{posting: make(map[uint32][]heap.TID)}
}

func isAlnum(c byte) bool { return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' }

func pack(a, b, c byte) uint32 { return uint32(a)<<16 | uint32(b)<<8 | uint32(c) }

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c | 0x20
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// appendTrigrams returns the lower-cased trigram set of s, ascending and
// without duplicates, built in the empty slice dst (which lends a caller's
// stack buffer), using pg_trgm's padding convention (two leading and
// one trailing space per word; a word is a run of letters and digits).
// ASCII text, the common case, is folded byte by byte; only other text pays
// for strings.ToLower, after which the bytes of its multi-byte runes
// separate words like any other non-alphanumeric.
func appendTrigrams(dst []uint32, s string) []uint32 {
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	a, b := byte(' '), byte(' ')
	inWord := false
	for i := 0; i < len(s); i++ {
		c := lowerASCII(s[i])
		if isAlnum(c) {
			dst = append(dst, pack(a, b, c))
			a, b, inWord = b, c, true
		} else if inWord {
			dst = append(dst, pack(a, b, ' '))
			a, b, inWord = ' ', ' ', false
		}
	}
	if inWord {
		dst = append(dst, pack(a, b, ' '))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// Insert indexes text under tid. Rows usually arrive in TID order (COPY,
// index build), which makes every posting an append.
func (g *GIN) Insert(text string, tid heap.TID) {
	var stack [128]uint32
	grams := appendTrigrams(stack[:0], text)
	g.mu.Lock()
	defer g.mu.Unlock()
	added := false
	for _, gram := range grams {
		list := g.posting[gram]
		if n := len(list); n == 0 || list[n-1] < tid {
			g.posting[gram] = append(list, tid)
			added = true
		} else if i, found := slices.BinarySearch(list, tid); !found {
			g.posting[gram] = slices.Insert(list, i, tid)
			added = true
		}
	}
	if added {
		g.tuples++
	}
}

// Remove drops tid, which was inserted with text, from the index.
func (g *GIN) Remove(text string, tid heap.TID) {
	var stack [128]uint32
	grams := appendTrigrams(stack[:0], text)
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := false
	for _, gram := range grams {
		list := g.posting[gram]
		i, found := slices.BinarySearch(list, tid)
		if !found {
			continue
		}
		removed = true
		if len(list) == 1 {
			delete(g.posting, gram)
		} else {
			g.posting[gram] = slices.Delete(list, i, i+1)
		}
	}
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
	lists := make([][]heap.TID, len(grams))
	for i, gram := range grams {
		if lists[i] = g.posting[gram]; len(lists[i]) == 0 {
			return nil, true // some trigram absent: no matches at all
		}
	}
	// merge from the rarest list: every pass is bounded by what is left of it
	slices.SortFunc(lists, func(a, b []heap.TID) int { return len(a) - len(b) })
	candidates = slices.Clone(lists[0])
	for _, list := range lists[1:] {
		kept := candidates[:0]
		for _, tid := range candidates {
			i, found := seek(list, tid)
			if found {
				kept = append(kept, tid)
			}
			list = list[i:]
		}
		candidates = kept
	}
	return candidates, true
}

// seek finds tid in an ascending list as slices.BinarySearch does, but
// probes from the front in doubling steps first: merging two lists of
// similar length costs a step or two per element, a short list against a
// long one the logarithm of each gap.
func seek(list []heap.TID, tid heap.TID) (int, bool) {
	hi := 1
	for hi < len(list) && list[hi-1] < tid {
		hi <<= 1
	}
	lo := hi >> 1 // everything before lo is below tid
	i, found := slices.BinarySearch(list[lo:min(hi, len(list))], tid)
	return lo + i, found
}
