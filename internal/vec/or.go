package vec

import (
	"strings"

	"citusgo/internal/types"
)

// OrFilter is a disjunction of single-column filters: each branch is an
// ordinary Filter kernel (col-vs-const comparison, BETWEEN, IS [NOT] NULL),
// and the disjunction's selection is the set union of the branch
// selections. SQL three-valued logic needs no special casing here: a branch
// whose predicate is NULL for a row simply does not select it, and
// `NULL OR true` rows are selected by whichever branch is true.
type OrFilter struct {
	Branches []Filter
}

func (f *OrFilter) String() string {
	parts := make([]string, len(f.Branches))
	for i := range f.Branches {
		parts[i] = f.Branches[i].String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// OrScratch holds the selection buffers one OrFilter application needs, so
// repeated per-chunk applications stop allocating. Not safe for concurrent
// use — each scan goroutine owns its own.
type OrScratch struct {
	branch, acc, swap Sel
}

// Apply evaluates the disjunction over one chunk: branches may touch
// different columns, so it takes the whole chunk. The result (appended to
// out[:0]) is the ascending union of the branch selections drawn from sel.
func (f *OrFilter) Apply(chunk []Vector, sel Sel, out Sel, sc *OrScratch) Sel {
	out = out[:0]
	acc := sc.acc[:0]
	for bi := range f.Branches {
		b := &f.Branches[bi]
		sc.branch = b.Apply(&chunk[b.Col], sel, sc.branch)
		if bi == 0 {
			acc = append(acc, sc.branch...)
			continue
		}
		sc.swap = unionSel(acc, sc.branch, sc.swap)
		acc, sc.swap = sc.swap, acc
	}
	sc.acc = acc[:0]
	return append(out, acc...)
}

// unionSel merges two ascending selections into out[:0], deduplicated.
func unionSel(a, b Sel, out Sel) Sel {
	out = out[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Skip reports whether chunk statistics prove the whole disjunction empty:
// every branch must independently prove no row can pass. stats resolves a
// column ordinal to its chunk min/max (ok=false when absent), mirroring
// how a conjunct consults StripeView.Stats.
func (f *OrFilter) Skip(stats func(col int) (min, max types.Datum, ok bool)) bool {
	for i := range f.Branches {
		min, max, ok := stats(f.Branches[i].Col)
		if !f.Branches[i].Skip(min, max, ok) {
			return false
		}
	}
	return true
}
