package vec

// TextMatcher decides LIKE or ILIKE for one text against a prepared pattern.
// The engine hands in the row evaluator's own (expr.LikePattern), so a row
// passes here exactly when it passes there.
type TextMatcher interface {
	MatchBytes(b []byte) bool
}

// LikeFilter is text [NOT] LIKE pattern as a filter kernel. NULL texts never
// pass, negated or not.
type LikeFilter struct {
	M   TextMatcher
	Not bool
}

// ApplyText filters n rows whose texts are in no vector: text writes row i's
// into a buffer of its own and returns it, good until the next call, with
// false for a NULL. This is how an expression's text is matched without ever
// becoming a string.
func (f *LikeFilter) ApplyText(n int, sel Sel, out Sel, text func(i int) ([]byte, bool)) Sel {
	m := selLen(sel, n)
	out = growSel(out, m)
	k := 0
	for j := 0; j < m; j++ {
		i := sel.at(j)
		if t, ok := text(i); ok && f.M.MatchBytes(t) != f.Not {
			out[k] = int32(i)
			k++
		}
	}
	return out[:k]
}
