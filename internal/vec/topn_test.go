package vec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"citusgo/internal/types"
)

// topnChunk is one chunk of a single key column with its true statistics.
type topnChunk struct {
	col      []types.Datum
	sel      Sel // rows the WHERE filters left (nil = all)
	min, max types.Datum
	statsOK  bool
	hasNulls bool
}

func makeTopNChunks(rng *rand.Rand, gen func() types.Datum, nullPct int) []topnChunk {
	chunks := make([]topnChunk, 1+rng.Intn(12))
	for ci := range chunks {
		c := &chunks[ci]
		c.col = make([]types.Datum, 1+rng.Intn(60))
		for i := range c.col {
			if rng.Intn(100) < nullPct {
				c.hasNulls = true
				continue
			}
			v := gen()
			c.col[i] = v
			if !c.statsOK || types.Compare(v, c.min) < 0 {
				c.min = v
			}
			if !c.statsOK || types.Compare(v, c.max) > 0 {
				c.max = v
			}
			c.statsOK = true
		}
		if rng.Intn(3) == 0 {
			c.sel = Sel{}
			for i := range c.col {
				if rng.Intn(2) == 0 {
					c.sel = append(c.sel, int32(i))
				}
			}
		}
	}
	return chunks
}

// TestTopNBoundIsExact drives the bound over random chunked columns and
// checks the one property the planner relies on: no row whose key is among
// the k best distinct keys of the input is ever cut — by Apply or by a
// stripe Skip — for either direction, with and without NULL keys.
func TestTopNBoundIsExact(t *testing.T) {
	epoch := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	gens := map[string]func(*rand.Rand) types.Datum{
		"int":  func(r *rand.Rand) types.Datum { return int64(r.Intn(40)) },
		"text": func(r *rand.Rand) types.Datum { return fmt.Sprintf("k%02d", r.Intn(40)) },
		"time": func(r *rand.Rand) types.Datum { return epoch.Add(time.Duration(r.Intn(40)) * time.Hour) },
		// a column that holds two types is a KindGeneric vector
		"mixed": func(r *rand.Rand) types.Datum {
			if r.Intn(2) == 0 {
				return int64(r.Intn(40))
			}
			return float64(r.Intn(40)) + 0.5
		},
	}
	totalCut := 0
	for name, gen := range gens {
		for seed := int64(0); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			desc := rng.Intn(2) == 0
			k := []int{1, 2, 3, 10, 100}[rng.Intn(5)]
			nullPct := []int{0, 0, 10, 60}[rng.Intn(4)]
			chunks := makeTopNChunks(rng, func() types.Datum { return gen(rng) }, nullPct)

			// the k best distinct keys of the selected input
			var keys []types.Datum
			for _, c := range chunks {
				forSel(c.sel, len(c.col), func(i int) { keys = append(keys, c.col[i]) })
			}
			sort.Slice(keys, func(i, j int) bool {
				if desc {
					return types.Compare(keys[i], keys[j]) > 0
				}
				return types.Compare(keys[i], keys[j]) < 0
			})
			var best []types.Datum
			for _, v := range keys {
				if len(best) > 0 && types.Compare(best[len(best)-1], v) == 0 {
					continue
				}
				if len(best) == k {
					break
				}
				best = append(best, v)
			}
			inBest := func(v types.Datum) bool {
				for _, b := range best {
					if types.Compare(b, v) == 0 {
						return true
					}
				}
				return false
			}

			b := NewTopNBound(0, desc, k)
			for ci, c := range chunks {
				kept := map[int]bool{}
				if !b.Skip(c.min, c.max, c.statsOK, c.hasNulls) {
					out, cut := b.Apply(chunkOf(vecOf(c.col...)), c.hasNulls, c.sel, len(c.col))
					forSel(out, len(c.col), func(i int) { kept[i] = true })
					in := len(c.col)
					if c.sel != nil {
						in = len(c.sel)
					}
					if in-len(kept) != cut {
						t.Fatalf("%s seed %d chunk %d: Apply reported %d cut, selection lost %d", name, seed, ci, cut, in-len(kept))
					}
				}
				forSel(c.sel, len(c.col), func(i int) {
					if kept[i] {
						return
					}
					totalCut++
					if inBest(c.col[i]) {
						t.Fatalf("%s seed %d (desc=%v k=%d) chunk %d: row %d with key %v was cut but is among the %d best keys %v",
							name, seed, desc, k, ci, i, c.col[i], k, best)
					}
				})
			}
		}
	}
	if totalCut == 0 {
		t.Fatal("the bound never cut a row")
	}
}

func forSel(sel Sel, n int, fn func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range sel {
		fn(int(i))
	}
}

// TestTopNBoundTightensWithinChunk: the rows of one chunk already bound it,
// ascending NULLs hold a place and pass, descending NULLs are cut.
func TestTopNBoundTightensWithinChunk(t *testing.T) {
	col := []types.Datum{int64(5), nil, int64(1), int64(9), int64(3), int64(1), nil, int64(7)}
	asc := NewTopNBound(0, false, 3) // best keys: NULL, 1, 3
	sel, cut := asc.Apply(chunkOf(vecOf(col...)), true, nil, len(col))
	if want := (Sel{1, 2, 4, 5, 6}); fmt.Sprint(sel) != fmt.Sprint(want) || cut != 3 {
		t.Fatalf("ascending: kept %v cut %d, want %v cut 3", sel, cut, want)
	}
	if asc.Skip(int64(4), int64(9), true, true) {
		t.Fatal("ascending: skipped a stripe that holds NULL keys")
	}
	if !asc.Skip(int64(4), int64(9), true, false) {
		t.Fatal("ascending: kept a stripe whose smallest key 4 is behind the bound 3")
	}
	desc := NewTopNBound(0, true, 3) // best keys: 9, 7, 5
	sel, cut = desc.Apply(chunkOf(vecOf(col...)), true, nil, len(col))
	if want := (Sel{0, 3, 7}); fmt.Sprint(sel) != fmt.Sprint(want) || cut != 5 {
		t.Fatalf("descending: kept %v cut %d, want %v cut 5", sel, cut, want)
	}
	if !desc.Skip(int64(1), int64(4), true, true) {
		t.Fatal("descending: kept a stripe whose largest key 4 is behind the bound 5")
	}
}
