package vec

import (
	"strings"
	"testing"

	"citusgo/internal/expr"
	"citusgo/internal/types"
)

// BenchmarkVectorizedKernels compares each typed kernel, run over typed
// vectors, against its row-at-a-time equivalent (per-datum type assertion
// through the types.Datum interface, as the interpreted scan does). CI runs this
// with -benchtime=1x as a smoke test; run with the default benchtime to
// see the per-operator speedup the A5 ablation measures end to end.
func BenchmarkVectorizedKernels(b *testing.B) {
	const n = 10000
	ints := make([]types.Datum, n)
	floats := make([]types.Datum, n)
	discs := make([]types.Datum, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i % 100)
		floats[i] = float64(i%9000) + 0.25
		discs[i] = float64(i%11) / 100
	}
	intVec, floatVec, discVec := vecOf(ints...), vecOf(floats...), vecOf(discs...)

	b.Run("filter/vectorized", func(b *testing.B) {
		f := Filter{Op: Lt, K: int64(24)}
		var sel Sel
		for i := 0; i < b.N; i++ {
			sel = f.Apply(intVec, nil, sel)
		}
		if len(sel) == 0 {
			b.Fatal("empty selection")
		}
	})
	b.Run("filter/row-at-a-time", func(b *testing.B) {
		k := types.Datum(int64(24))
		var sel Sel
		for i := 0; i < b.N; i++ {
			sel = sel[:0]
			for j, d := range ints {
				if d == nil {
					continue
				}
				if types.Compare(d, k) < 0 {
					sel = append(sel, int32(j))
				}
			}
		}
		if len(sel) == 0 {
			b.Fatal("empty selection")
		}
	})

	b.Run("project/vectorized", func(b *testing.B) {
		cols := chunkOf(floatVec, discVec)
		e := Bin(Mul, Column(0, true), Column(1, true))
		var s Scratch
		var sink float64
		for i := 0; i < b.N; i++ {
			s.Reset()
			v, err := e.Eval(cols, n, nil, &s)
			if err != nil {
				b.Fatal(err)
			}
			sink = v.Floats[n-1]
		}
		_ = sink
	})
	b.Run("project/row-at-a-time", func(b *testing.B) {
		var sink types.Datum
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				a, bd := floats[j], discs[j]
				if a == nil || bd == nil {
					sink = nil
					continue
				}
				// the interpreted path boxes every product back into a Datum
				sink = a.(float64) * bd.(float64)
			}
		}
		_ = sink
	})

	b.Run("sum/vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := oneGroup(AggSum)
			if err := s.AddCol(floatVec, nil, nil); err != nil {
				b.Fatal(err)
			}
			if s.Result(0) == nil {
				b.Fatal("nil sum")
			}
		}
	})
	b.Run("sum/row-at-a-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := expr.NewAggState("sum", false)
			for _, d := range floats {
				if err := s.Add(d); err != nil {
					b.Fatal(err)
				}
			}
			if s.Result() == nil {
				b.Fatal("nil sum")
			}
		}
	})

	// The wide-group report (TPC-H Q1's shape): three key columns, 42
	// groups, four float folds and count(*).
	flags, status := []string{"A", "N", "R"}, []string{"F", "O"}
	keys := [3][]types.Datum{make([]types.Datum, n), make([]types.Datum, n), make([]types.Datum, n)}
	for i := 0; i < n; i++ {
		keys[0][i], keys[1][i], keys[2][i] = flags[i%3], status[i%2], int64(i%7+1)
	}
	b.Run("grouped/vectorized", func(b *testing.B) {
		chunk := chunkOf(vecOf(keys[0]...), vecOf(keys[1]...), vecOf(keys[2]...), floatVec, discVec)
		kinds := []AggKind{AggSum, AggSum, AggAvg, AggAvg}
		args := []int{3, 4, 3, 4}
		var ids []uint32
		for i := 0; i < b.N; i++ {
			d := NewGroupDict()
			ids = d.Encode(chunk, []int{0, 1, 2}, nil, n, ids)
			for a, kind := range kinds {
				g := NewGroupedAgg(kind)
				g.Grow(d.NumGroups())
				if err := g.AddCol(&chunk[args[a]], nil, ids); err != nil {
					b.Fatal(err)
				}
			}
			star := NewGroupedAgg(AggCount)
			star.Grow(d.NumGroups())
			star.AddStar(ids, n)
			if d.NumGroups() != 42 || star.Result(0) == nil {
				b.Fatalf("%d groups", d.NumGroups())
			}
		}
	})
	b.Run("grouped/row-at-a-time", func(b *testing.B) {
		names := []string{"sum", "sum", "avg", "avg", "count"}
		args := [][]types.Datum{floats, discs, floats, discs, ints}
		for i := 0; i < b.N; i++ {
			groups := map[string][]*expr.AggState{}
			var key strings.Builder
			for r := 0; r < n; r++ {
				// the interpreted aggregate's key: every key datum formatted
				key.Reset()
				for _, k := range keys {
					key.WriteString(types.Format(k[r]))
					key.WriteByte(0x1f)
				}
				states := groups[key.String()]
				if states == nil {
					for _, name := range names {
						st, _ := expr.NewAggState(name, false)
						states = append(states, st)
					}
					groups[key.String()] = states
				}
				for a, st := range states {
					if err := st.Add(args[a][r]); err != nil {
						b.Fatal(err)
					}
				}
			}
			if len(groups) != 42 {
				b.Fatalf("%d groups", len(groups))
			}
		}
	})
}
