package vec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"citusgo/internal/types"
)

// vectorOf appends the datums to a new vector.
func vectorOf(ds ...types.Datum) Vector {
	var v Vector
	for _, d := range ds {
		v.Append(d)
	}
	return v
}

// TestAppendRowsAndColumn: rows copied from vector to vector — whole, by a
// selection, by a match list that repeats and reorders — and columns built
// from stored rows read back as the datums they were, for every pairing of
// kinds: typed into the same type, into an empty vector, into one that holds
// only NULLs, and into one of another type, which demotes.
func TestAppendRowsAndColumn(t *testing.T) {
	ts := func(h int) time.Time { return time.Date(2024, 5, 1, h, 0, 0, 0, time.UTC) }
	doc := struct{ doc string }{"jsonb stands here"}
	columns := map[string][]types.Datum{
		"int":     {int64(3), nil, int64(-7), int64(3), int64(1 << 40)},
		"float":   {1.5, 2.5, nil, -0.0, 1.5},
		"string":  {"a", "b", "a", nil, "c"},
		"strings": {"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s1"}, // past dictLinear
		"time":    {ts(1), ts(2), nil, ts(1), ts(3)},
		"bool":    {true, nil, false, true, true},
		"null":    {nil, nil, nil},
		"boxed":   {doc, int64(1), nil, "x", 2.5},
	}
	pick := func(ds []types.Datum, idx Sel) []types.Datum {
		if idx == nil {
			return ds
		}
		out := make([]types.Datum, len(idx))
		for j, i := range idx {
			out[j] = ds[i]
		}
		return out
	}
	for srcName, src := range columns {
		sv := vectorOf(src...)
		for _, idx := range []Sel{nil, {0, 2}, {2, 0, 0, 1, 2}, {}} {
			for dstName, dst := range columns {
				name := fmt.Sprintf("%s%v onto %s", srcName, idx, dstName)
				dv := vectorOf(dst...)
				dv.AppendRows(&sv, idx)
				want := append(append([]types.Datum{}, dst...), pick(src, idx)...)
				if got := datumsOf(t, &dv); !reflect.DeepEqual(got, want) {
					t.Fatalf("AppendRows %s: %v, want %v", name, got, want)
				}
				if dv.Len() != len(want) {
					t.Fatalf("AppendRows %s: Len %d, want %d", name, dv.Len(), len(want))
				}
				// and src is as it was
				if got := datumsOf(t, &sv); !reflect.DeepEqual(got, src) {
					t.Fatalf("AppendRows %s changed its source: %v", name, got)
				}

				// the same rows, from stored rows of two columns
				rows := make([]types.Row, len(src))
				for i, d := range src {
					rows[i] = types.Row{int64(i), d}
				}
				rows = append(rows, types.Row{int64(99)}) // a short row reads as NULL
				cv := vectorOf(dst...)
				cv.Reserve(3) // room, which changes nothing that is read
				sel := idx
				if sel == nil {
					sel = MaterializeAll(len(src), nil)
				}
				appendColumn(&cv, rows, 1, append(sel, int32(len(src))))
				if got := datumsOf(t, &cv); !reflect.DeepEqual(got, append(want, nil)) {
					t.Fatalf("Append of a column %s: %v, want %v and a NULL", name, got, want)
				}
			}
		}
	}

	// a scratch vector that is Reset takes rows of any kind again, in the
	// storage it has
	var scratch Vector
	for _, name := range []string{"int", "string", "null", "float", "boxed", "int"} {
		scratch.Reset()
		rows := make([]types.Row, len(columns[name]))
		for i, d := range columns[name] {
			rows[i] = types.Row{d}
		}
		appendColumn(&scratch, rows, 0, nil)
		if got := datumsOf(t, &scratch); !reflect.DeepEqual(got, columns[name]) {
			t.Fatalf("after Reset, %s reads back %v", name, got)
		}
	}

	// appending to a view never writes into the vector it was taken from
	live := vectorOf(int64(1), int64(2), int64(3))
	var view, taken Vector
	live.RangeInto(&view, 1, 3)
	taken = view
	taken.AppendRows(&live, Sel{0})
	if got := datumsOf(t, &live); !reflect.DeepEqual(got, []types.Datum{int64(1), int64(2), int64(3)}) {
		t.Fatalf("appending to a view changed the vector it views: %v", got)
	}
}

// refJoin is the nested-loop oracle: the pairs of rows whose keys are equal
// by GroupDict's identity (same type, same bits), no key NULL, ordered by
// left row and then right row.
func refJoin(left, right [][]types.Datum) (l, r []int32) {
	key := func(cols [][]types.Datum, i int) (string, bool) {
		s := ""
		for _, c := range cols {
			if c[i] == nil {
				return "", false
			}
			switch x := c[i].(type) {
			case time.Time:
				s += fmt.Sprintf("t%d|", x.UnixNano())
			default:
				s += fmt.Sprintf("%T%v|", x, x)
			}
		}
		return s, true
	}
	for i := range left[0] {
		lk, ok := key(left, i)
		if !ok {
			continue
		}
		for j := range right[0] {
			if rk, ok := key(right, j); ok && rk == lk {
				l, r = append(l, int32(i)), append(r, int32(j))
			}
		}
	}
	return l, r
}

// TestJoinTableMatchesNestedLoop: a table built on either side finds the
// nested loop's pairs — in its order, once SortPairs has put a left-built
// join's matches back — for one key and two, of every kind, with NULLs,
// duplicates on both sides, keys only one side holds, an empty side, and a
// boxed probe column against typed keys.
func TestJoinTableMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := func(d int) types.Datum { return time.Date(2024, 1, 1+d, 0, 0, 0, 0, time.UTC) }
	gens := map[string]func() types.Datum{
		"int":    func() types.Datum { return int64(rng.Intn(12)) * 1000003 },
		"time":   func() types.Datum { return ts(rng.Intn(12)) },
		"string": func() types.Datum { return fmt.Sprintf("k%d", rng.Intn(12)) },
		"float":  func() types.Datum { return float64(rng.Intn(12)) / 2 },
		"bool":   func() types.Datum { return rng.Intn(2) == 0 },
		// a column that has held two types: the typed side's values among them
		"mixed": func() types.Datum {
			if rng.Intn(3) == 0 {
				return fmt.Sprintf("k%d", rng.Intn(12))
			}
			return int64(rng.Intn(12)) * 1000003
		},
	}
	column := func(kind string, n int, nulls bool) []types.Datum {
		ds := make([]types.Datum, n)
		for i := range ds {
			if !nulls || rng.Intn(6) != 0 {
				ds[i] = gens[kind]()
			}
		}
		return ds
	}
	for _, tc := range []struct {
		name        string
		left, right []string // the key columns' kinds
	}{
		{"int", []string{"int"}, []string{"int"}},
		{"time", []string{"time"}, []string{"time"}},
		{"string", []string{"string"}, []string{"string"}},
		{"float", []string{"float"}, []string{"float"}},
		{"bool", []string{"bool"}, []string{"bool"}},
		{"int and string", []string{"int", "string"}, []string{"int", "string"}},
		{"time and int", []string{"time", "int"}, []string{"time", "int"}},
		{"int keys, boxed probe", []string{"int"}, []string{"mixed"}},
		{"boxed keys, int probe", []string{"mixed"}, []string{"int"}},
		{"int keys, time probe", []string{"int"}, []string{"time"}},
	} {
		for _, sizes := range [][2]int{{40, 9}, {9, 40}, {25, 25}, {0, 10}, {10, 0}, {300, 700}} {
			for _, nulls := range []bool{false, true} {
				name := fmt.Sprintf("%s %dx%d nulls=%v", tc.name, sizes[0], sizes[1], nulls)
				var left, right [][]types.Datum
				var lv, rv []Vector
				var keys []int
				for k := range tc.left {
					left = append(left, column(tc.left[k], sizes[0], nulls))
					right = append(right, column(tc.right[k], sizes[1], nulls))
					lv, rv = append(lv, vectorOf(left[k]...)), append(rv, vectorOf(right[k]...))
					keys = append(keys, k)
				}
				wantL, wantR := refJoin(left, right)

				// built on the right, probed with the left: the pairs as they come
				gotL, gotR := NewJoinTable(rv, keys, sizes[1]).Probe(lv, keys, sizes[0], nil, nil)
				if !reflect.DeepEqual(gotL, wantL) || !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("%s, built on the right: pairs %v %v, want %v %v", name, gotL, gotR, wantL, wantR)
				}
				// built on the left, probed with the right, and sorted back
				gotR, gotL = NewJoinTable(lv, keys, sizes[0]).Probe(rv, keys, sizes[1], nil, nil)
				gotL, gotR = SortPairs(gotL, gotR, sizes[0])
				if len(wantL) == 0 {
					wantL, wantR = []int32{}, []int32{}
				}
				if !reflect.DeepEqual(gotL, wantL) || !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("%s, built on the left: pairs %v %v, want %v %v", name, gotL, gotR, wantL, wantR)
				}
			}
		}
	}
}

// TestGroupDictFreeze: a frozen dictionary gives known keys their groups and
// every other key NoGroup — a value no column has seen, and a combination of
// seen values no key had — and learns nothing from being asked, in the
// direct-address table and in the hashed one.
func TestGroupDictFreeze(t *testing.T) {
	for _, n := range []int{20, 5000} { // 5000 × 5000 composites: hashed
		a, b := make([]types.Datum, n), make([]types.Datum, n)
		for i := range a {
			a[i], b[i] = int64(i), fmt.Sprintf("s%d", i)
		}
		cols := []Vector{vectorOf(a...), vectorOf(b...)}
		d := NewGroupDict()
		d.Encode(cols, []int{0, 1}, nil, n, nil)
		d.Freeze()
		probe := []Vector{
			vectorOf(int64(3), int64(3), int64(n+7), int64(0), nil),
			vectorOf("s3", "s4", "s3", "nobody", "s1"),
		}
		for round := 0; round < 2; round++ {
			got := d.Encode(probe, []int{0, 1}, nil, 5, nil)
			if want := []uint32{3, NoGroup, NoGroup, NoGroup, NoGroup}; !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d round %d: frozen Encode gave %v, want %v", n, round, got, want)
			}
			if d.NumGroups() != n {
				t.Fatalf("n=%d: a frozen dictionary grew to %d groups", n, d.NumGroups())
			}
		}
	}
}

// appendColumn appends column col of rows sel (all of them when sel is nil)
// datum by datum, NULL where a row is shorter.
func appendColumn(v *Vector, rows []types.Row, col int, sel Sel) {
	for j := 0; j < selLen(sel, len(rows)); j++ {
		var d types.Datum
		if r := rows[sel.at(j)]; col < len(r) {
			d = r[col]
		}
		v.Append(d)
	}
}
