package vec

import (
	"math"
	"testing"
	"time"

	"citusgo/internal/expr"
	"citusgo/internal/types"
)

func TestGroupDictEncodeFirstSeenOrder(t *testing.T) {
	d := NewGroupDict()
	flag := vecOf("R", "A", "R", nil, "A", "R", nil)
	num := vecOf(int64(1), int64(2), int64(1), int64(1), int64(2), int64(9), int64(1))
	chunk := chunkOf(flag, num)

	ids := d.Encode(chunk, []int{0, 1}, nil, flag.Len(), nil)
	want := []uint32{0, 1, 0, 2, 1, 3, 2}
	if len(ids) != len(want) {
		t.Fatalf("ids len %d, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %d, want %d (full: %v)", i, ids[i], want[i], ids)
		}
	}
	if d.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", d.NumGroups())
	}
	// representative keys keep first-seen datums
	if k := d.Key(2); k[0] != nil || k[1] != int64(1) {
		t.Fatalf("Key(2) = %v", k)
	}

	// a second chunk reuses existing IDs and extends the dictionary
	ids = d.Encode(chunkOf(vecOf("A", "Z"), vecOf(int64(2), int64(2))), []int{0, 1}, nil, 2, ids)
	if ids[0] != 1 || ids[1] != 4 {
		t.Fatalf("second chunk ids = %v, want [1 4]", ids)
	}
}

func TestGroupDictSelAndIntern(t *testing.T) {
	d := NewGroupDict()
	col := vecOf(int64(10), int64(20), int64(10), int64(30))
	ids := d.Encode(chunkOf(col), []int{0}, Sel{1, 2, 3}, col.Len(), nil)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("ids = %v", ids)
	}
	// Intern of an existing representative finds the same slot; a new key
	// extends the dictionary — the cross-partial merge contract.
	if id := d.Intern(types.Row{int64(10)}); id != 1 {
		t.Fatalf("Intern(10) = %d, want 1", id)
	}
	if id := d.Intern(types.Row{int64(40)}); id != 3 {
		t.Fatalf("Intern(40) = %d, want 3", id)
	}
}

// TestGroupDictTypeTags proves the encoding cannot confuse values of
// different types or concatenations across column boundaries.
func TestGroupDictTypeTags(t *testing.T) {
	d := NewGroupDict()
	ts := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := [][]types.Datum{
		{int64(1), "x"},
		{float64(1), "x"},           // int 1 vs float 1.0 group separately (distinct datums)
		{"1", "x"},                  // text "1" likewise
		{true, "x"},                 // bool
		{ts, "x"},                   // time
		{nil, "x"},                  // NULL key
		{int64(1), "x"},             // dup of row 0
		{"ab", "c"},                 // composite boundary:
		{"a", "bc"},                 //   "ab","c" must differ from "a","bc"
		{math.NaN(), "x"},           // NaN groups with NaN
		{math.NaN(), "x"},           //   (one slot for all NaN rows)
		{math.Copysign(0, -1), "x"}, // -0.0 is its own group,
		{float64(0), "x"},           //   distinct from +0.0 (like the row path)
	}
	cols := make([]Vector, 2)
	for _, r := range rows {
		cols[0].Append(r[0])
		cols[1].Append(r[1])
	}
	ids := d.Encode(cols, []int{0, 1}, nil, len(rows), nil)
	want := []uint32{0, 1, 2, 3, 4, 5, 0, 6, 7, 8, 8, 9, 10}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %d, want %d (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

// TestGroupedAggMatchesAggState folds the same stream through GroupedAgg —
// as one mixed-type column, which is a KindGeneric vector, and as a run of
// typed chunks — and through the row path's expr.AggState per group, and
// expects identical results, including the int→float sum promotion point.
func TestGroupedAggMatchesAggState(t *testing.T) {
	vals := []types.Datum{
		int64(3), nil, int64(4), float64(0.5), int64(2),
		float64(1.25), nil, int64(7), int64(1), float64(-2),
	}
	ids := []uint32{0, 0, 1, 0, 1, 1, 1, 0, 2, 2}
	for _, name := range []string{"count", "sum", "min", "max", "avg"} {
		kind, _ := KindOf(name)
		generic := NewGroupedAgg(kind)
		generic.Grow(3)
		if err := generic.AddCol(vecOf(vals...), nil, ids); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		typed := NewGroupedAgg(kind)
		typed.Grow(3)
		for lo := 0; lo < len(vals); { // one chunk per run of one type
			hi := lo + 1
			for hi < len(vals) && (vals[hi] == nil || kindOf(vals[hi]) == kindOf(vals[lo])) {
				hi++
			}
			if err := typed.AddCol(vecOf(vals[lo:hi]...), nil, ids[lo:hi]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lo = hi
		}
		var ref [3]*expr.AggState
		for id := range ref {
			ref[id], _ = expr.NewAggState(name, false)
		}
		for i, v := range vals {
			if err := ref[ids[i]].Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for id := 0; id < 3; id++ {
			want := ref[id].Result()
			for how, g := range map[string]*GroupedAgg{"generic": generic, "typed": typed} {
				if got := g.Result(uint32(id)); !datumEq(got, want) {
					t.Fatalf("%s %s group %d: got %v (%T), want %v (%T)", name, how, id, got, got, want, want)
				}
			}
		}
	}
}

func datumEq(a, b types.Datum) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a == b
}

func TestGroupedAggStarAndVec(t *testing.T) {
	g := NewGroupedAgg(AggCount)
	g.Grow(2)
	g.AddStar([]uint32{0, 1, 0, 0}, 4)
	if g.Result(0) != int64(3) || g.Result(1) != int64(1) {
		t.Fatalf("star counts: %v %v", g.Result(0), g.Result(1))
	}

	// computed-vector fold, with NULL elements ignored
	v := NumVec{Ints: []int64{5, 6, 7}, Null: []bool{false, true, false}, N: 3}
	s := NewGroupedAgg(AggSum)
	s.Grow(2)
	s.AddVec(&v, []uint32{0, 0, 1})
	if s.Result(0) != int64(5) || s.Result(1) != int64(7) {
		t.Fatalf("vec sums: %v %v", s.Result(0), s.Result(1))
	}
	// sum over only-NULL input stays NULL
	empty := NewGroupedAgg(AggSum)
	empty.Grow(1)
	if err := empty.AddCol(vecOf(nil, nil), nil, []uint32{0, 0}); err != nil {
		t.Fatal(err)
	}
	if empty.Result(0) != nil {
		t.Fatalf("sum of NULLs = %v, want NULL", empty.Result(0))
	}
}

func TestGroupedAggSumPromotionAcrossMerge(t *testing.T) {
	// partial A: group 0 sums ints only; partial B promotes it with a float.
	a := NewGroupedAgg(AggSum)
	a.Grow(1)
	if err := a.AddCol(vecOf(int64(1), int64(2)), nil, []uint32{0, 0}); err != nil {
		t.Fatal(err)
	}
	b := NewGroupedAgg(AggSum)
	b.Grow(2)
	if err := b.AddCol(vecOf(float64(0.5), int64(4)), nil, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	// b's group 0 merges into a's group 0; b's group 1 is new (slot 1)
	a.Grow(2)
	a.MergeFrom(b, []uint32{0, 1})
	if got := a.Result(0); got != float64(3.5) {
		t.Fatalf("merged promoted sum = %v (%T), want 3.5", got, got)
	}
	if got := a.Result(1); got != int64(4) {
		t.Fatalf("merged int sum = %v (%T), want int64 4", got, got)
	}

	// exact int sums survive int-only merges (no float roundtrip)
	big := NewGroupedAgg(AggSum)
	big.Grow(1)
	huge := int64(1) << 60
	if err := big.AddCol(vecOf(huge, int64(1)), nil, []uint32{0, 0}); err != nil {
		t.Fatal(err)
	}
	big2 := NewGroupedAgg(AggSum)
	big2.Grow(1)
	if err := big2.AddCol(vecOf(huge), nil, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	big.MergeFrom(big2, []uint32{0})
	if got := big.Result(0); got != huge+huge+1 {
		t.Fatalf("exact int sum lost: %v", got)
	}
}

func TestGroupedAggAvgMergeCounts(t *testing.T) {
	a := NewGroupedAgg(AggAvg)
	a.Grow(1)
	if err := a.AddCol(vecOf(int64(1), int64(2), nil), nil, []uint32{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	b := NewGroupedAgg(AggAvg)
	b.Grow(1)
	if err := b.AddCol(vecOf(int64(9)), nil, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	a.MergeFrom(b, []uint32{0})
	if got := a.Result(0); got != float64(4) {
		t.Fatalf("avg after merge = %v, want 4.0 (sum 12 / count 3)", got)
	}
}

func TestOrFilterUnion(t *testing.T) {
	flagCol := vecOf("R", "A", "N", "R", nil, "A")
	qtyCol := vecOf(int64(5), int64(40), int64(50), int64(1), int64(99), nil)
	chunk := chunkOf(flagCol, qtyCol)

	or := &OrFilter{Branches: []Filter{
		{Col: 0, Op: Eq, K: "R"},
		{Col: 1, Op: Gt, K: int64(30)},
	}}
	var sc OrScratch
	got := or.Apply(chunk, nil, nil, &sc)
	want := Sel{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}

	// drawn from a prior selection, and reusing the scratch buffers
	got = or.Apply(chunk, Sel{1, 4, 5}, got, &sc)
	want = Sel{1, 4}
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("union over sel = %v, want %v", got, want)
	}

	// IS NULL branches participate (the one NULL-passing kernel)
	orNull := &OrFilter{Branches: []Filter{
		{Col: 1, NullTest: true},
		{Col: 0, Op: Eq, K: "N"},
	}}
	got = orNull.Apply(chunk, nil, got, &sc)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("IS NULL union = %v, want [2 5]", got)
	}
}

func TestOrFilterSkip(t *testing.T) {
	stats := func(col int) (types.Datum, types.Datum, bool) {
		switch col {
		case 0:
			return int64(10), int64(20), true
		case 1:
			return "a", "m", true
		}
		return nil, nil, false
	}
	both := &OrFilter{Branches: []Filter{
		{Col: 0, Op: Gt, K: int64(100)},
		{Col: 1, Op: Eq, K: "z"},
	}}
	if !both.Skip(stats) {
		t.Fatal("both branches disprovable: expected skip")
	}
	oneLive := &OrFilter{Branches: []Filter{
		{Col: 0, Op: Gt, K: int64(100)},
		{Col: 1, Op: Eq, K: "b"}, // inside [a, m]
	}}
	if oneLive.Skip(stats) {
		t.Fatal("a live branch must prevent the skip")
	}
	noStats := &OrFilter{Branches: []Filter{
		{Col: 0, Op: Gt, K: int64(100)},
		{Col: 2, Op: Eq, K: int64(1)}, // no stats for col 2
	}}
	if noStats.Skip(stats) {
		t.Fatal("a branch without stats must prevent the skip")
	}
}
