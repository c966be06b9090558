package vec

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"citusgo/internal/types"
)

// vecOf builds a vector the way a stripe does, one Append per value.
func vecOf(vals ...types.Datum) *Vector {
	v := &Vector{}
	for _, d := range vals {
		v.Append(d)
	}
	return v
}

// chunkOf lines vectors up as the columns of one chunk.
func chunkOf(cols ...*Vector) []Vector {
	chunk := make([]Vector, len(cols))
	for i, c := range cols {
		chunk[i] = *c
	}
	return chunk
}

// oneGroup is an aggregate without GROUP BY: GroupedAgg's one-group case,
// where nil stands for every ID vector.
func oneGroup(kind AggKind) *GroupedAgg {
	g := NewGroupedAgg(kind)
	g.Grow(1)
	return g
}

func selEqual(a Sel, want []int32) bool {
	if len(a) != len(want) {
		return false
	}
	for i := range a {
		if a[i] != want[i] {
			return false
		}
	}
	return true
}

func TestFilterTypedKernels(t *testing.T) {
	intCol := vecOf(int64(5), nil, int64(10), int64(3), int64(10))
	floatCol := vecOf(0.5, 1.5, nil, 2.5, 1.5)
	strCol := vecOf("b", "a", "c", nil, "b")
	ts := func(d int) time.Time { return time.Date(2020, 1, d, 0, 0, 0, 0, time.UTC) }
	timeCol := vecOf(ts(1), ts(5), nil, ts(10), ts(5))

	cases := []struct {
		f    Filter
		col  *Vector
		want []int32
	}{
		{Filter{Col: 0, Op: Eq, K: int64(10)}, intCol, []int32{2, 4}},
		{Filter{Col: 0, Op: Ne, K: int64(10)}, intCol, []int32{0, 3}},
		{Filter{Col: 0, Op: Lt, K: int64(10)}, intCol, []int32{0, 3}},
		{Filter{Col: 0, Op: Ge, K: int64(5)}, intCol, []int32{0, 2, 4}},
		// cross-type constant: int column vs float constant
		{Filter{Col: 0, Op: Gt, K: 4.5}, intCol, []int32{0, 2, 4}},
		{Filter{Col: 0, Op: Le, K: 3.0}, intCol, []int32{3}},
		{Filter{Col: 0, Op: Eq, K: nil}, intCol, nil},
		{Filter{Col: 0, Op: Lt, K: 2.0}, floatCol, []int32{0, 1, 4}},
		{Filter{Col: 0, Op: Ge, K: "b"}, strCol, []int32{0, 2, 4}},
		{Filter{Col: 0, Op: Lt, K: ts(6)}, timeCol, []int32{0, 1, 4}},
		{Filter{Col: 0, Between: true, Lo: int64(3), Hi: int64(5)}, intCol, []int32{0, 3}},
		{Filter{Col: 0, Between: true, Lo: 1.0, Hi: 2.0}, floatCol, []int32{1, 4}},
		{Filter{Col: 0, Between: true, Lo: nil, Hi: int64(5)}, intCol, nil},
		// mixed-type between bounds fall back to generic Compare
		{Filter{Col: 0, Between: true, Lo: int64(1), Hi: 2.0}, floatCol, []int32{1, 4}},
	}
	for i, tc := range cases {
		got := tc.f.Apply(tc.col, nil, nil)
		if !selEqual(got, tc.want) {
			t.Errorf("case %d (%s): got %v want %v", i, tc.f.String(), got, tc.want)
		}
	}
}

func TestFilterNullTestKernel(t *testing.T) {
	col := vecOf(int64(5), nil, int64(10), nil, int64(3))
	isNull := Filter{Col: 0, NullTest: true}
	isNotNull := Filter{Col: 0, NullTest: true, NotNull: true}

	if got := isNull.Apply(col, nil, nil); !selEqual(got, []int32{1, 3}) {
		t.Fatalf("IS NULL over full chunk: got %v", got)
	}
	if got := isNotNull.Apply(col, nil, nil); !selEqual(got, []int32{0, 2, 4}) {
		t.Fatalf("IS NOT NULL over full chunk: got %v", got)
	}
	// consuming a prior selection
	sel := Sel{0, 1, 2}
	if got := isNull.Apply(col, sel, nil); !selEqual(got, []int32{1}) {
		t.Fatalf("IS NULL over selection: got %v", got)
	}
	if got := isNotNull.Apply(col, sel, nil); !selEqual(got, []int32{0, 2}) {
		t.Fatalf("IS NOT NULL over selection: got %v", got)
	}
	// stats are over non-NULL values only: a null test must never skip a
	// stripe, in either polarity, with or without stats
	for _, f := range []Filter{isNull, isNotNull} {
		if f.Skip(int64(1), int64(2), true) || f.Skip(nil, nil, false) {
			t.Fatalf("%s skipped a stripe on min/max stats", f.String())
		}
	}
	if isNull.String() != "col0 IS NULL" || isNotNull.String() != "col0 IS NOT NULL" {
		t.Fatalf("null-test String(): %q / %q", isNull.String(), isNotNull.String())
	}
}

func TestFilterChainsSelections(t *testing.T) {
	col := vecOf(int64(1), int64(2), int64(3), int64(4), int64(5), int64(6))
	f1 := Filter{Op: Gt, K: int64(2)}
	f2 := Filter{Op: Lt, K: int64(6)}
	sel := f1.Apply(col, nil, nil)
	sel = f2.Apply(col, sel, nil)
	if !selEqual(sel, []int32{2, 3, 4}) {
		t.Fatalf("chained selection = %v", sel)
	}
}

func TestFilterSkip(t *testing.T) {
	cases := []struct {
		f        Filter
		min, max types.Datum
		ok       bool
		skip     bool
	}{
		{Filter{Op: Eq, K: int64(5)}, int64(10), int64(20), true, true},
		{Filter{Op: Eq, K: int64(15)}, int64(10), int64(20), true, false},
		{Filter{Op: Lt, K: int64(10)}, int64(10), int64(20), true, true},
		{Filter{Op: Le, K: int64(10)}, int64(10), int64(20), true, false},
		{Filter{Op: Gt, K: int64(20)}, int64(10), int64(20), true, true},
		{Filter{Op: Ge, K: int64(20)}, int64(10), int64(20), true, false},
		{Filter{Op: Ne, K: int64(7)}, int64(7), int64(7), true, true},
		{Filter{Op: Ne, K: int64(7)}, int64(7), int64(8), true, false},
		// numeric cross-type: int stats vs float constant are sound
		{Filter{Op: Lt, K: 9.5}, int64(10), int64(20), true, true},
		// cross-class numeric/string must never skip (textual fallback
		// ordering does not match the typed stats ordering)
		{Filter{Op: Lt, K: "10"}, int64(10), int64(20), true, false},
		// string constant vs time stats aligns through the textual
		// fallback (types.Format on time.Time preserves ordering)
		{Filter{Op: Lt, K: "1994-01-01"},
			time.Date(1994, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC), true, true},
		{Filter{Op: Ge, K: "1994-01-01"},
			time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1993, 12, 31, 0, 0, 0, 0, time.UTC), true, true},
		{Filter{Op: Lt, K: "1995-01-01"},
			time.Date(1994, 6, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1995, 6, 1, 0, 0, 0, 0, time.UTC), true, false},
		// time constant vs string stats aligns the same way
		{Filter{Op: Gt, K: time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC)},
			"1992-01-01", "1993-01-01", true, true},
		// no stats: never skip
		{Filter{Op: Eq, K: int64(5)}, nil, nil, false, false},
		// NULL constant: always skip (predicate can never be true)
		{Filter{Op: Eq, K: nil}, int64(0), int64(1), true, true},
		{Filter{Between: true, Lo: int64(1), Hi: int64(5)}, int64(10), int64(20), true, true},
		{Filter{Between: true, Lo: int64(15), Hi: int64(16)}, int64(10), int64(20), true, false},
		{Filter{Between: true, Lo: int64(21), Hi: int64(30)}, int64(10), int64(20), true, true},
	}
	for i, tc := range cases {
		if got := tc.f.Skip(tc.min, tc.max, tc.ok); got != tc.skip {
			t.Errorf("case %d (%s, min=%v max=%v): skip=%v want %v",
				i, tc.f.String(), tc.min, tc.max, got, tc.skip)
		}
	}
}

func TestNumExprEval(t *testing.T) {
	price := vecOf(10.0, 20.0, nil, 40.0)
	disc := vecOf(0.1, nil, 0.3, 0.5)
	qty := vecOf(int64(2), int64(4), int64(6), int64(8))
	cols := chunkOf(price, disc, qty)
	var scratch Scratch

	// float product with NULL propagation
	e := Bin(Mul, Column(0, true), Column(1, true))
	v, err := e.Eval(cols, 4, nil, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Float || v.N != 4 {
		t.Fatalf("bad vec: %+v", v)
	}
	if v.Floats[0] != 1.0 || !v.Null[1] || !v.Null[2] || v.Null[3] || v.Floats[3] != 20.0 {
		t.Fatalf("product = %v nulls %v", v.Floats, v.Null)
	}

	// integer division stays integer (expr.arith semantics)
	scratch.Reset()
	c, _ := Const(int64(4))
	e = Bin(Div, Column(2, false), c)
	v, err = e.Eval(cols, 4, nil, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float {
		t.Fatal("int/int division promoted to float")
	}
	if v.Ints[0] != 0 || v.Ints[1] != 1 || v.Ints[2] != 1 || v.Ints[3] != 2 {
		t.Fatalf("int division = %v", v.Ints)
	}

	// int column promoted in float context
	scratch.Reset()
	e = Bin(Add, Column(2, false), Column(0, true))
	v, err = e.Eval(cols, 4, nil, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Float || v.Floats[0] != 12.0 {
		t.Fatalf("promotion failed: %+v", v)
	}

	// selection vector: only selected positions evaluate
	scratch.Reset()
	e = Bin(Mul, Column(0, true), Column(1, true))
	v, err = e.Eval(cols, 4, Sel{0, 3}, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 2 || v.Floats[0] != 1.0 || v.Floats[1] != 20.0 {
		t.Fatalf("selected eval = %+v", v)
	}

	// division by zero errors like the row path
	scratch.Reset()
	zero, _ := Const(int64(0))
	e = Bin(Div, Column(2, false), zero)
	if _, err = e.Eval(cols, 4, nil, &scratch); err == nil {
		t.Fatal("division by zero did not error")
	}
}

// The three tests below hold the fold without GROUP BY — the one-group case
// of GroupedAgg — to expr.AggState's semantics.

func TestAggStateMatchesRowSemantics(t *testing.T) {
	// sum starts int64 and promotes to float64 on the first float
	s := oneGroup(AggSum)
	if err := s.AddCol(vecOf(int64(1), int64(2), nil), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Result(0); got != int64(3) {
		t.Fatalf("int sum = %v (%T)", got, got)
	}
	if err := s.AddCol(vecOf(1.5), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Result(0); got != 4.5 {
		t.Fatalf("promoted sum = %v (%T)", got, got)
	}

	// sum over only NULLs stays NULL
	s = oneGroup(AggSum)
	if err := s.AddCol(vecOf(nil, nil), nil, nil); err != nil {
		t.Fatal(err)
	}
	if s.Result(0) != nil {
		t.Fatalf("sum over NULLs = %v", s.Result(0))
	}

	// avg counts only non-NULL inputs
	s = oneGroup(AggAvg)
	_ = s.AddCol(vecOf(int64(2), nil, int64(4)), nil, nil)
	if got := s.Result(0); got != 3.0 {
		t.Fatalf("avg = %v (%T)", got, got)
	}

	// count(col) skips NULLs; AddStar counts all
	s = oneGroup(AggCount)
	_ = s.AddCol(vecOf(int64(1), nil, int64(3)), nil, nil)
	if got := s.Result(0); got != int64(2) {
		t.Fatalf("count(col) = %v", got)
	}
	s = oneGroup(AggCount)
	s.AddStar(nil, 5)
	if got := s.Result(0); got != int64(5) {
		t.Fatalf("count(*) = %v", got)
	}

	// min/max across types, non-numeric sum errors
	s = oneGroup(AggMin)
	_ = s.AddCol(vecOf("b", "a", nil, "c"), nil, nil)
	if got := s.Result(0); got != "a" {
		t.Fatalf("min = %v", got)
	}
	s = oneGroup(AggSum)
	if err := s.AddCol(vecOf("oops"), nil, nil); err == nil {
		t.Fatal("sum over text did not error")
	}
}

func TestAggStateMerge(t *testing.T) {
	// int + int stays int; int partial + float partial promotes
	a, b := oneGroup(AggSum), oneGroup(AggSum)
	_ = a.AddCol(vecOf(int64(1), int64(2)), nil, nil)
	_ = b.AddCol(vecOf(int64(3)), nil, nil)
	a.MergeFrom(b, []uint32{0})
	if got := a.Result(0); got != int64(6) {
		t.Fatalf("merged int sum = %v (%T)", got, got)
	}
	c := oneGroup(AggSum)
	_ = c.AddCol(vecOf(0.5), nil, nil)
	a.MergeFrom(c, []uint32{0})
	if got := a.Result(0); got != 6.5 {
		t.Fatalf("merged mixed sum = %v (%T)", got, got)
	}

	// avg merges counts and sums
	x, y := oneGroup(AggAvg), oneGroup(AggAvg)
	_ = x.AddCol(vecOf(int64(1), int64(2)), nil, nil)
	_ = y.AddCol(vecOf(int64(6)), nil, nil)
	x.MergeFrom(y, []uint32{0})
	if got := x.Result(0); got != 3.0 {
		t.Fatalf("merged avg = %v", got)
	}

	// min/max merge keeps extrema; empty partials are no-ops
	m, n := oneGroup(AggMax), oneGroup(AggMax)
	_ = m.AddCol(vecOf(int64(10)), nil, nil)
	m.MergeFrom(n, []uint32{0})
	if got := m.Result(0); got != int64(10) {
		t.Fatalf("max after empty merge = %v", got)
	}
	_ = n.AddCol(vecOf(int64(99)), nil, nil)
	m.MergeFrom(n, []uint32{0})
	if got := m.Result(0); got != int64(99) {
		t.Fatalf("max after merge = %v", got)
	}
}

func TestAggVecFolds(t *testing.T) {
	v := NumVec{Float: true, N: 4, Floats: []float64{1, 2, 3, 4}, Null: []bool{false, true, false, false}}
	s := oneGroup(AggSum)
	s.AddVec(&v, nil)
	if got := s.Result(0); got != 8.0 {
		t.Fatalf("sum(vec) = %v", got)
	}
	iv := NumVec{N: 3, Ints: []int64{5, 6, 7}, Null: make([]bool, 3)}
	si := oneGroup(AggSum)
	si.AddVec(&iv, nil)
	if got := si.Result(0); got != int64(18) {
		t.Fatalf("sum(int vec) = %v (%T)", got, got)
	}
	mn := oneGroup(AggMin)
	mn.AddVec(&v, nil)
	if got := mn.Result(0); got != 1.0 {
		t.Fatalf("min(vec) = %v", got)
	}
	ct := oneGroup(AggCount)
	ct.AddVec(&v, nil)
	if got := ct.Result(0); got != int64(3) {
		t.Fatalf("count(vec) = %v", got)
	}
}

func TestMaterializeAll(t *testing.T) {
	sel := MaterializeAll(4, nil)
	if !selEqual(sel, []int32{0, 1, 2, 3}) {
		t.Fatalf("identity = %v", sel)
	}
	sel = MaterializeAll(2, sel) // reuse shrinks
	if !selEqual(sel, []int32{0, 1}) {
		t.Fatalf("reused identity = %v", sel)
	}
}

func TestScratchReuse(t *testing.T) {
	var s Scratch
	col := &Vector{}
	for i := 0; i < 1000; i++ {
		col.Append(int64(i))
	}
	cols := chunkOf(col)
	e := Bin(Add, Column(0, false), Column(0, false))
	for chunk := 0; chunk < 3; chunk++ {
		s.Reset()
		v, err := e.Eval(cols, 1000, nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		if v.Ints[999] != 1998 {
			t.Fatalf("chunk %d: %v", chunk, v.Ints[999])
		}
	}
	// after warm-up, repeated evaluation must not allocate per element
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		if _, err := e.Eval(cols, 1000, nil, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("Eval allocates %.0f times per chunk; scratch reuse broken", allocs)
	}
}

func ExampleFilter_Apply() {
	col := vecOf(int64(1), int64(7), nil, int64(9))
	f := Filter{Op: Gt, K: int64(5)}
	fmt.Println(f.Apply(col, nil, nil))
	// Output: [1 3]
}

// substringMatcher is LIKE '%sub%' for the kernel tests: the engine hands in
// expr.LikePattern.
type substringMatcher string

func (m substringMatcher) MatchBytes(b []byte) bool { return bytes.Contains(b, []byte(m)) }

// TestLikeFilter: over texts that are in no vector, negated and not, under a
// selection and without: NULLs never pass, and the selection that comes out
// is in order and never nil.
func TestLikeFilter(t *testing.T) {
	texts := []types.Datum{"postgres", nil, "mysql", "a postgres b", "", nil, "Postgres"}
	fromScratch := func(i int) ([]byte, bool) {
		if texts[i] == nil {
			return nil, false
		}
		return []byte(texts[i].(string)), true
	}
	for _, tc := range []struct {
		not  bool
		sel  Sel
		want []int32
	}{
		{false, nil, []int32{0, 3}},
		{true, nil, []int32{2, 4, 6}},
		{false, Sel{1, 2, 3, 6}, []int32{3}},
		{true, Sel{0, 1, 5}, []int32{}},
	} {
		f := LikeFilter{M: substringMatcher("postgres"), Not: tc.not}
		if got := f.ApplyText(len(texts), tc.sel, Sel{9, 9, 9, 9, 9, 9, 9, 9}, fromScratch); got == nil || !selEqual(got, tc.want) {
			t.Errorf("not=%v sel=%v over scratch texts: %v, want %v", tc.not, tc.sel, got, tc.want)
		}
	}
}
