package vec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"citusgo/internal/types"
)

// datumsOf reads a vector back row by row, and in one AppendDatums call; the
// two must agree.
func datumsOf(t *testing.T, v *Vector) []types.Datum {
	t.Helper()
	all := v.AppendDatums(nil, 0, v.Len())
	for i := range all {
		if one := v.Datum(i); !reflect.DeepEqual(one, all[i]) {
			t.Fatalf("row %d: Datum %#v, AppendDatums %#v", i, one, all[i])
		}
	}
	return all
}

// TestVectorKind: a vector takes the kind of its first non-NULL value,
// however many NULLs come first, and keeps it.
func TestVectorKind(t *testing.T) {
	ts := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		first types.Datum
		kind  Kind
	}{
		{int64(7), KindInt}, {2.5, KindFloat}, {true, KindBool}, {"s", KindString}, {ts, KindTime},
		{struct{ doc string }{"jsonb stands here"}, KindGeneric},
	} {
		for _, nulls := range []int{0, 1, 40} {
			v := &Vector{}
			for i := 0; i < nulls; i++ {
				v.Append(nil)
				if v.Kind != KindNull {
					t.Fatalf("%v: kind %d after only NULLs", c.first, v.Kind)
				}
			}
			v.Append(c.first)
			v.Append(nil)
			v.Append(c.first)
			if v.Kind != c.kind {
				t.Fatalf("%v behind %d NULLs: kind %d, want %d", c.first, nulls, v.Kind, c.kind)
			}
			if v.Nulls == nil || v.Len() != nulls+3 {
				t.Fatalf("%v: len %d, mask %v", c.first, v.Len(), v.Nulls)
			}
			want := make([]types.Datum, nulls, nulls+3)
			want = append(want, c.first, nil, c.first)
			if got := datumsOf(t, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v behind %d NULLs reads back %v", c.first, nulls, got)
			}
		}
	}
	// no NULL, no mask
	if v := vecOf(int64(1), int64(2)); v.Nulls != nil {
		t.Fatal("a vector without NULLs carries a mask")
	}
}

// TestVectorDemotion: a value of a second type moves the chunk to boxed
// datums, once, without changing a row; views of the typed storage stay
// what they were.
func TestVectorDemotion(t *testing.T) {
	ts := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	for _, rows := range [][]types.Datum{
		{int64(1), nil, int64(3), "four", int64(5), nil, 6.5},
		{"a", "b", int64(3), "a"},
		{ts, nil, ts.Add(time.Hour), ts.In(time.FixedZone("", 7200)), ts}, // a zone the nanoseconds cannot carry
		{1.5, true, nil},
		{nil, nil, true, "x"},
	} {
		v := &Vector{}
		var before Vector
		for i, d := range rows {
			if v.Kind != KindGeneric {
				v.RangeInto(&before, 0, i)
			}
			v.Append(d)
		}
		if v.Kind != KindGeneric {
			t.Fatalf("%v: kind %d, want generic", rows, v.Kind)
		}
		if got := datumsOf(t, v); !reflect.DeepEqual(got, rows) {
			t.Fatalf("demoted chunk reads back %v, want %v", got, rows)
		}
		n := before.Len()
		if before.Kind == KindGeneric || !reflect.DeepEqual(datumsOf(t, &before), rows[:n]) {
			t.Fatalf("view taken before the demotion: kind %d rows %v, want %v", before.Kind, datumsOf(t, &before), rows[:n])
		}
	}
}

// TestVectorTimeRoundTrip: a timestamp vector holds UTC nanoseconds, which is
// exactly a UTC time inside UnixNano's range; anything else keeps the chunk
// (or moves it) to boxed datums, so that every time reads back identical.
func TestVectorTimeRoundTrip(t *testing.T) {
	utc := time.Date(2024, 5, 1, 12, 30, 15, 123456789, time.UTC)
	exact := []time.Time{utc, time.Unix(0, 0).UTC(), time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC)}
	for _, ts := range exact {
		v := vecOf(ts, nil, ts)
		if got := v.Datum(0); v.Kind != KindTime || got != types.Datum(ts) {
			t.Fatalf("%v: kind %d, reads back %v", ts, v.Kind, got)
		}
	}
	inexact := []time.Time{
		utc.In(time.FixedZone("", -5*3600)),    // zone offset
		utc.In(time.FixedZone("EST", -5*3600)), // named zone
		{},                                     // the zero time
		time.Date(1600, 7, 4, 0, 0, 0, 0, time.UTC), // before UnixNano's range
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), // after it
		time.Now(), // carries a monotonic reading
		time.Date(2024, 5, 1, 0, 0, 0, 0, time.Local),          // Local, even where that is UTC
		time.Date(-200, 1, 1, 0, 0, 0, 0, time.UTC),            // far outside
		time.Unix(0, math.MaxInt64).UTC().Add(time.Nanosecond), // one past the range
	}
	for _, ts := range inexact {
		for _, rows := range [][]types.Datum{{ts, utc}, {utc, nil, ts}} {
			v := vecOf(rows...)
			if v.Kind != KindGeneric {
				t.Fatalf("%v: kind %d, want generic", ts, v.Kind)
			}
			for i, want := range rows {
				if got := v.Datum(i); got != want {
					t.Fatalf("%v: row %d reads back %#v, want %#v", ts, i, got, want)
				}
			}
		}
	}
}

// TestVectorDictionary: one chunk's string dictionary at the sizes where a
// narrower code, or the switch from searching Dict to the writer's map,
// would show.
func TestVectorDictionary(t *testing.T) {
	for _, distinct := range []int{1, dictLinear, dictLinear + 1, 255, 256, 70000} {
		v := &Vector{}
		n := 2*distinct + 3
		for i := 0; i < n; i++ {
			v.Append(fmt.Sprintf("v%06d", (i*7919)%distinct))
		}
		if v.Kind != KindString || len(v.Dict) != distinct || len(v.Codes) != n {
			t.Fatalf("%d distinct: kind %d, dictionary of %d, %d codes", distinct, v.Kind, len(v.Dict), len(v.Codes))
		}
		for i := 0; i < n; i++ {
			if got, want := v.Dict[v.Codes[i]], fmt.Sprintf("v%06d", (i*7919)%distinct); got != want {
				t.Fatalf("%d distinct: row %d is %q, want %q", distinct, i, got, want)
			}
		}
		// the kernels go through the dictionary: a filter, a group key, a max
		want := fmt.Sprintf("v%06d", distinct-1)
		f := Filter{Op: Eq, K: want}
		sel := f.Apply(v, nil, nil)
		for _, i := range sel {
			if v.Dict[v.Codes[i]] != want {
				t.Fatalf("%d distinct: filter kept row %d", distinct, i)
			}
		}
		if wantRows := n / distinct; len(sel) < wantRows || len(sel) > wantRows+1 {
			t.Fatalf("%d distinct: filter kept %d rows", distinct, len(sel))
		}
		d := NewGroupDict()
		d.Encode(chunkOf(v), []int{0}, nil, n, nil)
		mx := oneGroup(AggMax)
		if err := mx.AddCol(v, nil, nil); err != nil {
			t.Fatal(err)
		}
		if d.NumGroups() != distinct || mx.Result(0) != types.Datum(want) {
			t.Fatalf("%d distinct: %d groups, max %v", distinct, d.NumGroups(), mx.Result(0))
		}
		v.Freeze()
		if v.index != nil {
			t.Fatal("a frozen vector keeps its writer's map")
		}
	}
}

// refGroups assigns first-seen group IDs the way the row path does: a map
// over the formatted key.
func refGroups(cols [][]types.Datum, sel Sel) []uint32 {
	seen := map[string]uint32{}
	var ids []uint32
	forSel(sel, len(cols[0]), func(i int) {
		key := ""
		for _, c := range cols {
			key += fmt.Sprintf("%T:%v\x1f", c[i], c[i])
		}
		id, ok := seen[key]
		if !ok {
			id = uint32(len(seen))
			seen[key] = id
		}
		ids = append(ids, id)
	})
	return ids
}

// TestGroupDictBeyondDirectTable: two high-cardinality int keys have a
// composite space no table holds; the hashed probe must hand out the same
// first-seen IDs, chunk after chunk, through a selection, across the growth
// of its table, and to Intern.
func TestGroupDictBeyondDirectTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const chunks, rows = 6, 4000
	var all [2][]types.Datum
	d := NewGroupDict()
	var got []uint32
	for c := 0; c < chunks; c++ {
		cols := [2][]types.Datum{make([]types.Datum, rows), make([]types.Datum, rows)}
		card := min(3000, 10<<(3*c)) // few keys at first: the table starts direct
		for i := 0; i < rows; i++ {
			cols[0][i] = int64(rng.Intn(card)) * 1_000_003 // scattered: no window
			cols[1][i] = int64(rng.Intn(card))             // dense: a window
			if rng.Intn(50) == 0 {
				cols[rng.Intn(2)][i] = nil
			}
		}
		var sel Sel
		if c%2 == 1 {
			for i := 0; i < rows; i += 1 + rng.Intn(3) {
				sel = append(sel, int32(i))
			}
		}
		forSel(sel, rows, func(i int) {
			all[0] = append(all[0], cols[0][i])
			all[1] = append(all[1], cols[1][i])
		})
		got = append(got, d.Encode(chunkOf(vecOf(cols[0]...), vecOf(cols[1]...)), []int{0, 1}, sel, rows, nil)...)
		if c == 0 && d.direct == nil {
			t.Fatal("the first chunk's 100 keys already left the direct table: the test needs both modes")
		}
	}
	if d.direct != nil {
		t.Fatalf("%d groups of two wide keys are still in a direct table of %d", d.NumGroups(), len(d.direct))
	}
	want := refGroups(all[:], nil)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d (%v, %v): group %d, want %d", i, all[0][i], all[1][i], got[i], want[i])
			}
		}
	}
	for i := 0; i < len(want); i += 97 {
		key := types.Row{all[0][i], all[1][i]}
		if id := d.Intern(key); id != want[i] || !reflect.DeepEqual(d.Key(id), key) {
			t.Fatalf("Intern(%v) = %d with key %v, want %d", key, id, d.Key(id), want[i])
		}
	}
	if id := d.Intern(types.Row{int64(-1), nil}); int(id) != d.NumGroups()-1 {
		t.Fatalf("a new key interned as %d of %d", id, d.NumGroups())
	}
}

// TestGroupDictLayoutGrowth drives one dictionary from a one-slot table
// through every relayout its columns' growth forces, typed and generic
// chunks of the same values alternating, and checks the IDs against the
// reference at every step.
func TestGroupDictLayoutGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewGroupDict()
	var all [3][]types.Datum
	var got []uint32
	for c := 0; c < 40; c++ {
		card := 1 + c // more distinct values with every chunk
		n := 1 + rng.Intn(300)
		cols := [3][]types.Datum{make([]types.Datum, n), make([]types.Datum, n), make([]types.Datum, n)}
		for i := 0; i < n; i++ {
			cols[0][i] = fmt.Sprintf("s%d", rng.Intn(card))
			cols[1][i] = int64(rng.Intn(card)) - 5
			cols[2][i] = rng.Intn(3) == 0
			if rng.Intn(20) == 0 {
				cols[rng.Intn(3)][i] = nil
			}
		}
		if c%3 == 2 { // a foreign value demotes the chunk: the same keys, datum by datum
			cols[1][0] = "not an int"
			cols[0][n-1] = int64(12)
		}
		for g := range cols {
			all[g] = append(all[g], cols[g]...)
		}
		got = append(got, d.Encode(chunkOf(vecOf(cols[0]...), vecOf(cols[1]...), vecOf(cols[2]...)), []int{0, 1, 2}, nil, n, nil)...)
		if want := refGroups(all[:], nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: IDs diverge from the first-seen reference", c)
		}
	}
	for id := 0; id < d.NumGroups(); id++ {
		if again := d.Intern(d.Key(uint32(id))); int(again) != id {
			t.Fatalf("group %d's own key %v interns as %d", id, d.Key(uint32(id)), again)
		}
	}
}

// TestGroupDictIntWindow: the window is a cache in front of the column's
// map, wherever the values lie.
func TestGroupDictIntWindow(t *testing.T) {
	vals := []types.Datum{
		int64(5), int64(6), int64(5), int64(math.MaxInt64), int64(math.MinInt64), int64(6),
		int64(math.MinInt64 + 1), int64(-3), int64(0), int64(math.MaxInt64), int64(1 << 40), int64(5),
	}
	d := NewGroupDict()
	var got []uint32
	for lo := 0; lo < len(vals); lo += 3 {
		got = append(got, d.Encode(chunkOf(vecOf(vals[lo:lo+3]...)), []int{0}, nil, 3, nil)...)
	}
	if want := refGroups([][]types.Datum{vals}, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs %v, want %v", got, want)
	}
	// a timestamp chunk in a column whose window serves ints
	ts := time.Unix(0, 5).UTC()
	ids := d.Encode(chunkOf(vecOf(ts, ts, int64(5))), []int{0}, nil, 3, nil)
	if ids[0] != ids[1] || ids[0] == got[0] || ids[2] != got[0] {
		t.Fatalf("timestamp 5ns and int 5 grouped as %v (int 5 is group %d)", ids, got[0])
	}
}

// TestTypedAppends: AppendInt, AppendFloat, AppendTime and AppendText leave a
// vector exactly as Append of the same value boxed leaves it — as its first
// value, behind NULLs, into its own kind, and into a vector of another kind,
// which demotes — and a text the dictionary holds costs no string.
func TestTypedAppends(t *testing.T) {
	ts := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	far := time.Date(9000, 1, 1, 0, 0, 0, 0, time.UTC) // no UnixNano: demotes a time vector
	type op struct {
		typed func(v *Vector)
		boxed types.Datum
	}
	ops := []op{
		{func(v *Vector) { v.AppendInt(7) }, int64(7)},
		{func(v *Vector) { v.AppendInt(1 << 40) }, int64(1 << 40)},
		{func(v *Vector) { v.AppendFloat(2.5) }, 2.5},
		{func(v *Vector) { v.AppendTime(ts) }, ts},
		{func(v *Vector) { v.AppendTime(far) }, far},
		{func(v *Vector) { v.AppendText([]byte("alpha")) }, "alpha"},
		{func(v *Vector) { v.AppendText([]byte("")) }, ""},
		{func(v *Vector) { v.Append(nil) }, nil},
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 500; round++ {
		got, want := &Vector{}, &Vector{}
		// mostly one kind, so that long typed runs and rare demotions both occur
		home := ops[rng.Intn(len(ops))]
		for i, n := 0, rng.Intn(40); i < n; i++ {
			o := home
			if rng.Intn(6) == 0 {
				o = ops[rng.Intn(len(ops))]
			}
			o.typed(got)
			want.Append(o.boxed)
		}
		if got.Kind != want.Kind || got.Len() != want.Len() || !reflect.DeepEqual(datumsOf(t, got), datumsOf(t, want)) {
			t.Fatalf("round %d: typed appends made kind %d %v, Append made kind %d %v",
				round, got.Kind, datumsOf(t, got), want.Kind, datumsOf(t, want))
		}
	}

	// a text the dictionary holds — found by walking it, or in its map — is
	// appended without becoming a string
	for _, words := range []int{dictLinear / 2, 3 * dictLinear} {
		v := &Vector{}
		for i := 0; i < words; i++ {
			v.AppendText([]byte(fmt.Sprintf("word%02d", i)))
		}
		v.Reserve(1000)
		text := []byte("word01 and more")[:6]
		if n := testing.AllocsPerRun(100, func() { v.AppendText(text) }); n != 0 {
			t.Errorf("a text one of %d dictionary entries holds: %v allocations, want 0", words, n)
		}
	}
}
