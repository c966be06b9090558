package rowbatch

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

var sampleRows = []types.Row{
	{nil, int64(0), int64(-1), int64(math.MinInt64), 1.5, math.Inf(-1), true, false, "", "héllo",
		time.Time{}, time.Date(2021, 6, 1, 12, 30, 0, 123456789, time.UTC),
		jsonb.MustParse(`{"a": [1, {"b": null}], "c": "x"}`), jsonb.MustParse(`null`)},
	{"only", int64(300), int64(255), int64(256), math.MaxFloat64, math.Copysign(0, -1), false, true, "a", "b",
		time.Date(1969, 12, 31, 23, 59, 59, 1, time.FixedZone("", -5*3600)), time.Unix(0, 0),
		jsonb.MustParse(`[]`), jsonb.MustParse(`"s"`)},
}

func mustAppend(t testing.TB, rows []types.Row) []byte {
	t.Helper()
	b, err := Append(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	enc := mustAppend(t, sampleRows)
	bt, rest, err := Parse(append(bytes.Clone(enc), 0xAA, 0xBB))
	if err != nil || !bytes.Equal(rest, []byte{0xAA, 0xBB}) || bt.NumRows() != len(sampleRows) {
		t.Fatalf("Parse: %d rows, rest %x, %v", bt.NumRows(), rest, err)
	}
	if !bytes.Equal(bt.Bytes(), enc) {
		t.Fatal("Bytes is not what Append wrote")
	}
	got := bt.Rows()
	if !reflect.DeepEqual(got, sampleRows) {
		t.Fatalf("decoded\n%v\nwant\n%v", got, sampleRows)
	}
	// the same bytes again from the decoded rows: nothing was lost
	if again := mustAppend(t, got); !bytes.Equal(again, enc) {
		t.Fatal("re-encoding the decoded rows gives other bytes")
	}
	// NaN is not DeepEqual to itself
	nan := mustAppend(t, []types.Row{{math.NaN()}})
	bt, _, _ = Parse(nan)
	if f := bt.Rows()[0][0].(float64); !math.IsNaN(f) {
		t.Fatalf("NaN decoded as %v", f)
	}
	// the zero jsonb.Value is null, and arrives as null
	bt, _, _ = Parse(mustAppend(t, []types.Row{{jsonb.Value{}}}))
	if v := bt.Rows()[0][0].(jsonb.Value); !v.IsNull() {
		t.Fatalf("zero jsonb.Value decoded as %s", v)
	}
}

func TestDecodedNeverAliasesTheBuffer(t *testing.T) {
	buf := mustAppend(t, sampleRows)
	bt, _, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	cl := bt.Clone()
	rows := bt.Rows()
	for i := range buf {
		buf[i] = 0xff
	}
	if !reflect.DeepEqual(rows, sampleRows) {
		t.Fatal("decoded rows changed with the buffer they were decoded from")
	}
	if !reflect.DeepEqual(cl.Rows(), sampleRows) {
		t.Fatal("a cloned batch changed with the buffer it was parsed from")
	}
}

// TestBoxedDatumsAreOrdinary: a datum that points into a batch's array is,
// to everything that handles datums, the value itself.
func TestBoxedDatumsAreOrdinary(t *testing.T) {
	when := time.Date(2020, 2, 3, 4, 5, 6, 7, time.UTC)
	bt, _, err := Parse(mustAppend(t, []types.Row{{int64(1 << 40), 2.5, when}, {int64(-7), math.Inf(1), time.Time{}}}))
	if err != nil {
		t.Fatal(err)
	}
	rows := bt.Rows()
	if v, ok := rows[0][0].(int64); !ok || v != 1<<40 {
		t.Fatalf("int64 datum: %T %v", rows[0][0], rows[0][0])
	}
	if v, ok := rows[0][1].(float64); !ok || v != 2.5 {
		t.Fatalf("float64 datum: %T %v", rows[0][1], rows[0][1])
	}
	if v, ok := rows[0][2].(time.Time); !ok || !v.Equal(when) {
		t.Fatalf("time datum: %T %v", rows[0][2], rows[0][2])
	}
	if rows[0][0] != types.Datum(int64(1<<40)) || rows[1][0] != types.Datum(int64(-7)) {
		t.Fatal("boxed int64 is not == the plain datum")
	}
	seen := map[types.Datum]bool{rows[0][0]: true, rows[0][1]: true}
	if !seen[int64(1<<40)] || !seen[2.5] {
		t.Fatal("boxed datums do not hash as the plain ones")
	}
	if types.Compare(rows[0][0], int64(1<<40)) != 0 || types.TypeOf(rows[1][2]) != types.Timestamp {
		t.Fatal("types.Compare / TypeOf see something else")
	}
}

func TestAppendRefuses(t *testing.T) {
	prefix := []byte("kept")
	for name, rows := range map[string][]types.Row{
		"ragged rows":          {{int64(1), "a"}, {int64(2)}},
		"rows without columns": {{}, {}},
		"not a datum":          {{int64(1)}, {int(2)}},
		"not a datum (int32)":  {{int32(2)}},
	} {
		out, err := Append(bytes.Clone(prefix), rows)
		if err == nil || !bytes.Equal(out, prefix) {
			t.Errorf("%s: Append = %q, %v; want the prefix back and an error", name, out, err)
		}
	}
	if b, err := Append(nil, nil); err != nil || !bytes.Equal(b, []byte{0, 0}) {
		t.Fatalf("no rows: %x %v", b, err)
	}
	if b, err := AppendCells(nil, nil); err != nil || !bytes.Equal(b, []byte{0, 0}) {
		t.Fatalf("no cells: %x %v", b, err)
	}
	b, err := AppendCells(nil, []types.Datum{"v", int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := Parse(b)
	if err != nil || !reflect.DeepEqual(bt.Cells(), []types.Datum{"v", int64(9)}) {
		t.Fatalf("cells round trip: %v %v", bt.Cells(), err)
	}
}

func TestParseRefuses(t *testing.T) {
	good := mustAppend(t, sampleRows)
	// every proper prefix is a truncated batch
	for n := 0; n < len(good); n++ {
		if _, _, err := Parse(good[:n]); !errors.Is(err, ErrMalformed) && !errors.Is(err, jsonb.ErrMalformed) {
			t.Fatalf("prefix of %d bytes: %v", n, err)
		}
	}
	doc := jsonb.MustParse(`{"k": 1}`).AppendWire(nil)
	damaged := bytes.Clone(doc)
	damaged[0] = '{'
	cases := map[string]struct {
		in   []byte
		want error
	}{
		"unknown tag":            {[]byte{1, 1, 7}, ErrMalformed},
		"bool byte 2":            {[]byte{1, 1, tagBool, 2}, ErrMalformed},
		"columns without rows":   {[]byte{3, 0}, ErrMalformed},
		"rows without columns":   {[]byte{0, 3}, ErrMalformed},
		"more cells than bytes":  {[]byte{200, 1, 200, 1, tagNull}, ErrMalformed},
		"counts that overflow":   {append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, tagNull), ErrMalformed},
		"string past the end":    {[]byte{1, 1, tagString, 5, 'a'}, ErrMalformed},
		"jsonb in its text form": {append([]byte{1, 1, tagJSONB, byte(len(damaged))}, damaged...), jsonb.ErrMalformed},
		"jsonb of no bytes":      {[]byte{1, 1, tagJSONB, 0}, jsonb.ErrMalformed},
	}
	for name, c := range cases {
		if _, _, err := Parse(c.in); !errors.Is(err, c.want) {
			t.Errorf("%s: Parse = %v, want %v", name, err, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		_, _, _ = Parse(good)
	}); allocs != 0 {
		t.Errorf("Parse of a good batch allocates %v times", allocs)
	}
}

// TestDecodeAllocations: what Rows allocates does not grow with the number
// of columns, nor with the rows unless they hold text: the rows, the cells,
// and one array per kind of value present (int64 and float64 share one),
// plus one array per row that has a string or a jsonb document, for all of
// that row's bytes.
func TestDecodeAllocations(t *testing.T) {
	when := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	narrow := types.Row{int64(1 << 33)}
	wide := types.Row{int64(1 << 33), 2.5, true, nil, when, int64(-1 << 40), 1e300, false, when, int64(77777), nil}
	measure := func(rows []types.Row) float64 {
		bt, _, err := Parse(mustAppend(t, rows))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() { rowsSink = bt.Rows() })
	}
	if one, eleven := measure([]types.Row{narrow}), measure([]types.Row{wide}); one != 3 || eleven != 4 {
		t.Fatalf("1 column: %v allocations (want 3: rows, cells, words); 11 fixed-width columns: %v (want 4: + times)", one, eleven)
	}
	many := make([]types.Row, 100)
	for i := range many {
		many[i] = wide
	}
	if n := measure(many); n != 4 {
		t.Fatalf("100 rows of 11 fixed-width columns: %v allocations, want 4", n)
	}
	if n := measure([]types.Row{{int64(1 << 33), "a string", jsonb.MustParse(`[1]`)}}); n != 6 {
		t.Fatalf("int64 + string + jsonb: %v allocations, want 6 (rows, cells, three arrays, the row's bytes)", n)
	}
	if n := measure([]types.Row{{"aa", "bb", "cc", "dd"}, {"ee", "ff", "gg", "hh"}}); n != 3+2 {
		t.Fatalf("2 rows of 4 strings: %v allocations, want 3 + one per row", n)
	}
	// a row whose strings are all empty, or that has none, has no bytes
	if n := measure([]types.Row{{"", int64(1)}, {"x", int64(2)}, {nil, int64(3)}, {"", nil}}); n != 4+1 {
		t.Fatalf("4 rows, one with a non-empty string: %v allocations, want 4 + 1", n)
	}
}

// TestRowArena: a decoded row's strings and documents lie one after the
// other in one array, no document's capacity reaching the value after it; no
// two rows share an array; and empty strings and null documents decode as
// themselves.
func TestRowArena(t *testing.T) {
	in := []types.Row{
		{"first", int64(1), "", jsonb.MustParse(`{"a": [1, "two"]}`), jsonb.Value{}, "last of row 0"},
		{"", int64(2), "x", jsonb.MustParse(`[]`), nil, "a longer string"},
		{"", nil, "", jsonb.Value{}, nil, ""},
	}
	enc := mustAppend(t, in)
	bt, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	rows := bt.Rows()
	if again := mustAppend(t, rows); !bytes.Equal(again, enc) || rows[1][0] != "" || !rows[2][3].(jsonb.Value).IsNull() {
		t.Fatalf("decoded\n%v\nwant\n%v", rows, in)
	}
	// where each row's bytes start and end
	type span struct{ start, end uintptr }
	spans := make([]span, len(rows))
	for r, row := range rows {
		for _, d := range row {
			var p unsafe.Pointer
			var n int
			switch v := d.(type) {
			case string:
				p, n = unsafe.Pointer(unsafe.StringData(v)), len(v)
			case jsonb.Value:
				b := reflect.ValueOf(v).Field(0) // the node bytes
				if b.Cap() != b.Len() {
					t.Fatalf("row %d: a document of %d bytes has capacity %d: an append would overwrite what follows", r, b.Len(), b.Cap())
				}
				p, n = b.UnsafePointer(), b.Len()
			}
			if n == 0 {
				continue
			}
			if spans[r].end != 0 && uintptr(p) != spans[r].end {
				t.Fatalf("row %d: a value at %#x does not follow the one before it, which ends at %#x: not one array", r, p, spans[r].end)
			}
			if spans[r].end == 0 {
				spans[r].start = uintptr(p)
			}
			spans[r].end = uintptr(p) + uintptr(n)
		}
	}
	// Rows 0 and 1 take 57 and 21 bytes, no size class of the allocator: two
	// arrays of their own cannot abut, slices of one would.
	for r := 1; r < len(spans); r++ {
		if spans[r].start == spans[r-1].end {
			t.Fatalf("row %d starts where row %d ends: the rows share one array", r, r-1)
		}
		for q := range spans[:r] {
			if spans[r].start < spans[q].end && spans[q].start < spans[r].end {
				t.Fatalf("rows %d and %d overlap", q, r)
			}
		}
	}
}

var rowsSink []types.Row

func BenchmarkDecodeFixedWidth(b *testing.B) {
	rows := make([]types.Row, 500)
	for i := range rows {
		rows[i] = types.Row{int64(i) << 20, float64(i) / 3, int64(-i) << 12, nil, true}
	}
	bt, _, err := Parse(mustAppend(b, rows))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowsSink = bt.Rows()
	}
}
