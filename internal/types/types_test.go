package types

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{nil, nil, 0},
		{nil, int64(1), -1},
		{int64(1), nil, 1},
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{int64(1), float64(1.5), -1},
		{float64(2.5), int64(2), 1},
		{"abc", "abd", -1},
		{false, true, -1},
		{true, true, 0},
		{time.Unix(100, 0), time.Unix(200, 0), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := a, b, c
		// sort the three manually and verify pairwise order agrees
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerceRoundTripProperty(t *testing.T) {
	f := func(v int64) bool {
		s, err := CoerceTo(v, Text)
		if err != nil {
			return false
		}
		back, err := CoerceTo(s, Int)
		if err != nil {
			return false
		}
		return back.(int64) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerceTo(t *testing.T) {
	if v, err := CoerceTo("42", Int); err != nil || v.(int64) != 42 {
		t.Fatalf("got %v, %v", v, err)
	}
	if v, err := CoerceTo(int64(1), Bool); err != nil || v.(bool) != true {
		t.Fatalf("got %v, %v", v, err)
	}
	if v, err := CoerceTo("2020-02-01", Timestamp); err != nil || v.(time.Time).Year() != 2020 {
		t.Fatalf("got %v, %v", v, err)
	}
	if v, err := CoerceTo(nil, Int); err != nil || v != nil {
		t.Fatalf("NULL coercion: %v, %v", v, err)
	}
	if _, err := CoerceTo("not a number", Int); err == nil {
		t.Fatal("expected error")
	}
	if _, err := CoerceTo("maybe", Bool); err == nil {
		t.Fatal("expected error")
	}
}

// TestCoerceToSameTypeAllocatesNothing: a datum that already has the
// target type comes back as the interface value it went in as.
func TestCoerceToSameTypeAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		d   Datum
		typ Type
	}{
		{int64(1 << 40), Int},
		{float64(2.5), Float},
		{true, Bool},
		{"a cell of text", Text},
		{time.Date(2020, 2, 1, 10, 30, 0, 0, time.FixedZone("+01", 3600)), Timestamp},
	} {
		var got Datum
		if n := testing.AllocsPerRun(100, func() { got, _ = CoerceTo(c.d, c.typ) }); n != 0 {
			t.Errorf("CoerceTo(%v, %s): %.0f allocations, want 0", c.d, c.typ, n)
		}
		if got != c.d {
			t.Errorf("CoerceTo(%v, %s) = %v", c.d, c.typ, got)
		}
	}
}

type stringer struct{}

func (stringer) String() string { return "stringer" }

// TestCoerceToTable pins CoerceTo's result for every pair of datum kind and
// type: the value, or that it fails.
func TestCoerceToTable(t *testing.T) {
	fail := errors.New("fails")
	zoned := time.Date(2020, 2, 1, 10, 30, 0, 0, time.FixedZone("+01", 3600))
	parsed, err := ParseTimestamp("2020-02-01T10:30:00+01:00")
	if err != nil {
		t.Fatal(err)
	}
	day := 24 * time.Hour
	types := []Type{Unknown, Int, Float, Bool, Text, Timestamp, Date, JSONB}
	for _, c := range []struct {
		d    Datum
		want []any // one per entry of types
	}{
		{nil, []any{nil, nil, nil, nil, nil, nil, nil, nil}},
		{int64(300), []any{int64(300), int64(300), float64(300), true, "300", fail, fail, int64(300)}},
		{int64(0), []any{int64(0), int64(0), float64(0), false, "0", fail, fail, int64(0)}},
		{float64(2.5), []any{2.5, int64(2), 2.5, fail, "2.5", fail, fail, 2.5}},
		{float64(-3), []any{float64(-3), int64(-3), float64(-3), fail, "-3.0", fail, fail, float64(-3)}},
		{true, []any{true, int64(1), fail, true, "true", fail, fail, true}},
		{false, []any{false, int64(0), fail, false, "false", fail, fail, false}},
		{"42", []any{"42", int64(42), float64(42), fail, "42", fail, fail, "42"}},
		{" 7 ", []any{" 7 ", int64(7), float64(7), fail, " 7 ", fail, fail, " 7 "}},
		{"2.5", []any{"2.5", fail, 2.5, fail, "2.5", fail, fail, "2.5"}},
		{" On ", []any{" On ", fail, fail, true, " On ", fail, fail, " On "}},
		{"0", []any{"0", int64(0), float64(0), false, "0", fail, fail, "0"}},
		{"2020-02-01T10:30:00+01:00", []any{"2020-02-01T10:30:00+01:00", fail, fail, fail, "2020-02-01T10:30:00+01:00", parsed, parsed.Truncate(day), "2020-02-01T10:30:00+01:00"}},
		{"abc", []any{"abc", fail, fail, fail, "abc", fail, fail, "abc"}},
		{zoned, []any{zoned, fail, fail, fail, "2020-02-01 09:30:00", zoned, zoned.Truncate(day), zoned}},
		{stringer{}, []any{stringer{}, fail, fail, fail, "stringer", fail, fail, stringer{}}},
	} {
		for i, typ := range types {
			got, err := CoerceTo(c.d, typ)
			switch want := c.want[i]; {
			case want == fail:
				if err == nil {
					t.Errorf("CoerceTo(%#v, %s) = %#v, want an error", c.d, typ, got)
				}
			case err != nil || got != want:
				t.Errorf("CoerceTo(%#v, %s) = %#v, %v; want %#v", c.d, typ, got, err, want)
			}
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": Int, "bigint": Int, "serial": Int,
		"text": Text, "varchar": Text,
		"double precision": Float, "numeric": Float,
		"bool": Bool, "timestamp": Timestamp, "jsonb": JSONB, "date": Date,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseType("frobnicator"); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

func TestQuoteLiteralRoundTrip(t *testing.T) {
	if got := QuoteLiteral("it's"); got != "'it''s'" {
		t.Fatalf("quoting: %s", got)
	}
	if got := QuoteLiteral(nil); got != "NULL" {
		t.Fatalf("null literal: %s", got)
	}
	if got := QuoteLiteral(int64(7)); got != "7" {
		t.Fatalf("int literal: %s", got)
	}
}

func TestHashDatumStability(t *testing.T) {
	// the hash is part of the shard placement contract: values must be
	// stable across runs and processes
	fixed := map[string]int32{}
	for _, k := range []string{"a", "tenant-42", ""} {
		fixed[k] = HashDatum(k)
	}
	for k, v := range fixed {
		if HashDatum(k) != v {
			t.Fatalf("hash of %q changed", k)
		}
	}
	// int and equal-valued float co-locate
	if HashDatum(int64(42)) != HashDatum(float64(42)) {
		t.Fatal("42 and 42.0 must hash identically")
	}
}

func TestSplitHashSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 32, 37} {
		ranges := SplitHashSpace(n)
		if len(ranges) != n {
			t.Fatalf("want %d ranges", n)
		}
		if ranges[0].Min != math.MinInt32 || ranges[n-1].Max != math.MaxInt32 {
			t.Fatalf("space not covered for n=%d", n)
		}
		for i := 1; i < n; i++ {
			if int64(ranges[i].Min) != int64(ranges[i-1].Max)+1 {
				t.Fatalf("gap between ranges %d and %d for n=%d", i-1, i, n)
			}
		}
	}
}

func TestEveryHashFallsInExactlyOneRange(t *testing.T) {
	ranges := SplitHashSpace(16)
	f := func(v int64) bool {
		h := HashDatum(v)
		matches := 0
		for _, r := range ranges {
			if r.Contains(h) {
				matches++
			}
		}
		return matches == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashDistributionIsBalanced(t *testing.T) {
	ranges := SplitHashSpace(8)
	counts := make([]int, 8)
	const n = 20000
	for i := 0; i < n; i++ {
		h := HashDatum(int64(i))
		for idx, r := range ranges {
			if r.Contains(h) {
				counts[idx]++
			}
		}
	}
	for idx, c := range counts {
		if c < n/16 || c > n/4 {
			t.Fatalf("shard %d has %d of %d values: hash is badly skewed %v", idx, c, n, counts)
		}
	}
}

func TestFormatTimestamp(t *testing.T) {
	ts := time.Date(2021, 6, 20, 12, 30, 45, 0, time.UTC)
	if got := Format(ts); got != "2021-06-20 12:30:45" {
		t.Fatalf("format: %s", got)
	}
	parsed, err := ParseTimestamp("2021-06-20 12:30:45")
	if err != nil || !parsed.Equal(ts) {
		t.Fatalf("parse: %v %v", parsed, err)
	}
}

// TestAppendFormatIsFormat: the hash join keys its buckets by AppendFormat
// and the row-path aggregate by Format; the two must be the same text.
func TestAppendFormatIsFormat(t *testing.T) {
	type other struct{ a, b int }
	for _, d := range []Datum{
		nil, int64(0), int64(-42), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), 1.0, -2.5, 1e15, 1e14, 123456789.125, 1e-7, math.NaN(), math.Inf(-1),
		true, false, "", "text",
		time.Date(2021, 6, 20, 12, 30, 45, 123456000, time.UTC),
		time.Date(2021, 6, 20, 12, 30, 45, 0, time.FixedZone("", 3600)),
		time.Time{}, other{1, 2},
	} {
		if got, want := string(AppendFormat([]byte("key:"), d)), "key:"+Format(d); got != want {
			t.Errorf("%#v: AppendFormat %q, Format %q", d, got, want)
		}
	}
}

// TestBoxedDatum: a datum built around a caller's pointer is the datum the
// compiler would have built around a copy.
func TestBoxedDatum(t *testing.T) {
	i, f, s, ts := int64(7), 2.5, "seven", time.Date(2021, 6, 20, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct{ boxed, plain Datum }{
		{BoxInt64(&i), i}, {BoxFloat64(&f), f}, {BoxString(&s), s}, {BoxTime(&ts), ts},
	} {
		if c.boxed != c.plain || TypeOf(c.boxed) != TypeOf(c.plain) || Format(c.boxed) != Format(c.plain) {
			t.Errorf("boxed %#v is not %#v", c.boxed, c.plain)
		}
	}
}

// TestParseTimestampFixedAgreesWithLayouts: the positional fast path of
// ParseTimestamp accepts only what the layout loop accepts and reads it to
// the same instant, and everything else — invalid months and days, a leap
// second, offsets, text before or behind — it leaves to the loop. So
// ParseTimestamp answers every entry exactly as the loop alone does. The fast
// path allocates nothing.
func TestParseTimestampFixedAgreesWithLayouts(t *testing.T) {
	for _, tc := range []struct {
		in    string
		fixed bool // the fast path takes it
	}{
		{"2024-01-15", true},
		{"0000-01-01", true},
		{"9999-12-31", true},
		{"2024-02-29", true},
		{"2000-02-29", true},
		{"2024-01-15 10:30:00", true},
		{"2024-01-15 23:59:59", true},
		{"2024-01-15 10:30:00.5", true},
		{"2024-01-15 10:30:00.123456", true},
		{"2024-01-15 10:30:00.123456789", true},
		{"2024-01-15T10:30:00Z", true},
		{"2024-01-15T10:30:00.25Z", true},
		{"  2024-01-15 10:30:00\n", true}, // ParseTimestamp trims first

		{"2023-02-29", false}, // no leap year
		{"1900-02-29", false},
		{"2024-02-30", false},
		{"2024-04-31", false},
		{"2024-13-01", false},
		{"2024-00-10", false},
		{"2024-01-00", false},
		{"2024-01-32", false},
		{"2024-1-15", false},
		{"24-01-15", false},
		{"2024/01/15", false},
		{"2024-01-15 24:00:00", false},
		{"2024-01-15 10:60:00", false},
		{"2024-01-15 23:59:60", false}, // leap second
		{"2024-01-15 10:30", false},
		{"2024-01-15 10:30:00.", false},
		{"2024-01-15 10:30:00,5", false},          // the loop reads a comma as a period
		{"2024-01-15 10:30:00.1234567891", false}, // ten digits: the loop cuts them to nine
		{"2024-01-15T10:30:00", false},            // no zone
		{"2024-01-15 10:30:00Z", false},
		{"2024-01-15T10:30:00+02:00", false},
		{"2024-01-15T10:30:00.5-07:00", false},
		{"2024-01-15T10:30:00z", false},
		{"2024-01-15 10:30:00 UTC", false},
		{"2024-01-15x", false},
		{"x2024-01-15", false},
		{"2024-01-15 1x:30:00", false},
		{"", false},
		{"not a date", false},
		{"２０２４-01-15", false},
	} {
		in := strings.TrimSpace(tc.in)
		want, wantErr := parseTimestampLayouts(in)
		fixed, ok := parseTimestampFixed(in)
		if ok != tc.fixed {
			t.Errorf("%q: fast path took it: %v, want %v", tc.in, ok, tc.fixed)
		}
		if ok && (wantErr != nil || fixed != want) {
			t.Errorf("%q: fast path %v, layouts %v (%v)", tc.in, fixed, want, wantErr)
		}
		got, err := ParseTimestamp(tc.in)
		if (err == nil) != (wantErr == nil) || got != want {
			t.Errorf("%q: ParseTimestamp %v (%v), layouts alone %v (%v)", tc.in, got, err, want, wantErr)
		}
		gotB, errB := ParseTimestampBytes([]byte(tc.in))
		if gotB != got || (errB == nil) != (err == nil) || (err != nil && errB.Error() != err.Error()) {
			t.Errorf("%q: ParseTimestampBytes %v (%v), ParseTimestamp %v (%v)", tc.in, gotB, errB, got, err)
		}
	}
	for _, in := range []string{"2024-01-15", "2024-01-15 10:30:00.123456", "2024-01-15T10:30:00Z"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseTimestamp(in) }); n != 0 {
			t.Errorf("ParseTimestamp(%q) allocates %v times, want 0", in, n)
		}
		b := []byte(in)
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseTimestampBytes(b) }); n != 0 {
			t.Errorf("ParseTimestampBytes(%q) allocates %v times, want 0", in, n)
		}
	}
}
