package expr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// testScope resolves column i of a row by name.
type testScope struct {
	names []string
	typs  []types.Type
}

func (s testScope) Resolve(_, column string) (int, types.Type, error) {
	for i, n := range s.names {
		if n == column {
			return i, s.typs[i], nil
		}
	}
	return 0, types.Unknown, fmt.Errorf("column %q does not exist", column)
}

func mustParseExpr(t *testing.T, src string) sql.Expr {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

// TestFoldAgreesWithUnfolded evaluates each expression twice: spelled with
// parameters, which Compile must leave live, and with the same values as
// literals, which it folds. Value, type and error must agree.
func TestFoldAgreesWithUnfolded(t *testing.T) {
	cases := []struct {
		src    string
		params []types.Datum
	}{
		{"$1 + $2 * 3", []types.Datum{int64(2), int64(5)}},
		{"$1 / $2", []types.Datum{int64(7), int64(2)}},
		{"$1 / $2", []types.Datum{int64(1), int64(0)}}, // errors on both sides
		{"$1 * 1.5 - $2", []types.Datum{int64(4), 0.25}},
		{"-$1", []types.Datum{int64(9)}},
		{"NOT $1", []types.Datum{true}},
		{"$1::timestamp", []types.Datum{"1995-03-15"}},
		{"$1::bigint + 1", []types.Datum{"41"}},
		{"$1::timestamp", []types.Datum{"not a date"}},
		{"date_trunc('month', $1::timestamp)", []types.Datum{"1995-03-15 10:11:12"}},
		{"CASE WHEN $1 > 0 THEN 'pos' ELSE 'neg' END", []types.Datum{int64(-3)}},
		{"CASE $1 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", []types.Datum{int64(2)}},
		{"coalesce(NULL, $1, 1 / 0)", []types.Datum{"x"}},
		{"upper($1) || '-' || length($1)", []types.Datum{"abc"}},
		{"$1 IN (1, 2, 3)", []types.Datum{int64(4)}},
		{"$1 IN (1, NULL)", []types.Datum{int64(4)}},
		{"$1 BETWEEN 1 AND 10", []types.Datum{int64(10)}},
		{"$1 LIKE 'a%'", []types.Datum{"abc"}},
		{"$1 IS NULL", []types.Datum{nil}},
		{"round($1, 2)", []types.Datum{3.14159}},
		{"greatest($1, 3, NULL)", []types.Datum{int64(2)}},
		{"md5($1)", []types.Datum{"citus"}},
		{"$1 AND NULL", []types.Datum{false}},
		{"$1 OR NULL", []types.Datum{false}},
	}
	for _, tc := range cases {
		folded := tc.src
		for i := len(tc.params); i >= 1; i-- {
			folded = strings.ReplaceAll(folded, "$"+strconv.Itoa(i), types.QuoteLiteral(tc.params[i-1]))
		}
		live, lit := mustParseExpr(t, tc.src), mustParseExpr(t, folded)
		if _, immutable := constSubexpr(live); immutable {
			t.Errorf("%s: a parameterised expression classed immutable", tc.src)
		}
		if _, immutable := constSubexpr(lit); !immutable {
			t.Errorf("%s: not classed immutable", folded)
		}
		liveEv, err := Compile(live, nil)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.src, err)
		}
		litEv, err := Compile(lit, nil)
		if err != nil {
			t.Fatalf("compile %s: %v", folded, err)
		}
		want, wantErr := liveEv(&Ctx{Params: tc.params})
		got, gotErr := litEv(&Ctx{})
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Errorf("%s: folded error %v, unfolded error %v", folded, gotErr, wantErr)
			continue
		}
		if types.TypeOf(got) != types.TypeOf(want) || types.Compare(got, want) != 0 {
			t.Errorf("%s: folded %v (%s), unfolded %v (%s)", folded,
				got, types.TypeOf(got), want, types.TypeOf(want))
		}
	}
}

// TestFoldClassification: what may never be folded, and what the
// vectorized path may still bind once per execution.
func TestFoldClassification(t *testing.T) {
	cases := []struct {
		src                string
		rowFree, immutable bool
	}{
		{"1 + 2", true, true},
		{"'1995-03-15'::timestamp", true, true},
		{"lower('X') || 'y'", true, true},
		{"$1 + 1", true, false},
		{"now()", true, false},
		{"date_trunc('day', now())", true, false},
		{"random() < 0.5", true, false},
		{"nextval('s')", true, false},
		{"some_udf(1)", true, false},
		{"x + 1", false, false},
		{"(SELECT 1)", false, false},
		{"EXISTS (SELECT 1)", false, false},
		{"1 IN (SELECT 1)", false, false},
		{"sum(1)", false, false},
	}
	for _, tc := range cases {
		rowFree, immutable := constSubexpr(mustParseExpr(t, tc.src))
		if rowFree != tc.rowFree || immutable != tc.immutable {
			t.Errorf("%s: rowFree=%v immutable=%v, want %v %v", tc.src, rowFree, immutable, tc.rowFree, tc.immutable)
		}
		if RowFree(mustParseExpr(t, tc.src)) != tc.rowFree {
			t.Errorf("%s: RowFree disagrees", tc.src)
		}
	}
}

// TestFoldCallsImmutableOnceVolatileEveryTime counts calls: a function
// registered the way an extension registers one is volatile and runs per
// evaluation; the same function declared immutable runs once, at compile.
func TestFoldCallsImmutableOnceVolatileEveryTime(t *testing.T) {
	calls := 0
	RegisterScalar("fold_probe", func([]types.Datum) (types.Datum, error) {
		calls++
		return int64(calls), nil
	})
	t.Cleanup(func() {
		delete(Scalars, "fold_probe")
		delete(immutableFuncs, "fold_probe")
	})
	run := func() {
		t.Helper()
		ev, err := Compile(mustParseExpr(t, "x + fold_probe() * 2"), testScope{names: []string{"x"}, typs: []types.Type{types.Int}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := ev(&Ctx{Row: types.Row{int64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if calls != 3 {
		t.Fatalf("volatile function ran %d times over 3 rows, want 3", calls)
	}
	calls = 0
	immutableFuncs["fold_probe"] = true
	run()
	if calls != 1 {
		t.Fatalf("immutable function ran %d times over 3 rows, want 1 (at compile)", calls)
	}
}

// TestFoldKeepsClockLive: now() compiled before t0 must report a time not
// before t0, and random() must not repeat.
func TestFoldKeepsClockLive(t *testing.T) {
	nowEv, err := Compile(mustParseExpr(t, "now()"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	v, err := nowEv(&Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(time.Time).Before(t0) {
		t.Fatalf("now() = %v is earlier than %v: folded at compile", v, t0)
	}
	randEv, err := Compile(mustParseExpr(t, "random()"), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := randEv(&Ctx{})
	b, _ := randEv(&Ctx{})
	if a == b {
		t.Fatalf("random() returned %v twice: folded at compile", a)
	}
}

// TestFoldErrorStaysLazy: a constant that fails to evaluate is an error of
// the row that reaches it, not of compilation.
func TestFoldErrorStaysLazy(t *testing.T) {
	if got := evalConst(t, "CASE WHEN false THEN 1 / 0 ELSE 7 END"); got != int64(7) {
		t.Fatalf("untaken 1/0 arm: got %v, want 7", got)
	}
	sc := testScope{names: []string{"x"}, typs: []types.Type{types.Int}}
	ev, err := Compile(mustParseExpr(t, "CASE WHEN x > 0 THEN 1 / 0 ELSE 1 END"), sc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if v, err := ev(&Ctx{Row: types.Row{int64(-1)}}); err != nil || v != int64(1) {
		t.Fatalf("x=-1: got %v, %v; want 1", v, err)
	}
	if _, err := ev(&Ctx{Row: types.Row{int64(1)}}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("x=1: got error %v, want division by zero", err)
	}
	ev, err = Compile(mustParseExpr(t, "1 / 0"), nil)
	if err != nil {
		t.Fatalf("1/0 must compile: %v", err)
	}
	if _, err := ev(&Ctx{}); err == nil {
		t.Fatal("1/0 evaluated without error")
	}
}

// TestTypedLiteralAgainstTimeColumn: an untyped literal compared with a
// timestamp or date column is a time, so midnight compares equal to the
// bare date instead of sorting after it as text does.
func TestTypedLiteralAgainstTimeColumn(t *testing.T) {
	sc := testScope{names: []string{"ts", "d", "txt"}, typs: []types.Type{types.Timestamp, types.Date, types.Text}}
	midnight := time.Date(1994, 1, 1, 0, 0, 0, 0, time.UTC)
	noon := midnight.Add(12 * time.Hour)
	cases := []struct {
		src  string
		row  types.Row
		want types.Datum
	}{
		{"ts > '1994-01-01'", types.Row{midnight, nil, nil}, false},
		{"ts >= '1994-01-01'", types.Row{midnight, nil, nil}, true},
		{"ts = '1994-01-01'", types.Row{midnight, nil, nil}, true},
		{"ts <= '1994-01-01'", types.Row{midnight, nil, nil}, true},
		{"'1994-01-01' < ts", types.Row{midnight, nil, nil}, false},
		{"'1994-01-01' < ts", types.Row{noon, nil, nil}, true},
		{"ts BETWEEN '1993-12-31' AND '1994-01-01'", types.Row{midnight, nil, nil}, true},
		{"ts NOT BETWEEN '1993-12-31' AND '1994-01-01'", types.Row{noon, nil, nil}, true},
		{"ts < '1994-01-01 12:00:00'", types.Row{midnight, nil, nil}, true},
		{"ts > '1994-01-01'", types.Row{nil, nil, nil}, nil},
		// a date column is typed by a literal that names a whole day only:
		// one with a time of day is not truncated into equality
		{"d = '1994-01-01'", types.Row{nil, midnight, nil}, true},
		{"d >= '1994-01-01 00:00:00'", types.Row{nil, midnight, nil}, true},
		{"d = '1994-01-01 12:00:00'", types.Row{nil, midnight, nil}, false},
		// not a timestamp: today's textual comparison stays
		{"ts > 'abc'", types.Row{midnight, nil, nil}, false},
		{"ts < 'abc'", types.Row{midnight, nil, nil}, true},
		// a text column is never re-typed
		{"txt > '1994-01-01'", types.Row{nil, nil, "1994-01-01 00:00:00"}, true},
	}
	for _, tc := range cases {
		ev, err := Compile(mustParseExpr(t, tc.src), sc)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.src, err)
		}
		got, err := ev(&Ctx{Row: tc.row})
		if err != nil || got != tc.want {
			t.Errorf("%s on %v: got %v, %v; want %v", tc.src, tc.row, got, err, tc.want)
		}
	}
}
