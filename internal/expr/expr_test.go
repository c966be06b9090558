package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"citusgo/internal/jsonb"
	"citusgo/internal/sql"
	"citusgo/internal/types"
)

// evalConst parses and evaluates a constant SQL expression.
func evalConst(t *testing.T, src string) types.Datum {
	t.Helper()
	e, err := sql.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ev, err := Compile(e, nil)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := ev(&Ctx{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := map[string]types.Datum{
		"1 + 2":      int64(3),
		"10 / 3":     int64(3), // integer division
		"10.0 / 4":   2.5,
		"10 % 3":     int64(1),
		"2 * 3 + 1":  int64(7),
		"-5 + 2":     int64(-3),
		"1.5 + 1":    2.5,
		"'a' || 'b'": "ab",
		"1 || 'x'":   "1x",
	}
	for src, want := range cases {
		if got := evalConst(t, src); types.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	e, _ := sql.ParseExpr("1 / 0")
	ev, _ := Compile(e, nil)
	if _, err := ev(&Ctx{}); err == nil {
		t.Fatal("division by zero must error")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := map[string]types.Datum{
		"NULL AND false": false, // false dominates
		"NULL AND true":  nil,
		"NULL OR true":   true, // true dominates
		"NULL OR false":  nil,
		"NOT NULL":       nil,
		"NULL = 1":       nil,
		"NULL IS NULL":   true,
		"1 IS NOT NULL":  true,
		"NULL + 1":       nil,
	}
	for src, want := range cases {
		got := evalConst(t, src)
		if want == nil {
			if got != nil {
				t.Errorf("%s = %v, want NULL", src, got)
			}
			continue
		}
		if types.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestInAndBetweenNullSemantics(t *testing.T) {
	cases := map[string]types.Datum{
		"2 IN (1, 2, 3)":        true,
		"5 IN (1, 2, 3)":        false,
		"5 IN (1, NULL)":        nil, // unknown
		"2 IN (2, NULL)":        true,
		"2 BETWEEN 1 AND 3":     true,
		"0 NOT BETWEEN 1 AND 3": true,
	}
	for src, want := range cases {
		got := evalConst(t, src)
		if want == nil {
			if got != nil {
				t.Errorf("%s = %v, want NULL", src, got)
			}
			continue
		}
		if types.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true}, // _ matches 'e' and 'l'
		{"hello", "h_o", false},
		{"hello", "hell", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%a%b%c%", true},
		{"postgres rocks", "%postgres%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.pat); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestMatchLikeNeverPanicsProperty(t *testing.T) {
	f := func(s, pat string) bool {
		_ = MatchLike(s, pat)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeContainsProperty(t *testing.T) {
	// %x% matches s iff x is a substring of s (when x has no wildcards)
	f := func(s string, sub string) bool {
		for _, r := range sub {
			if r == '%' || r == '_' {
				return true
			}
		}
		for _, r := range s {
			if r == '%' || r == '_' {
				return true
			}
		}
		want := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				want = true
				break
			}
		}
		return MatchLike(s, "%"+sub+"%") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// likeRef is LIKE by definition: % matches any run, _ any one byte.
func likeRef(s, p string) bool {
	if p == "" {
		return s == ""
	}
	if p[0] == '%' {
		for i := 0; i <= len(s); i++ {
			if likeRef(s[i:], p[1:]) {
				return true
			}
		}
		return false
	}
	return s != "" && (p[0] == '_' || p[0] == s[0]) && likeRef(s[1:], p[1:])
}

// TestMatchLikeAgainstReference drives the backtracking matcher, its skip to
// the next occurrence of the literal after %, and ILIKE's folding (byte by
// byte for ASCII text, strings.ToLower otherwise) with short strings over a
// small alphabet, where near-misses and repeats are common. Every third
// pattern is wrapped in %…%, which with no wildcard inside is the substring
// search; and what Match says of a string, MatchBytes says of its bytes.
func TestMatchLikeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(alphabet []rune, max int) string {
		r := make([]rune, rng.Intn(max))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	texts, patterns := []rune("aabBAé\u212A"), []rune("abBA%%_é\u212A")
	for i := 0; i < 20000; i++ {
		if i == 10000 {
			texts = []rune("abAB") // ASCII only: the folding-in-place path
		}
		s, pat := gen(texts, 9), gen(patterns, 6)
		if i%3 == 0 {
			pat = "%" + pat + "%"
		}
		if got, want := MatchLike(s, pat), likeRef(s, pat); got != want {
			t.Fatalf("MatchLike(%q, %q) = %v, want %v", s, pat, got, want)
		}
		lowered := strings.ToLower(pat)
		if got, want := matchLike(s, lowered, true), likeRef(strings.ToLower(s), lowered); got != want {
			t.Fatalf("ILIKE: matchLike(%q, %q, fold) = %v, want %v", s, lowered, got, want)
		}
		for _, ilike := range []bool{false, true} {
			if p := CompileLike(pat, ilike); p.MatchBytes([]byte(s)) != p.Match(s) {
				t.Fatalf("MatchBytes(%q) against %q (ilike %v) = %v, Match says %v", s, pat, ilike, !p.Match(s), p.Match(s))
			}
		}
	}
}

func TestILikeEvaluator(t *testing.T) {
	for src, want := range map[string]bool{
		"'Fix POSTGRES bug' ILIKE '%Postgres%'":     true,
		"'Fix POSTGRES bug' LIKE '%Postgres%'":      false,
		"'Fix POSTGRES bug' NOT ILIKE '%postgres%'": false,
		"'ÉCOLE' ILIKE 'école'":                     true,
		"'abc' ILIKE 'A_' || 'C'":                   true, // a folded, non-literal pattern
		"'a_c' ILIKE 'A_C'":                         true,
	} {
		if got := evalConst(t, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestCaseExpr(t *testing.T) {
	if got := evalConst(t, "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END"); got != "b" {
		t.Fatalf("searched case: %v", got)
	}
	if got := evalConst(t, "CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"); got != "two" {
		t.Fatalf("simple case: %v", got)
	}
	if got := evalConst(t, "CASE 9 WHEN 1 THEN 'one' END"); got != nil {
		t.Fatalf("no-match case: %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := map[string]types.Datum{
		"length('hello')":          int64(5),
		"upper('abc')":             "ABC",
		"lower('ABC')":             "abc",
		"substr('hello', 2, 3)":    "ell",
		"coalesce(NULL, NULL, 3)":  int64(3),
		"nullif(1, 1)":             nil,
		"nullif(1, 2)":             int64(1),
		"greatest(1, 5, 3)":        int64(5),
		"least(1, 5, 3)":           int64(1),
		"abs(-4)":                  int64(4),
		"floor(2.7)":               2.0,
		"ceil(2.1)":                3.0,
		"round(2.456, 2)":          2.46,
		"mod(10, 3)":               int64(1),
		"strpos('hello', 'll')":    int64(3),
		"replace('aaa', 'a', 'b')": "bbb",
		"concat('a', NULL, 'b')":   "ab",
		"repeat('ab', 3)":          "ababab",
	}
	for src, want := range cases {
		got := evalConst(t, src)
		if want == nil {
			if got != nil {
				t.Errorf("%s = %v, want NULL", src, got)
			}
			continue
		}
		if types.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	e, _ := sql.ParseExpr("no_such_function(1)")
	if _, err := Compile(e, nil); err == nil {
		t.Fatal("unknown function compiled")
	}
}

func TestDateTrunc(t *testing.T) {
	if got := evalConst(t, "date_trunc('day', '2021-06-20 13:14:15'::timestamp)"); types.Format(got) != "2021-06-20 00:00:00" {
		t.Fatalf("day trunc: %v", types.Format(got))
	}
	if got := evalConst(t, "date_trunc('month', '2021-06-20'::timestamp)"); types.Format(got) != "2021-06-01 00:00:00" {
		t.Fatalf("month trunc: %v", types.Format(got))
	}
	if got := evalConst(t, "date_part('year', '2021-06-20'::timestamp)"); got.(float64) != 2021 {
		t.Fatalf("date_part: %v", got)
	}
}

func TestJSONBFunctions(t *testing.T) {
	doc := jsonb.MustParse(`{"payload": {"commits": [{"message": "fix"}, {"message": "add"}]}}`)
	ctx := &Ctx{Row: types.Row{doc}}
	resolver := fixedResolver{}

	e, _ := sql.ParseExpr("jsonb_array_length(data->'payload'->'commits')")
	ev, err := Compile(e, resolver)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev(ctx)
	if err != nil || v.(int64) != 2 {
		t.Fatalf("array length: %v %v", v, err)
	}

	e, _ = sql.ParseExpr("jsonb_path_query_array(data, '$.payload.commits[*].message')::text")
	ev, err = Compile(e, resolver)
	if err != nil {
		t.Fatal(err)
	}
	v, err = ev(ctx)
	if err != nil || v.(string) != `["fix", "add"]` {
		t.Fatalf("path query: %v %v", v, err)
	}
}

// fixedResolver maps any column to offset 0.
type fixedResolver struct{}

func (fixedResolver) Resolve(table, column string) (int, types.Type, error) {
	return 0, types.JSONB, nil
}

func TestAggStates(t *testing.T) {
	sum, _ := NewAggState("sum", false)
	for i := 1; i <= 4; i++ {
		_ = sum.Add(int64(i))
	}
	_ = sum.Add(nil) // NULLs skipped
	if sum.Result().(int64) != 10 {
		t.Fatalf("sum: %v", sum.Result())
	}

	avg, _ := NewAggState("avg", false)
	_ = avg.Add(int64(1))
	_ = avg.Add(int64(2))
	if avg.Result().(float64) != 1.5 {
		t.Fatalf("avg: %v", avg.Result())
	}

	cnt, _ := NewAggState("count", true)
	for _, v := range []types.Datum{int64(1), int64(1), int64(2), nil} {
		_ = cnt.Add(v)
	}
	if cnt.Result().(int64) != 2 {
		t.Fatalf("count distinct: %v", cnt.Result())
	}

	mn, _ := NewAggState("min", false)
	mx, _ := NewAggState("max", false)
	for _, v := range []types.Datum{int64(5), int64(2), int64(9)} {
		_ = mn.Add(v)
		_ = mx.Add(v)
	}
	if mn.Result().(int64) != 2 || mx.Result().(int64) != 9 {
		t.Fatalf("min/max: %v %v", mn.Result(), mx.Result())
	}

	// empty aggregates
	empty, _ := NewAggState("sum", false)
	if empty.Result() != nil {
		t.Fatal("sum of nothing must be NULL")
	}
	emptyCount, _ := NewAggState("count", false)
	if emptyCount.Result().(int64) != 0 {
		t.Fatal("count of nothing must be 0")
	}

	if _, err := NewAggState("median", false); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
}

func TestSumPartialMergeProperty(t *testing.T) {
	// sum(all) == sum(partial sums): the identity the distributed
	// aggregation rewrite relies on
	f := func(values []int64) bool {
		whole, _ := NewAggState("sum", false)
		half1, _ := NewAggState("sum", false)
		half2, _ := NewAggState("sum", false)
		for i, v := range values {
			_ = whole.Add(v)
			if i%2 == 0 {
				_ = half1.Add(v)
			} else {
				_ = half2.Add(v)
			}
		}
		merged, _ := NewAggState("sum", false)
		_ = merged.Add(half1.Result())
		_ = merged.Add(half2.Result())
		w, m := whole.Result(), merged.Result()
		if w == nil || m == nil {
			return (w == nil) == (m == nil) || len(values) > 0
		}
		return types.Compare(w, m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsAggregate(t *testing.T) {
	e, _ := sql.ParseExpr("1 + sum(x)")
	if !ContainsAggregate(e) {
		t.Fatal("missed aggregate")
	}
	e, _ = sql.ParseExpr("upper(x) || 'y'")
	if ContainsAggregate(e) {
		t.Fatal("false aggregate")
	}
	e, _ = sql.ParseExpr("CASE WHEN count(*) > 1 THEN 1 ELSE 0 END")
	if !ContainsAggregate(e) {
		t.Fatal("missed aggregate in CASE")
	}
}

func TestCastDatum(t *testing.T) {
	v, err := CastDatum("123", types.Int)
	if err != nil || v.(int64) != 123 {
		t.Fatalf("cast: %v %v", v, err)
	}
	j, err := CastDatum(`{"a": 1}`, types.JSONB)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.(jsonb.Value); !ok {
		t.Fatalf("jsonb cast: %T", j)
	}
	s, err := CastDatum(j, types.Text)
	if err != nil || s.(string) != `{"a": 1}` {
		t.Fatalf("jsonb->text: %v %v", s, err)
	}
	if _, err := CastDatum("not json", types.JSONB); err == nil {
		t.Fatal("bad json cast accepted")
	}
}
