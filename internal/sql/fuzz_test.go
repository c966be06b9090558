package sql

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"citusgo/internal/types"
)

// FuzzParseDeparse: parsing never panics, and a statement that parses
// deparses (String) to text that parses back to the same text — the
// property every shard rewrite, plan-cache entry and worker task leans on.
// The seeds are the string literals of this package's tests and of the
// workload generators, with their format verbs filled in.
//
// Renaming its tables to shard names (the suffix taken from i) commutes with
// deparse, and the renamed text parses.
//
// Each input also carries a datum (literalDatum picks it from kind, i, fl
// and str): a Literal holding it must deparse to text that parses back to
// an equal datum, NaN, infinities, -0, quotes and backslashes included.
//
//	go test ./internal/sql -run '^$' -fuzz FuzzParseDeparse -fuzztime 10m
func FuzzParseDeparse(f *testing.F) {
	for _, seed := range sqlSeeds(f) {
		f.Add(seed, uint8(0), int64(0), 0.0, "")
	}
	// NaN, the infinities and the smallest int64 are in testdata/fuzz: the
	// inputs that failed at first
	for _, fl := range []float64{math.Copysign(0, -1), 1e300, -2.5} {
		f.Add("", uint8(litFloat), int64(0), fl, "")
	}
	for _, i := range []int64{math.MaxInt64, -1} {
		f.Add("", uint8(litInt), i, 0.0, "")
	}
	for _, str := range []string{`it's`, `back\slash\`, `''`, `\'`, "NaN", ""} {
		f.Add("", uint8(litString), int64(0), 0.0, str)
	}
	f.Add("", uint8(litBool), int64(1), 0.0, "")
	f.Add("", uint8(litTimestamp), int64(-1), 0.0, "")
	f.Add("", uint8(litNull), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, src string, kind uint8, i int64, fl float64, str string) {
		checkLiteral(t, literalDatum(kind, i, fl, str))
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q deparses to %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q deparses to\n%q, which deparses to\n%q", src, text, got)
		}
		// renaming tables to shards commutes with deparse: a task's text is
		// the same whether the shard names go into the statement as parsed
		// or into a parse of its deparse, which is what the plan cache's
		// per-shard-group memo renames
		rename := func(name string) string { return name + "_" + strconv.FormatUint(uint64(i)%1000000, 10) }
		// an undone rename leaves the tree as it was: the planner renders
		// every shard's text from one parse, renaming and restoring it
		restore := RenameTables(again, rename)
		renamed := again.String()
		restore()
		if got := again.String(); got != text {
			t.Fatalf("%q renamed to shards and restored deparses to\n%q, not\n%q", src, got, text)
		}
		RewriteTables(again, rename)
		viaText := again.String()
		if viaText != renamed {
			t.Fatalf("%q renamed twice deparses to\n%q, then\n%q", src, renamed, viaText)
		}
		RewriteTables(stmt, rename)
		if direct := stmt.String(); direct != viaText {
			t.Fatalf("%q renamed to shards deparses to\n%q, but its deparse parsed and renamed to\n%q", src, direct, viaText)
		}
		if _, err := Parse(viaText); err != nil {
			t.Fatalf("%q renamed to shards deparses to %q, which does not parse: %v", src, viaText, err)
		}
	})
}

// The datum kinds of the literal property.
const (
	litInt = iota
	litFloat
	litString
	litBool
	litTimestamp
	litNull
	litKinds
)

// Timestamps span the years a timestamp's text can spell (four digits).
var (
	minTimestamp = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	maxTimestamp = time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC).UnixMicro()
)

// literalDatum is the datum of kind (mod litKinds) made from the fuzzed
// values: i for an int, a bool (its low bit) and a timestamp (microseconds,
// folded into the years 1-9999), fl for a float, str for a string.
func literalDatum(kind uint8, i int64, fl float64, str string) types.Datum {
	switch kind % litKinds {
	case litInt:
		return i
	case litFloat:
		return fl
	case litString:
		return str
	case litBool:
		return i&1 == 1
	case litTimestamp:
		span := uint64(maxTimestamp - minTimestamp + 1)
		return time.UnixMicro(minTimestamp + int64(uint64(i)%span)).UTC()
	}
	return nil
}

// checkLiteral: a Literal holding d deparses to text that parses back to d.
func checkLiteral(t *testing.T, d types.Datum) {
	text := (&Literal{Value: d}).String()
	stmt, err := Parse("SELECT " + text)
	if err != nil {
		t.Fatalf("literal %#v deparses to %q, which does not parse: %v", d, text, err)
	}
	got, err := constantValue(stmt.(*SelectStmt).Columns[0].Expr)
	if err != nil {
		t.Fatalf("literal %#v deparses to %q: %v", d, text, err)
	}
	if !sameDatum(got, d) {
		t.Fatalf("literal %#v deparses to %q, which parses back to %#v", d, text, got)
	}
}

// constantValue is the value of a literal, or of casts of one.
func constantValue(e Expr) (types.Datum, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *CastExpr:
		v, err := constantValue(x.E)
		if err != nil {
			return nil, err
		}
		return types.CoerceTo(v, x.To)
	}
	return nil, fmt.Errorf("%s is not a constant", e)
}

// sameDatum compares floats by their bits (so -0 is not 0, and any NaN is
// NaN) and timestamps as instants.
func sameDatum(a, b types.Datum) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && (math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y))
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	}
	return a == b
}

// formatVerb matches the fmt verbs the generators build statements with.
var formatVerb = regexp.MustCompile(`%[-+ #0-9.]*[dsvqf]`)

// sqlSeeds returns the string literals of the files the seeds come from, and
// of each one with a format verb, a copy with every verb replaced by 7.
func sqlSeeds(f *testing.F) []string {
	var files []string
	for _, pattern := range []string{"*_test.go", "../workload/*/*.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, m...)
	}
	var seeds []string
	for _, path := range files {
		file, err := goparser.ParseFile(gotoken.NewFileSet(), path, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && len(s) >= 6 {
				seeds = append(seeds, s)
				if filled := formatVerb.ReplaceAllString(s, "7"); filled != s {
					seeds = append(seeds, filled)
				}
			}
			return true
		})
	}
	if len(seeds) == 0 {
		f.Fatal("no seeds found")
	}
	return seeds
}
