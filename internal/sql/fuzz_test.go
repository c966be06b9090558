package sql

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// FuzzParseDeparse: parsing never panics, and a statement that parses
// deparses (String) to text that parses back to the same text — the
// property every shard rewrite, plan-cache entry and worker task leans on.
// The seeds are the string literals of this package's tests and of the
// workload generators, with their format verbs filled in.
//
//	go test ./internal/sql -run '^$' -fuzz FuzzParseDeparse -fuzztime 10m
func FuzzParseDeparse(f *testing.F) {
	for _, seed := range sqlSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
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
	})
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
