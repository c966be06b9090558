package wake

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sleepAllowed names every function under internal/ and cmd/ that may call
// time.Sleep, and why. Everything else waits for an event through a
// Notifier (or a channel): a sleep in a loop pays the host's sleep floor,
// about a millisecond, on every turn, which no protocol here calls for.
var sleepAllowed = map[string]string{
	"internal/fault/fault.go checkSlow":           "fault delay: a rule's injected latency",
	"internal/citus/executor.go finishTask":       "retry backoff after a transient task error",
	"internal/repl/repl.go ship":                  "retry backoff after a failed ship",
	"internal/workload/workload.go RunClosedLoop": "think time between a client's operations",
	"internal/wire/tcp.go recv":                   "simulated network round trip, until the figures come from a model",
	"internal/bufpool/bufpool.go Access":          "simulated page-miss latency, until the figures come from a model",
	"internal/fault/chaos/chaos.go Quiesce":       "chaos harness: waits for a cluster under faults to settle",
	"internal/soak/invariants.go quiesce2PC":      "soak harness: waits for in-doubt transactions to resolve",
	"internal/soak/invariants.go drainRepl":       "soak harness: waits for standbys to catch up before a check",
}

// TestNoPollingSleeps walks the non-test Go files under internal/ and cmd/
// and fails on a time.Sleep outside sleepAllowed, and on an allowlist entry
// that no longer sleeps.
func TestNoPollingSleeps(t *testing.T) {
	root := filepath.Join("..", "..")
	found := map[string]bool{}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, fn := range sleepers(f) {
				found[filepath.ToSlash(rel)+" "+fn] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var bad []string
	for site := range found {
		if _, ok := sleepAllowed[site]; !ok {
			bad = append(bad, site)
		}
	}
	sort.Strings(bad)
	for _, site := range bad {
		t.Errorf("time.Sleep in %s: wait on a wake.Notifier instead, or allowlist it with its reason", site)
	}
	for site := range sleepAllowed {
		if !found[site] {
			t.Errorf("allowlisted %s no longer sleeps: drop it from sleepAllowed", site)
		}
	}
}

// sleepers returns the names of f's functions that call time.Sleep, under
// whatever name f imports package time.
func sleepers(f *ast.File) []string {
	timeName := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" {
		return nil
	}
	var out []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		sleeps := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName {
					sleeps = true
				}
			}
			return !sleeps
		})
		if sleeps {
			out = append(out, fn.Name.Name)
		}
	}
	return out
}
