package jsonb

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// PathQueryArray implements a practical subset of
// jsonb_path_query_array(doc, '$.a.b[*].c'): dotted field steps and [*]
// wildcard array steps, returning all matches wrapped in a JSON array.
// This is exactly the shape the paper's GitHub-archive benchmark uses
// ('$.payload.commits[*].message').
func (j Value) PathQueryArray(path string) (Value, error) {
	steps, err := compilePath(path)
	if err != nil {
		return Value{}, err
	}
	var stack [8][]byte
	matches := collectPath(stack[:0], j.node(), steps)

	size := headerSize + 4*len(matches)
	for _, m := range matches {
		size += len(m)
	}
	out := make([]byte, headerSize+4*len(matches), size)
	out[0] = tagArray
	binary.LittleEndian.PutUint32(out[1:], uint32(len(matches)))
	end := 0
	for i, m := range matches {
		out = append(out, m...)
		end += len(m)
		binary.LittleEndian.PutUint32(out[headerSize+4*i:], uint32(end))
	}
	return Value{b: out}, nil
}

// Path is a compiled jsonpath of the subset PathQueryArray implements, for a
// caller that applies one path to many documents.
type Path struct{ steps []pathStep }

// CompilePath parses path.
func CompilePath(path string) (Path, error) {
	steps, err := compilePath(path)
	return Path{steps: steps}, err
}

// AppendPathText appends the text of the array PathQueryArray returns for p —
// its String() — to dst, from the matches themselves: the array is never built.
func (j Value) AppendPathText(dst []byte, p Path) []byte {
	var stack [8][]byte
	dst = append(dst, '[')
	for i, m := range collectPath(stack[:0], j.node(), p.steps) {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendText(dst, m)
	}
	return append(dst, ']')
}

type pathStep struct {
	field    string // field access when non-empty
	wildcard bool   // [*] step
	index    int    // [n] step when !wildcard and field==""
}

// compiledPaths memoizes parsePath: an index expression or a dashboard
// evaluates one path string once per row. Path strings normally come from
// SQL text, so there are few; past maxCompiledPaths distinct ones (paths
// computed from data) new ones are compiled per call instead of retained.
var (
	compiledPaths     sync.Map // path string -> []pathStep
	compiledPathCount atomic.Int32
)

const maxCompiledPaths = 1024

func compilePath(path string) ([]pathStep, error) {
	if steps, ok := compiledPaths.Load(path); ok {
		return steps.([]pathStep), nil
	}
	steps, err := parsePath(path)
	if err != nil {
		return nil, err
	}
	if compiledPathCount.Load() < maxCompiledPaths {
		if _, raced := compiledPaths.LoadOrStore(strings.Clone(path), steps); !raced {
			compiledPathCount.Add(1)
		}
	}
	return steps, nil
}

func parsePath(path string) ([]pathStep, error) {
	path = strings.TrimSpace(path)
	if !strings.HasPrefix(path, "$") {
		return nil, fmt.Errorf("jsonpath must start with $: %q", path)
	}
	rest := path[1:]
	var steps []pathStep
	for rest != "" {
		switch {
		case strings.HasPrefix(rest, "."):
			rest = rest[1:]
			end := strings.IndexAny(rest, ".[")
			if end == -1 {
				end = len(rest)
			}
			name := rest[:end]
			if name == "" {
				return nil, fmt.Errorf("empty field step in jsonpath")
			}
			steps = append(steps, pathStep{field: name})
			rest = rest[end:]
		case strings.HasPrefix(rest, "[*]"):
			steps = append(steps, pathStep{wildcard: true})
			rest = rest[3:]
		case strings.HasPrefix(rest, "["):
			end := strings.Index(rest, "]")
			if end == -1 {
				return nil, fmt.Errorf("unterminated [ in jsonpath")
			}
			n, err := strconv.Atoi(rest[1:end])
			if err != nil {
				return nil, fmt.Errorf("bad array index in jsonpath: %w", err)
			}
			steps = append(steps, pathStep{index: n})
			rest = rest[end+1:]
		default:
			return nil, fmt.Errorf("unexpected jsonpath syntax near %q", rest)
		}
	}
	return steps, nil
}

// collectPath appends to out the nodes of n that steps selects. The matches
// alias n.
func collectPath(out [][]byte, n []byte, steps []pathStep) [][]byte {
	if len(steps) == 0 {
		return append(out, n)
	}
	step, rest := steps[0], steps[1:]
	switch {
	case step.field != "":
		if n[0] == tagObject {
			if v := lookup(n, step.field); v != nil {
				out = collectPath(out, v, rest)
			}
		}
	case n[0] != tagArray:
	case step.wildcard:
		count, table, kids := children(n)
		for i := 0; i < count; i++ {
			out = collectPath(out, child(table, kids, i), rest)
		}
	default:
		if e := element(n, step.index); e != nil {
			out = collectPath(out, e, rest)
		}
	}
	return out
}
