package jsonb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// oracle is the tree implementation this package had before the flat
// encoding: an encoding/json value (nil, bool, float64, string, []any,
// map[string]any) and operators that walk it. It stays, as it was, as the
// reference the differential tests compare the flat encoding against.
type oracle struct {
	v any
}

// oracleParse is the old Parse, made strict where the flat Parse
// deliberately differs from it: input after the document and numbers
// outside float64 are errors (the old code ignored the first and stored the
// second as a string).
func oracleParse(s string) (oracle, error) {
	var v any
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return oracle{}, fmt.Errorf("invalid jsonb: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return oracle{}, fmt.Errorf("invalid jsonb: input after the document")
	}
	var rangeErr error
	v = oracleNormalize(v, &rangeErr)
	return oracle{v: v}, rangeErr
}

func oracleNormalize(v any, rangeErr *error) any {
	switch t := v.(type) {
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			*rangeErr = fmt.Errorf("invalid jsonb: number out of range: %s", t)
		}
		return f
	case int:
		return float64(t)
	case int64:
		return float64(t)
	case []any:
		for i := range t {
			t[i] = oracleNormalize(t[i], rangeErr)
		}
		return t
	case map[string]any:
		for k := range t {
			t[k] = oracleNormalize(t[k], rangeErr)
		}
		return t
	default:
		return v
	}
}

func (j oracle) String() string {
	var sb strings.Builder
	oracleWriteJSON(&sb, j.v)
	return sb.String()
}

func oracleWriteJSON(sb *strings.Builder, v any) {
	switch t := v.(type) {
	case nil:
		sb.WriteString("null")
	case bool:
		if t {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case float64:
		if t == math.Trunc(t) && math.Abs(t) < 1e15 {
			sb.WriteString(strconv.FormatInt(int64(t), 10))
		} else {
			sb.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		}
	case string:
		b, _ := json.Marshal(t)
		sb.Write(b)
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteString(", ")
			}
			oracleWriteJSON(sb, e)
		}
		sb.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			b, _ := json.Marshal(k)
			sb.Write(b)
			sb.WriteString(": ")
			oracleWriteJSON(sb, t[k])
		}
		sb.WriteByte('}')
	default:
		sb.WriteString(fmt.Sprintf("%v", t))
	}
}

// unescapeHTML undoes, in the oracle's rendering, the escapes json.Marshal
// adds and PostgreSQL (and the flat renderer) does not: <, >, &, U+2028 and
// U+2029. That is the one intended difference in String output.
func unescapeHTML(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			sb.WriteByte(s[i])
			continue
		}
		if s[i+1] == 'u' && i+6 <= len(s) {
			raw := map[string]string{"003c": "<", "003e": ">", "0026": "&", "2028": "\u2028", "2029": "\u2029"}[s[i+2:i+6]]
			if raw != "" {
				sb.WriteString(raw)
				i += 5
				continue
			}
		}
		sb.WriteString(s[i : i+2]) // any other escape, \\ included, passes as a pair
		i++
	}
	return sb.String()
}

func (j oracle) Get(key string) (oracle, bool) {
	obj, ok := j.v.(map[string]any)
	if !ok {
		return oracle{}, false
	}
	v, ok := obj[key]
	if !ok {
		return oracle{}, false
	}
	return oracle{v: v}, true
}

func (j oracle) Index(i int) (oracle, bool) {
	arr, ok := j.v.([]any)
	if !ok {
		return oracle{}, false
	}
	if i < 0 {
		i += len(arr)
	}
	if i < 0 || i >= len(arr) {
		return oracle{}, false
	}
	return oracle{v: arr[i]}, true
}

func (j oracle) Text() (string, bool) {
	switch t := j.v.(type) {
	case nil:
		return "", false
	case string:
		return t, true
	default:
		return j.String(), true
	}
}

func (j oracle) ArrayLength() (int, error) {
	arr, ok := j.v.([]any)
	if !ok {
		return 0, fmt.Errorf("cannot get array length of a non-array")
	}
	return len(arr), nil
}

func (j oracle) Number() (float64, bool) {
	f, ok := j.v.(float64)
	return f, ok
}

func (j oracle) PathQueryArray(path string) (oracle, error) {
	steps, err := parsePath(path)
	if err != nil {
		return oracle{}, err
	}
	var out []any
	oracleCollectPath(j.v, steps, &out)
	return oracle{v: out}, nil
}

func oracleCollectPath(v any, steps []pathStep, out *[]any) {
	if len(steps) == 0 {
		*out = append(*out, v)
		return
	}
	step := steps[0]
	switch {
	case step.field != "":
		if obj, ok := v.(map[string]any); ok {
			if child, ok := obj[step.field]; ok {
				oracleCollectPath(child, steps[1:], out)
			}
		}
	case step.wildcard:
		if arr, ok := v.([]any); ok {
			for _, e := range arr {
				oracleCollectPath(e, steps[1:], out)
			}
		}
	default:
		if arr, ok := v.([]any); ok {
			i := step.index
			if i < 0 {
				i += len(arr)
			}
			if i >= 0 && i < len(arr) {
				oracleCollectPath(arr[i], steps[1:], out)
			}
		}
	}
}

func (j oracle) Contains(other oracle) bool { return oracleContains(j.v, other.v) }

func oracleContains(a, b any) bool {
	switch bt := b.(type) {
	case map[string]any:
		at, ok := a.(map[string]any)
		if !ok {
			return false
		}
		for k, bv := range bt {
			av, ok := at[k]
			if !ok || !oracleContains(av, bv) {
				return false
			}
		}
		return true
	case []any:
		at, ok := a.([]any)
		if !ok {
			return false
		}
		for _, bv := range bt {
			found := false
			for _, av := range at {
				if oracleContains(av, bv) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	default:
		return oracleEqualScalar(a, b)
	}
}

func oracleEqualScalar(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch at := a.(type) {
	case float64:
		bf, ok := b.(float64)
		return ok && at == bf
	case string:
		bs, ok := b.(string)
		return ok && at == bs
	case bool:
		bb, ok := b.(bool)
		return ok && at == bb
	}
	return false
}
