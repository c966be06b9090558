package jsonb

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestStringEscapesLikePostgres(t *testing.T) {
	// only the quote, the backslash and control characters are escaped:
	// <, > and & print as they are (encoding/json would write < ...)
	for in, want := range map[string]string{
		`{"a": "<b> & c"}`:                 `{"a": "<b> & c"}`,
		`{"<k>&": 1}`:                      `{"<k>&": 1}`,
		`"q\"b\\s\/"`:                      `"q\"b\\s/"`,
		`"\b\f\n\r\t\u0001\u001f\u007f"`:   `"\b\f\n\r\t\u0001\u001f` + "\x7f" + `"`,
		`"\u2028\u00e9\ud83d\ude00"`:       "\"\u2028é😀\"",
		`"half a pair \ud83d, \ude00"`:     "\"half a pair �, �\"",
		`[1, 1.5, -0, 1e3, 1e15, 1e-7]`:    `[1, 1.5, 0, 1000, 1e+15, 1e-07]`,
		`[123456789012345678, 0.1e1, 2E2]`: `[1.2345678901234568e+17, 1, 200]`,
	} {
		v, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%s): %v", in, err)
			continue
		}
		if got := v.String(); got != want {
			t.Errorf("Parse(%s).String() = %s, want %s", in, got, want)
		}
	}
}

func TestParseObjectKeys(t *testing.T) {
	// members are stored sorted bytewise; a repeated key keeps its last value
	v := MustParse(`{"b": 1, "a": 2, "b": {"x": 1, "x": [3]}, "": 0, "aa": null, "B": true}`)
	if got, want := v.String(), `{"": 0, "B": true, "a": 2, "aa": null, "b": {"x": [3]}}`; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	for _, key := range []string{"", "B", "a", "aa", "b"} {
		if _, ok := v.Get(key); !ok {
			t.Errorf("Get(%q) misses", key)
		}
	}
	for _, key := range []string{"A", "ab", "c", "\x00"} {
		if _, ok := v.Get(key); ok {
			t.Errorf("Get(%q) finds a key that is not there", key)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		``, ` `, `{`, `[1, 2`, `{"a": 1,}`, `[1,]`, `{"a" 1}`, `{a: 1}`, `{"a": 1} x`, `1 2`,
		`tru`, `nul`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `0x10`, `NaN`,
		`"unterminated`, `"bad \x escape"`, `"bad \u12g4"`, `"short \u12`, "\"raw\nnewline\"", `"\`,
		"\"\xff\"", "[\"\xc3\"]",
	} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %s, want an error", in, v)
		}
	}
	// a number outside float64 is an error, not a string in disguise
	for _, in := range []string{`1e400`, `-1e400`, `{"n": [1e999]}`} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "number out of range") {
			t.Errorf("Parse(%s): %v, want number out of range", in, err)
		}
	}
	if _, err := Parse(`1e-400`); err != nil {
		t.Errorf("an underflow rounds to zero: %v", err)
	}
	deep := strings.Repeat("[", maxDepth)
	if _, err := Parse(deep + strings.Repeat("]", maxDepth)); err != nil {
		t.Errorf("nesting of maxDepth: %v", err)
	}
	if _, err := Parse("[" + deep + strings.Repeat("]", maxDepth+1)); err == nil {
		t.Error("nesting beyond maxDepth parsed")
	}
}

type celsius float64

func TestFromGoIsTotal(t *testing.T) {
	ts := time.Date(2020, 2, 1, 12, 30, 0, 0, time.UTC)
	for _, c := range []struct {
		in     any
		want   string
		number bool
	}{
		{nil, `null`, false},
		{true, `true`, false},
		{"x", `"x"`, false},
		{int(-3), `-3`, true}, {int8(-8), `-8`, true}, {int16(16), `16`, true}, {int32(5), `5`, true}, {int64(64), `64`, true},
		{uint(3), `3`, true}, {uint8(8), `8`, true}, {uint16(16), `16`, true}, {uint32(32), `32`, true}, {uint64(64), `64`, true},
		{float32(1.5), `1.5`, true}, {2.25, `2.25`, true},
		{[]string{"x", `q"`}, `["x", "q\""]`, false},
		{[]any{1, "a", nil, []any{}}, `[1, "a", null, []]`, false},
		{[]map[string]any{{"a": 1}, {}}, `[{"a": 1}, {}]`, false},
		{map[string]any{"b": int32(1), "a": []string{"s"}}, `{"a": ["s"], "b": 1}`, false},
		{map[string]any{"when": ts}, `{"when": "2020-02-01T12:30:00Z"}`, false},
		{MustParse(`{"nested": [1]}`), `{"nested": [1]}`, false},
		{map[string]any{"doc": MustParse(`[true]`)}, `{"doc": [true]}`, false},
		// no JSON counterpart: the %v text, as a string, never raw
		{celsius(21.5), `"21.5"`, false},
		{struct{ A, B int }{1, 2}, `"{1 2}"`, false},
		{[]int{1, 2}, `"[1 2]"`, false},
		{map[string]string{"k": "v"}, `"map[k:v]"`, false},
	} {
		v := FromGo(c.in)
		if got := v.String(); got != c.want {
			t.Errorf("FromGo(%#v) = %s, want %s", c.in, got, c.want)
		}
		if _, ok := v.Number(); ok != c.number {
			t.Errorf("FromGo(%#v).Number() ok = %v", c.in, ok)
		}
		if err := validate(v.node(), 0); err != nil {
			t.Errorf("FromGo(%#v) is not a valid node: %v", c.in, err)
		}
		if back, err := Parse(v.String()); err != nil || back.String() != c.want {
			t.Errorf("FromGo(%#v) renders %s, which parses to %s, %v", c.in, v, back, err)
		}
	}
}

func TestKindAndZeroValue(t *testing.T) {
	for in, want := range map[string]string{
		`null`: "null", `true`: "boolean", `false`: "boolean", `0`: "number",
		`""`: "string", `[]`: "array", `{}`: "object",
	} {
		if got := MustParse(in).Kind().String(); got != want {
			t.Errorf("Kind of %s = %s, want %s", in, got, want)
		}
	}
	var zero Value
	if !zero.IsNull() || zero.String() != "null" || zero.Kind() != Null {
		t.Fatalf("the zero Value is not null: %s", zero)
	}
	if _, ok := zero.Text(); ok {
		t.Fatal("the zero Value has text")
	}
	if back, err := FromWire(zero.AppendWire(nil)); err != nil || !back.IsNull() {
		t.Fatalf("zero Value over the wire: %s %v", back, err)
	}
}

func TestSubValuesAliasTheDocument(t *testing.T) {
	doc := MustParse(`{"a": {"b": [10, {"c": "deep"}]}}`)
	a, _ := doc.Get("a")
	b, _ := a.Get("b")
	e, _ := b.Index(1)
	c, _ := e.Get("c")
	if s, _ := c.Text(); s != "deep" {
		t.Fatalf("navigated to %s", c)
	}
	// a sub-value is a self-contained node: it encodes and decodes alone
	if back, err := FromWire(e.AppendWire(nil)); err != nil || back.String() != `{"c": "deep"}` {
		t.Fatalf("sub-value over the wire: %s %v", back, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a, _ := doc.Get("a")
		b, _ := a.Get("b")
		e, _ := b.Index(-1)
		_, _ = e.Get("c")
	}); allocs != 0 {
		t.Fatalf("navigation allocates %v times", allocs)
	}
}

func TestFromWireRejectsMalformed(t *testing.T) {
	good := MustParse(`{"a": [1, "x"], "b": {"c": null}}`).AppendWire(nil)
	mutate := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	object := func(rest ...byte) []byte { return append([]byte{formatVersion, tagObject}, rest...) }
	cases := map[string][]byte{
		"empty":                nil,
		"version only":         {formatVersion},
		"old text wire form":   []byte(`{"a": 1}`),
		"text after version":   append([]byte{formatVersion}, `{"a": 1}`...),
		"future version":       mutate(0, formatVersion+1),
		"unknown tag":          mutate(1, 9),
		"count beyond bytes":   mutate(2, 0xff),
		"offset beyond bytes":  mutate(10, 0xff),
		"offsets descending":   mutate(6, 0xf0),
		"truncated":            good[:len(good)-1],
		"trailing byte":        append(bytes.Clone(good), 0),
		"literal with payload": {formatVersion, tagTrue, 0},
		"short number":         {formatVersion, tagNumber, 1, 2, 3},
		"string overrun":       {formatVersion, tagString, 5, 'a'},
		"string bad uvarint":   {formatVersion, tagString, 0x80},
		"unsorted keys":        object(2, 0, 0, 0, 3, 0, 0, 0, 6, 0, 0, 0, 1, 'b', tagNull, 1, 'a', tagNull),
		"duplicate keys":       object(2, 0, 0, 0, 3, 0, 0, 0, 6, 0, 0, 0, 1, 'a', tagNull, 1, 'a', tagNull),
		"key overrun":          object(1, 0, 0, 0, 3, 0, 0, 0, 9, 'a', tagNull),
		"member without value": object(1, 0, 0, 0, 2, 0, 0, 0, 1, 'a'),
	}
	for name, in := range cases {
		if v, err := FromWire(in); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: FromWire = %v (value %s), want ErrMalformed", name, err, v)
		}
	}
	// the hand-built layouts above are right apart from their one defect
	sorted := object(2, 0, 0, 0, 3, 0, 0, 0, 6, 0, 0, 0, 1, 'a', tagNull, 1, 'b', tagNull)
	if v, err := FromWire(sorted); err != nil || v.String() != `{"a": null, "b": null}` {
		t.Fatalf("well-formed hand-built object: %s %v", v, err)
	}
}
