package jsonb

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"unicode/utf8"
)

// FuzzJSONB compares the flat encoding with the tree oracle on arbitrary
// text, and checks that arbitrary bytes never get past FromWire in a state
// an operator cannot handle.
func FuzzJSONB(f *testing.F) {
	docs := []string{
		`null`, `true`, `-0`, `1e400`, `12345678901234567890`, `0.1`, `"aé😀\ud800x"`,
		`{"b": 2, "a": [1, "x", null, true], "a": {"dup": "last wins"}}`,
		`{"payload": {"commits": [{"message": "fix <b> & postgres"}, {"message": "docs\n"}]}}`,
		`[[], {}, [[1, [2, [3]]]], "\"\\\/\b\f\n\r\t"]`,
		`{"a": 1} trailing`, `[1, 2`, `{"k" 1}`, `01`, "\xff",
	}
	paths := []string{"$", "$.payload.commits[*].message", "$[*]", "$[-1]", "$.a[0]", "a", "$.", "$[x]"}
	for i, d := range docs {
		var raw []byte
		if v, err := Parse(d); err == nil {
			raw = v.AppendWire(nil)
		}
		f.Add(d, docs[(i+1)%len(docs)], paths[i%len(paths)], raw)
	}
	f.Add(`{}`, `[]`, `$`, []byte(`{"text": "form"}`))

	f.Fuzz(func(t *testing.T, doc, other, path string, raw []byte) {
		fuzzText(t, doc, other, path)
		fuzzBytes(t, raw, path)
	})
}

func fuzzText(t *testing.T, doc, other, path string) {
	v, err := Parse(doc)
	if !utf8.ValidString(doc) {
		if err == nil {
			t.Fatalf("Parse accepted invalid UTF-8 %q", doc)
		}
		return
	}
	o, oerr := oracleParse(doc)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("Parse(%q): flat err=%v, oracle err=%v", doc, err, oerr)
	}
	if err != nil {
		return
	}
	agree(t, v, o)

	qv, qerr := v.PathQueryArray(path)
	qo, qoerr := o.PathQueryArray(path)
	if (qerr == nil) != (qoerr == nil) {
		t.Fatalf("PathQueryArray(%q): flat err=%v, oracle err=%v", path, qerr, qoerr)
	}
	if qerr == nil {
		agree(t, qv, qo)
		// the path's text written from the matches is the text of the array
		// built from them, on top of whatever the buffer held
		p, err := CompilePath(path)
		if err != nil {
			t.Fatalf("CompilePath(%q) refused a path PathQueryArray took: %v", path, err)
		}
		if got, want := string(v.AppendPathText([]byte("x"), p)), "x"+qv.String(); got != want {
			t.Fatalf("AppendPathText(%q) of %s: %s, want %s", path, v, got, want)
		}
	}

	if !v.Contains(v) {
		t.Fatalf("%s does not contain itself", v)
	}
	if v2, err := Parse(other); err == nil {
		if o2, err := oracleParse(other); err == nil {
			if got, want := v.Contains(v2), o.Contains(o2); got != want {
				t.Fatalf("%s @> %s = %v, oracle says %v", v, v2, got, want)
			}
		}
	}

	// rendering is a fixed point of parsing
	back, err := Parse(v.String())
	if err != nil || back.String() != v.String() {
		t.Fatalf("Parse(String()) of %s: %s, %v", v, back, err)
	}
	wireRoundTrip(t, v, qv)
}

// agree walks both representations in step and compares every accessor.
func agree(t *testing.T, v Value, o oracle) {
	t.Helper()
	if got, want := v.String(), unescapeHTML(o.String()); got != want {
		t.Fatalf("String: flat %s, oracle %s", got, want)
	}
	if got, want := string(v.AppendText(nil)), v.String(); got != want {
		t.Fatalf("AppendText(nil) = %s, String() = %s", got, want)
	}
	gt, gok := v.Text()
	if at, aok := v.AppendAsText([]byte("x")); string(at) != "x"+gt || aok != gok {
		t.Fatalf("AppendAsText: %q %v, Text: %q %v", at, aok, gt, gok)
	}
	wt, wok := o.Text()
	if _, isString := o.v.(string); !isString {
		wt = unescapeHTML(wt) // a composite's text is its rendering
	}
	if gt != wt || gok != wok {
		t.Fatalf("Text: flat %q %v, oracle %q %v", gt, gok, wt, wok)
	}
	gn, gok := v.Number()
	wn, wok := o.Number()
	if gn != wn || gok != wok {
		t.Fatalf("Number: flat %v %v, oracle %v %v", gn, gok, wn, wok)
	}
	gl, gerr := v.ArrayLength()
	wl, werr := o.ArrayLength()
	if gl != wl || (gerr == nil) != (werr == nil) {
		t.Fatalf("ArrayLength: flat %d %v, oracle %d %v", gl, gerr, wl, werr)
	}
	if v.IsNull() != (o.v == nil) {
		t.Fatalf("IsNull: flat %v on %s", v.IsNull(), o)
	}
	wantKind := map[Kind]bool{Null: o.v == nil, Number: wok, Array: werr == nil}
	switch o.v.(type) {
	case bool:
		wantKind[Bool] = true
	case string:
		wantKind[String] = true
	case map[string]any:
		wantKind[Object] = true
	}
	if !wantKind[v.Kind()] {
		t.Fatalf("Kind: flat %s on %s", v.Kind(), o)
	}

	switch ot := o.v.(type) {
	case []any:
		for i := -len(ot) - 1; i <= len(ot); i++ {
			ge, gok := v.Index(i)
			we, wok := o.Index(i)
			if gok != wok {
				t.Fatalf("Index(%d) of %s: flat %v, oracle %v", i, o, gok, wok)
			}
			if gok && i >= 0 {
				agree(t, ge, we)
			}
		}
		if _, ok := v.Get("0"); ok {
			t.Fatalf("Get on the array %s", o)
		}
	case map[string]any:
		for k := range ot {
			ge, gok := v.Get(k)
			we, _ := o.Get(k)
			if !gok {
				t.Fatalf("Get(%q) of %s: flat misses it", k, o)
			}
			agree(t, ge, we)
			if _, ok := v.Get(k + "\x00"); ok {
				t.Fatalf("Get(%q) of %s found a key that is not there", k+"\x00", o)
			}
		}
		if _, ok := v.Index(0); ok {
			t.Fatalf("Index on the object %s", o)
		}
	default:
		if _, ok := v.Get(""); ok {
			t.Fatalf("Get on the scalar %s", o)
		}
	}
}

// wireRoundTrip sends two values through one buffer, as two datums of a
// frame are. Decoding must be the identity, and must copy: the buffer is
// reused for the next frame, so a decoded Value that aliased it would change
// under its owner.
func wireRoundTrip(t *testing.T, a, b Value) {
	t.Helper()
	buf := b.AppendWire(a.AppendWire(nil))
	gotA, err := FromWire(buf[:a.WireSize()])
	if err != nil {
		t.Fatalf("wire form of %s refused: %v", a, err)
	}
	gotB, err := FromWire(buf[a.WireSize():])
	if err != nil {
		t.Fatalf("wire form of %s refused: %v", b, err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !bytes.Equal(gotA.b, a.node()) || !bytes.Equal(gotB.b, b.node()) {
		t.Fatalf("wire round trip changed %s or %s", a, b)
	}
}

// fuzzBytes: whatever FromWire accepts, every operator must handle.
func fuzzBytes(t *testing.T, raw []byte, path string) {
	in := bytes.Clone(raw)
	v, err := FromWire(in)
	if err != nil {
		return
	}
	for i := range in {
		in[i] = 0xff // the value must not alias its input
	}
	exercise(t, v, path)
	if back, err := FromWire(v.AppendWire(nil)); err != nil || !bytes.Equal(back.b, v.b) {
		t.Fatalf("re-encoding an accepted datum: %v", err)
	}
}

func exercise(t *testing.T, v Value, path string) {
	t.Helper()
	text := v.String()
	_, _ = v.PathQueryArray(path)
	if self := v.Contains(v); !self && !hasNaN(v) {
		t.Fatalf("%s does not contain itself", text)
	}
	if utf8.ValidString(text) && !hasNaN(v) {
		if back, err := Parse(text); err != nil || back.String() != text {
			t.Fatalf("Parse(String()) of %s: %v", text, err)
		}
	}
	walk(t, v)
}

// walk reaches every node through the exported accessors.
func walk(t *testing.T, v Value) {
	t.Helper()
	_, _ = v.Text()
	_ = v.IsNull()
	if f, ok := v.Number(); ok != (v.Kind() == Number) {
		t.Fatalf("Number %v %v on a %s", f, ok, v.Kind())
	}
	switch v.Kind() {
	case Array:
		n, err := v.ArrayLength()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			e, ok := v.Index(i)
			if !ok {
				t.Fatalf("Index(%d) of %d missing", i, n)
			}
			walk(t, e)
		}
	case Object:
		count, table, kids := children(v.b)
		keys := make([]string, count)
		for i := range keys {
			k, val := member(child(table, kids, i))
			keys[i] = string(k)
			got, ok := v.Get(keys[i])
			if !ok || !bytes.Equal(got.b, val) {
				t.Fatalf("Get(%q) does not find member %d", k, i)
			}
			walk(t, got)
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("accepted unsorted keys %q", keys)
		}
	}
}

// hasNaN: bytes can spell a NaN or an infinity, which text cannot, and NaN
// is not equal to itself.
func hasNaN(v Value) bool {
	switch v.Kind() {
	case Number:
		f, _ := v.Number()
		return math.IsNaN(f) || math.IsInf(f, 0)
	case Array:
		n, _ := v.ArrayLength()
		for i := 0; i < n; i++ {
			if e, _ := v.Index(i); hasNaN(e) {
				return true
			}
		}
	case Object:
		count, table, kids := children(v.b)
		for i := 0; i < count; i++ {
			if _, val := member(child(table, kids, i)); hasNaN(Value{b: val}) {
				return true
			}
		}
	}
	return false
}
