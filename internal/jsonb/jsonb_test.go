package jsonb

import (
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	v, err := Parse(`{"b": 2, "a": [1, "x", null, true]}`)
	if err != nil {
		t.Fatal(err)
	}
	// keys sort deterministically (binary JSONB semantics)
	if got := v.String(); got != `{"a": [1, "x", null, true], "b": 2}` {
		t.Fatalf("render: %s", got)
	}
	if _, err := Parse(`{"unterminated": `); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestNavigation(t *testing.T) {
	v := MustParse(`{"payload": {"commits": [{"message": "fix postgres"}, {"message": "docs"}]}}`)
	p, ok := v.Get("payload")
	if !ok {
		t.Fatal("missing payload")
	}
	commits, ok := p.Get("commits")
	if !ok {
		t.Fatal("missing commits")
	}
	n, err := commits.ArrayLength()
	if err != nil || n != 2 {
		t.Fatalf("len=%d err=%v", n, err)
	}
	first, ok := commits.Index(0)
	if !ok {
		t.Fatal("missing index 0")
	}
	msg, ok := first.Get("message")
	if !ok {
		t.Fatal("missing message")
	}
	text, ok := msg.Text()
	if !ok || text != "fix postgres" {
		t.Fatalf("text: %q", text)
	}
	// negative index
	last, ok := commits.Index(-1)
	if !ok {
		t.Fatal("negative index failed")
	}
	m, _ := last.Get("message")
	if s, _ := m.Text(); s != "docs" {
		t.Fatalf("last message: %s", s)
	}
	// absent key
	if _, ok := v.Get("nope"); ok {
		t.Fatal("absent key should not resolve")
	}
}

func TestTextOfScalars(t *testing.T) {
	if s, ok := MustParse(`"hello"`).Text(); !ok || s != "hello" {
		t.Fatalf("string text: %q %v", s, ok)
	}
	if s, ok := MustParse(`42`).Text(); !ok || s != "42" {
		t.Fatalf("number text: %q", s)
	}
	if _, ok := MustParse(`null`).Text(); ok {
		t.Fatal("null maps to SQL NULL")
	}
	if s, ok := MustParse(`{"a": 1}`).Text(); !ok || s != `{"a": 1}` {
		t.Fatalf("object text: %q", s)
	}
}

func TestPathQueryArray(t *testing.T) {
	v := MustParse(`{"payload": {"commits": [{"message": "one"}, {"message": "two"}]}}`)
	out, err := v.PathQueryArray("$.payload.commits[*].message")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != `["one", "two"]` {
		t.Fatalf("path result: %s", out.String())
	}
	// indexed step
	out, err = v.PathQueryArray("$.payload.commits[1].message")
	if err != nil || out.String() != `["two"]` {
		t.Fatalf("indexed path: %s %v", out.String(), err)
	}
	// no match is an empty array, not an error
	out, err = v.PathQueryArray("$.nothing[*].x")
	if err != nil || out.String() != "[]" {
		t.Fatalf("empty path: %s %v", out.String(), err)
	}
	if _, err := v.PathQueryArray("payload"); err == nil {
		t.Fatal("path must start with $")
	}
}

func TestContains(t *testing.T) {
	doc := MustParse(`{"a": 1, "b": {"c": [1, 2, 3]}, "tags": ["x", "y"]}`)
	for _, sub := range []string{
		`{"a": 1}`,
		`{"b": {"c": [2]}}`,
		`{"tags": ["y"]}`,
		`{}`,
	} {
		if !doc.Contains(MustParse(sub)) {
			t.Errorf("expected %s to be contained", sub)
		}
	}
	for _, sub := range []string{
		`{"a": 2}`,
		`{"b": {"c": [9]}}`,
		`{"missing": 1}`,
	} {
		if doc.Contains(MustParse(sub)) {
			t.Errorf("expected %s NOT to be contained", sub)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// String() output must re-parse to an identical document
	f := func(a int64, s string, b bool) bool {
		v := FromGo(map[string]any{
			"n":    a,
			"s":    s,
			"b":    b,
			"list": []any{a, s, b, nil},
		})
		back, err := Parse(v.String())
		if err != nil {
			return false
		}
		return back.String() == v.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	v := MustParse(`{"x": [1, 2, {"y": "z"}]}`)
	b := v.AppendWire(nil)
	if len(b) != v.WireSize() {
		t.Fatalf("WireSize %d, AppendWire wrote %d bytes", v.WireSize(), len(b))
	}
	back, err := FromWire(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != v.String() {
		t.Fatalf("wire round trip: %s vs %s", back.String(), v.String())
	}
}

func TestContainsReflexiveProperty(t *testing.T) {
	f := func(n int64, s string) bool {
		v := FromGo(map[string]any{"n": n, "s": s})
		return v.Contains(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
