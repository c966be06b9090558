package jsonb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Parse parses a JSON document into a Value. Duplicate object keys keep the
// last value, as in PostgreSQL.
func Parse(s string) (Value, error) {
	if !utf8.ValidString(s) {
		return Value{}, fmt.Errorf("invalid jsonb: input is not valid UTF-8")
	}
	p := parser{s: s, buf: make([]byte, 0, len(s)+16)}
	if err := p.value(0); err != nil {
		return Value{}, err
	}
	p.skipSpace()
	if p.pos < len(s) {
		return Value{}, p.errorf("unexpected input after the document")
	}
	if len(p.buf) > math.MaxUint32 {
		return Value{}, fmt.Errorf("invalid jsonb: document too large")
	}
	return Value{b: p.buf}, nil
}

// MustParse parses s and panics on error. For tests and generators.
func MustParse(s string) Value {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// parser builds the flat form in one pass. A container's children are
// appended first, each open container remembering where they lie in marks;
// when it closes, the children move right once to make room for the header
// and offset table, whose size is only then known.
type parser struct {
	s     string
	pos   int
	buf   []byte
	marks []mark // children of the open containers, innermost last
	tmp   []byte // scratch: string unescaping, member reordering
}

// mark locates one finished child in buf: [start,end). For an object
// member, [key,val) is the key's bytes and the value node starts at val.
type mark struct{ start, key, val, end int }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("invalid jsonb: %s at offset %d", fmt.Sprintf(format, args...), p.pos)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// next skips white space and consumes one byte, 0 at the end of input.
func (p *parser) next() byte {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0
	}
	p.pos++
	return p.s[p.pos-1]
}

func (p *parser) value(depth int) error {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return p.errorf("unexpected end of input")
	}
	switch c := p.s[p.pos]; {
	case c == '{':
		return p.object(depth)
	case c == '[':
		return p.array(depth)
	case c == '"':
		p.buf = append(p.buf, tagString)
		return p.str()
	case c == '-' || c >= '0' && c <= '9':
		return p.number()
	case strings.HasPrefix(p.s[p.pos:], "null"):
		p.buf, p.pos = append(p.buf, tagNull), p.pos+4
	case strings.HasPrefix(p.s[p.pos:], "true"):
		p.buf, p.pos = append(p.buf, tagTrue), p.pos+4
	case strings.HasPrefix(p.s[p.pos:], "false"):
		p.buf, p.pos = append(p.buf, tagFalse), p.pos+5
	default:
		return p.errorf("unexpected character %q", c)
	}
	return nil
}

func (p *parser) array(depth int) error {
	if depth >= maxDepth {
		return p.errorf("nesting too deep")
	}
	p.pos++ // [
	base, first := len(p.buf), len(p.marks)
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == ']' {
		p.pos++
		p.closeContainer(tagArray, base, first)
		return nil
	}
	for {
		start := len(p.buf)
		if err := p.value(depth + 1); err != nil {
			return err
		}
		p.marks = append(p.marks, mark{start: start, end: len(p.buf)})
		switch p.next() {
		case ',':
		case ']':
			p.closeContainer(tagArray, base, first)
			return nil
		default:
			p.pos--
			return p.errorf("expected , or ] in array")
		}
	}
}

func (p *parser) object(depth int) error {
	if depth >= maxDepth {
		return p.errorf("nesting too deep")
	}
	p.pos++ // {
	base, first := len(p.buf), len(p.marks)
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '}' {
		p.pos++
		p.closeContainer(tagObject, base, first)
		return nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '"' {
			return p.errorf("expected a string key in object")
		}
		m := mark{start: len(p.buf)}
		if err := p.str(); err != nil {
			return err
		}
		m.val = len(p.buf)
		_, w := binary.Uvarint(p.buf[m.start:])
		m.key = m.start + w
		if p.next() != ':' {
			p.pos--
			return p.errorf("expected : after object key")
		}
		if err := p.value(depth + 1); err != nil {
			return err
		}
		m.end = len(p.buf)
		p.marks = append(p.marks, m)
		switch p.next() {
		case ',':
		case '}':
			p.sortMembers(base, first)
			p.closeContainer(tagObject, base, first)
			return nil
		default:
			p.pos--
			return p.errorf("expected , or } in object")
		}
	}
}

// closeContainer turns the children marks[first:], which fill buf[base:],
// into one container node at base.
func (p *parser) closeContainer(tag byte, base, first int) {
	kids := p.marks[first:]
	header := headerSize + 4*len(kids)
	end := len(p.buf)
	p.buf = append(p.buf, make([]byte, header)...)
	copy(p.buf[base+header:], p.buf[base:end])
	p.buf[base] = tag
	binary.LittleEndian.PutUint32(p.buf[base+1:], uint32(len(kids)))
	for i, m := range kids {
		binary.LittleEndian.PutUint32(p.buf[base+headerSize+4*i:], uint32(m.end-base))
	}
	p.marks = p.marks[:first]
}

// sortMembers puts the members marks[first:] in ascending key order with
// one member per key, the last one written. Input already in that order —
// what String renders — is left where it is.
func (p *parser) sortMembers(base, first int) {
	ms := p.marks[first:]
	key := func(m mark) []byte { return p.buf[m.key:m.val] }
	byKey := func(a, b mark) int { return bytes.Compare(key(a), key(b)) }
	inOrder := true
	for i := 1; i < len(ms) && inOrder; i++ {
		inOrder = byKey(ms[i-1], ms[i]) < 0
	}
	if inOrder {
		return
	}
	slices.SortStableFunc(ms, byKey)
	kept := ms[:0]
	for i, m := range ms {
		if i+1 == len(ms) || byKey(m, ms[i+1]) != 0 {
			kept = append(kept, m)
		}
	}
	p.tmp = append(p.tmp[:0], p.buf[base:]...)
	p.buf = p.buf[:base]
	for i, m := range kept {
		start := len(p.buf)
		p.buf = append(p.buf, p.tmp[m.start-base:m.end-base]...)
		kept[i] = mark{start: start, end: len(p.buf)}
	}
	p.marks = p.marks[:first+len(kept)]
}

// str parses the string literal at pos and appends its uvarint length and
// its bytes.
func (p *parser) str() error {
	s := p.s
	start := p.pos + 1
	i := start
	for ; i < len(s) && s[i] != '\\'; i++ {
		switch c := s[i]; {
		case c == '"': // no escapes: the literal's bytes are the string's
			p.buf = binary.AppendUvarint(p.buf, uint64(i-start))
			p.buf = append(p.buf, s[start:i]...)
			p.pos = i + 1
			return nil
		case c < 0x20:
			p.pos = i
			return p.errorf("control character in string")
		}
	}
	out := append(p.tmp[:0], s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			p.buf = binary.AppendUvarint(p.buf, uint64(len(out)))
			p.buf = append(p.buf, out...)
			p.tmp, p.pos = out, i+1
			return nil
		case c < 0x20:
			p.pos = i
			return p.errorf("control character in string")
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		p.pos = i
		if i+1 >= len(s) {
			break
		}
		i += 2
		switch e := s[i-1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r := hex4(s, i)
			if r < 0 {
				return p.errorf("invalid \\u escape")
			}
			i += 4
			if utf16.IsSurrogate(r) {
				// a valid pair is one rune; half a pair is U+FFFD
				low := rune(-1)
				if strings.HasPrefix(s[i:], `\u`) {
					low = hex4(s, i+2)
				}
				if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return p.errorf("invalid escape \\%c", e)
		}
	}
	p.pos = len(s)
	return p.errorf("unterminated string")
}

// hex4 decodes the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number parses -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? into a
// float64 node.
func (p *parser) number() error {
	s, start := p.s, p.pos
	i := start
	digits := func() bool {
		from := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i > from
	}
	if s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		p.pos = i
		return p.errorf("invalid number")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			p.pos = i
			return p.errorf("invalid number: no digits after the decimal point")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			p.pos = i
			return p.errorf("invalid number: no digits in the exponent")
		}
	}
	f, err := strconv.ParseFloat(s[start:i], 64)
	if err != nil {
		return p.errorf("number out of range: %s", s[start:i])
	}
	p.pos = i
	p.buf = appendNumber(p.buf, f)
	return nil
}

func appendNumber(dst []byte, f float64) []byte {
	dst = append(dst, tagNumber)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}
