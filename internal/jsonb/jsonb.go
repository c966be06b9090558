// Package jsonb implements the JSONB datum and the subset of PostgreSQL's
// JSONB operators that the workloads in the paper rely on: -> / ->>
// navigation, jsonb_array_length, jsonb_typeof, jsonb_path_query_array with
// wildcard array steps, and containment.
//
// A Value is one flat byte string, produced once by Parse or FromGo and
// then carried unchanged over the wire, into the heap tuple and through
// every operator, which navigate it in place (PostgreSQL's JSONB container
// idea). Every node is self-contained, so a child is a sub-slice of its
// parent:
//
//	null | false | true   tag
//	number                tag, float64 (8 bytes, little-endian)
//	string                tag, uvarint length, bytes
//	array                 tag, count (uint32), count end offsets (uint32), elements
//	object                tag, count (uint32), count end offsets (uint32), members
//
// All integers are little-endian. An end offset is where that child stops,
// counted from the first byte after the offset table; a child starts where
// its predecessor ends. An object member is its key (uvarint length, bytes)
// followed by its value node; members are sorted bytewise by key and keys
// are unique, so -> is a binary search and rendering needs no sort.
package jsonb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagNumber
	tagString
	tagArray
	tagObject
)

// formatVersion leads the wire form. It is no byte a JSON text can start
// with, so a text payload is refused instead of being misread.
const formatVersion = 1

// maxDepth bounds container nesting in Parse and ValidateWire, and with it the
// recursion of every operator.
const maxDepth = 10000

// headerSize is a container's tag and count; its offset table follows.
const headerSize = 5

// ErrMalformed is wrapped by every ValidateWire failure: the bytes are not a
// jsonb datum of this format version.
var ErrMalformed = errors.New("malformed jsonb datum")

// Value is a JSONB document or a part of one. The zero Value is JSON null.
type Value struct {
	b []byte // one node; sub-values alias their document
}

// IsJSONB marks Value as the JSONB datum for package types.
func (Value) IsJSONB() {}

var nullNode = []byte{tagNull}

func (j Value) node() []byte {
	if len(j.b) == 0 {
		return nullNode
	}
	return j.b
}

func u32(b []byte) int { return int(binary.LittleEndian.Uint32(b)) }

// children splits a container node into its child count, end-offset table
// and child area.
func children(n []byte) (count int, table, kids []byte) {
	count = u32(n[1:])
	return count, n[headerSize : headerSize+4*count], n[headerSize+4*count:]
}

// child returns the i-th child of a container: an element node, or a member.
func child(table, kids []byte, i int) []byte {
	start := 0
	if i > 0 {
		start = u32(table[4*(i-1):])
	}
	end := u32(table[4*i:])
	return kids[start:end:end]
}

// uvarint is binary.Uvarint with the one-byte case, lengths below 128,
// decided before the general loop.
func uvarint(b []byte) (n, width int) {
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	v, w := binary.Uvarint(b)
	return int(v), w
}

// member splits an object member into its key and its value node.
func member(m []byte) (key, val []byte) {
	n, w := uvarint(m)
	return m[w : w+n], m[w+n:]
}

// str returns the bytes of a string node.
func str(n []byte) []byte {
	l, w := uvarint(n[1:])
	return n[1+w : 1+w+l]
}

func number(n []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(n[1:]))
}

// lookup binary-searches an object node for key and returns the value node,
// or nil.
func lookup(n []byte, key string) []byte {
	count, table, kids := children(n)
	lo, hi := 0, count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, v := member(child(table, kids, mid))
		if string(k) == key {
			return v
		}
		if string(k) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return nil
}

// element returns the i-th element node of an array node, counting from the
// end when i is negative, or nil.
func element(n []byte, i int) []byte {
	count, table, kids := children(n)
	if i < 0 {
		i += count
	}
	if i < 0 || i >= count {
		return nil
	}
	return child(table, kids, i)
}

// Kind is the JSON type of a value.
type Kind uint8

const (
	Null Kind = iota
	Bool
	Number
	String
	Array
	Object
)

// String is the name jsonb_typeof reports.
func (k Kind) String() string {
	return [...]string{"null", "boolean", "number", "string", "array", "object"}[k]
}

// Kind reports the JSON type of the value.
func (j Value) Kind() Kind {
	switch j.node()[0] {
	case tagFalse, tagTrue:
		return Bool
	case tagNumber:
		return Number
	case tagString:
		return String
	case tagArray:
		return Array
	case tagObject:
		return Object
	}
	return Null
}

// IsNull reports whether the document is JSON null.
func (j Value) IsNull() bool { return j.node()[0] == tagNull }

// Get implements the -> operator with a text key: object field access.
// Returns ok=false when the field is absent or the value is not an object.
func (j Value) Get(key string) (Value, bool) {
	if n := j.node(); n[0] == tagObject {
		if v := lookup(n, key); v != nil {
			return Value{b: v}, true
		}
	}
	return Value{}, false
}

// Index implements the -> operator with an integer key: array element
// access. Negative indexes count from the end, as in PostgreSQL.
func (j Value) Index(i int) (Value, bool) {
	if n := j.node(); n[0] == tagArray {
		if e := element(n, i); e != nil {
			return Value{b: e}, true
		}
	}
	return Value{}, false
}

// Text implements the ->> operator's final step: scalar values render
// unquoted, composite values render as JSON text. Returns ok=false for
// JSON null (which maps to SQL NULL).
func (j Value) Text() (string, bool) {
	switch n := j.node(); n[0] {
	case tagNull:
		return "", false
	case tagString:
		return string(str(n)), true
	}
	return j.String(), true
}

// AppendAsText is Text into a buffer: what ->> yields is appended to dst, and
// no string is made of it.
func (j Value) AppendAsText(dst []byte) ([]byte, bool) {
	switch n := j.node(); n[0] {
	case tagNull:
		return dst, false
	case tagString:
		return append(dst, str(n)...), true
	default:
		return appendText(dst, n), true
	}
}

// ArrayLength implements jsonb_array_length.
func (j Value) ArrayLength() (int, error) {
	n := j.node()
	if n[0] != tagArray {
		return 0, fmt.Errorf("cannot get array length of a non-array")
	}
	return u32(n[1:]), nil
}

// Number returns the numeric value of a JSON number.
func (j Value) Number() (float64, bool) {
	n := j.node()
	if n[0] != tagNumber {
		return 0, false
	}
	return number(n), true
}

// String renders the value as JSON text the way PostgreSQL prints jsonb:
// object keys in stored (sorted) order, ", " and ": " separators, and only
// the quote, the backslash and control characters escaped.
func (j Value) String() string {
	n := j.node()
	b := appendText(make([]byte, 0, len(n)), n)
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never written again
}

// AppendText appends String() to dst.
func (j Value) AppendText(dst []byte) []byte { return appendText(dst, j.node()) }

// appendText is the one writer of JSON text: String, AppendText, AppendAsText
// and AppendPathText are all it.
func appendText(dst, n []byte) []byte {
	switch n[0] {
	case tagNull:
		return append(dst, "null"...)
	case tagFalse:
		return append(dst, "false"...)
	case tagTrue:
		return append(dst, "true"...)
	case tagNumber:
		f := number(n)
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.AppendInt(dst, int64(f), 10)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case tagString:
		return appendQuoted(dst, str(n))
	case tagArray:
		count, table, kids := children(n)
		dst = append(dst, '[')
		for i := 0; i < count; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendText(dst, child(table, kids, i))
		}
		return append(dst, ']')
	case tagObject:
		count, table, kids := children(n)
		dst = append(dst, '{')
		for i := 0; i < count; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			key, val := member(child(table, kids, i))
			dst = append(appendQuoted(dst, key), ": "...)
			dst = appendText(dst, val)
		}
		return append(dst, '}')
	}
	return dst
}

const hexDigits = "0123456789abcdef"

func appendQuoted(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i, c := range s {
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		start = i + 1
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, `\b`...)
		case '\f':
			dst = append(dst, `\f`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(append(dst, s[start:]...), '"')
}

// Contains implements the @> containment operator: j contains other when
// every structure in other appears in j (object subset, array element
// subset, scalar equality).
func (j Value) Contains(other Value) bool { return contains(j.node(), other.node()) }

func contains(a, b []byte) bool {
	switch b[0] {
	case tagObject:
		if a[0] != tagObject {
			return false
		}
		// both member lists are sorted by key: one merge pass
		an, atable, akids := children(a)
		bn, btable, bkids := children(b)
		ai := 0
		for bi := 0; bi < bn; bi++ {
			bk, bv := member(child(btable, bkids, bi))
			for {
				if ai == an {
					return false
				}
				ak, av := member(child(atable, akids, ai))
				ai++
				if c := bytes.Compare(ak, bk); c > 0 {
					return false
				} else if c == 0 {
					if !contains(av, bv) {
						return false
					}
					break
				}
			}
		}
		return true
	case tagArray:
		if a[0] != tagArray {
			return false
		}
		an, atable, akids := children(a)
		bn, btable, bkids := children(b)
		for bi := 0; bi < bn; bi++ {
			be := child(btable, bkids, bi)
			found := false
			for ai := 0; ai < an && !found; ai++ {
				found = contains(child(atable, akids, ai), be)
			}
			if !found {
				return false
			}
		}
		return true
	case tagNumber:
		return a[0] == tagNumber && number(a) == number(b)
	case tagString:
		return a[0] == tagString && bytes.Equal(str(a), str(b))
	}
	return a[0] == b[0]
}

// WireSize is the length of the datum's wire form.
func (j Value) WireSize() int { return 1 + len(j.node()) }

// AppendWire appends the datum's wire form: the format version byte, then
// the node bytes exactly as they sit in memory.
func (j Value) AppendWire(dst []byte) []byte {
	return append(append(dst, formatVersion), j.node()...)
}

// ValidateWire checks, in one pass and without building anything, that b is
// the wire form of a datum: the version byte, then everything the operators
// rely on (see validate). A node that only forwards the datum does this and
// no more.
func ValidateWire(b []byte) error {
	if len(b) == 0 || b[0] != formatVersion {
		return fmt.Errorf("%w: not format version %d", ErrMalformed, formatVersion)
	}
	if err := validate(b[1:], 0); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nil
}

// FromValidWire copies a datum out of a wire form that ValidateWire has
// accepted into the front of dst, which must have room for its len(b)-1
// bytes, and returns it with the rest of dst. The datum's capacity ends with
// its bytes, so nothing appended to it can reach what follows it in dst.
func FromValidWire(dst, b []byte) (Value, []byte) {
	n := len(b) - 1
	v := dst[:n:n]
	copy(v, b[1:])
	return Value{b: v}, dst[n:]
}

// ViewValidWire is FromValidWire without the copy: the datum aliases b, a
// wire form that ValidateWire has accepted and that nothing writes again (a
// heap tuple's). Its capacity ends with its bytes.
func ViewValidWire(b []byte) Value { return Value{b: b[1:len(b):len(b)]} }

// FromWire is ValidateWire followed by FromValidWire into bytes of its own:
// nothing is parsed, a receiver pays for the check and the copy.
func FromWire(b []byte) (Value, error) {
	if err := ValidateWire(b); err != nil {
		return Value{}, err
	}
	v, _ := FromValidWire(make([]byte, len(b)-1), b)
	return v, nil
}

// validate checks that n is exactly one well-formed node: lengths and
// offsets in bounds, children filling their container with no gap, object
// keys strictly ascending, nesting within maxDepth. The operators index a
// Value's bytes without further checks.
func validate(n []byte, depth int) error {
	if len(n) == 0 {
		return errors.New("empty node")
	}
	switch n[0] {
	case tagNull, tagFalse, tagTrue:
		if len(n) != 1 {
			return errors.New("trailing bytes after a literal")
		}
	case tagNumber:
		if len(n) != 9 {
			return errors.New("a number is not 8 bytes")
		}
	case tagString:
		l, w := binary.Uvarint(n[1:])
		if w <= 0 || l != uint64(len(n)-1-w) {
			return errors.New("string length does not match its node")
		}
	case tagArray, tagObject:
		if depth >= maxDepth {
			return errors.New("nesting too deep")
		}
		if len(n) < headerSize || (len(n)-headerSize)/4 < u32(n[1:]) {
			return errors.New("offset table out of bounds")
		}
		count, table, kids := children(n)
		start := 0
		var prevKey []byte
		for i := 0; i < count; i++ {
			end := u32(table[4*i:])
			if end < start || end > len(kids) {
				return errors.New("child offset out of bounds")
			}
			c := kids[start:end]
			if n[0] == tagObject {
				l, w := binary.Uvarint(c)
				if w <= 0 || l > uint64(len(c)-w) {
					return errors.New("key length out of bounds")
				}
				key := c[w : w+int(l)]
				if i > 0 && bytes.Compare(prevKey, key) >= 0 {
					return errors.New("object keys not in ascending order")
				}
				prevKey, c = key, c[w+int(l):]
			}
			if err := validate(c, depth+1); err != nil {
				return err
			}
			start = end
		}
		if start != len(kids) {
			return errors.New("bytes after the last child")
		}
	default:
		return fmt.Errorf("unknown tag %d", n[0])
	}
	return nil
}
