package rowbatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// A heap tuple is its row as a batch of that one row. AppendTuple writes it
// once, into the array of the heap page that stores it (TupleSize says how
// much room to make first), and nothing writes it again: the heap, the
// write-ahead log and a checkpoint's image all hold that one array. EncodeRow
// writes one into an array of its own, for a row no heap stores (a columnar
// table's log record). DecodeRow reads a tuple back as a row whose strings
// and jsonb documents alias it, and an Arena does so for the many rows of a
// scan; Pick finds the datums of a few columns, for a reader that wants them
// unboxed (the vectorized heap scan); TupleLen finds where a tuple ends among
// others packed behind it. A tuple stored before an ALTER TABLE … ADD COLUMN
// has fewer datums than its table has columns: the columns past its end read
// as NULL.

// EncodeRow returns row as a batch of that one row, in an array of exactly
// its length. It fails where TupleSize fails.
func EncodeRow(row types.Row) ([]byte, error) {
	n, err := TupleSize(row)
	if err != nil {
		return nil, err
	}
	return AppendTuple(make([]byte, 0, n), row)
}

// TupleSize returns how many bytes AppendTuple appends for row. It fails on a
// row without datums and on a Go type that is not a datum.
func TupleSize(row types.Row) (int, error) {
	if len(row) == 0 {
		return 0, errors.New("rowbatch: rows without columns")
	}
	n := uvarintLen(uint64(len(row))) + 1
	for _, d := range row {
		k := datumSize(d)
		if k == 0 {
			return 0, fmt.Errorf("rowbatch: %T is not a datum", d)
		}
		n += k
	}
	return n, nil
}

// AppendTuple appends row as a batch of that one row: TupleSize bytes, which
// fit in dst's capacity when the caller made room for them. On an error dst
// comes back as it was.
func AppendTuple(dst []byte, row types.Row) ([]byte, error) {
	if len(row) == 0 {
		return dst, errors.New("rowbatch: rows without columns")
	}
	start := len(dst)
	dst = append(binary.AppendUvarint(dst, uint64(len(row))), 1)
	for _, d := range row {
		var err error
		if dst, err = appendDatum(dst, d); err != nil {
			return dst[:start], err
		}
	}
	return dst, nil
}

// TupleLen returns the length of the tuple b starts with: tuples packed back
// to back, a heap page's, are read one after the other by it.
func TupleLen(b []byte) int {
	n, i := header(b)
	for ; n > 0; n-- {
		_, _, i = datumAt(b, i)
	}
	return i
}

// datumSize is how many bytes appendDatum appends for d, 0 for a Go type
// that is not a datum.
func datumSize(d types.Datum) int {
	switch v := d.(type) {
	case nil:
		return 1
	case bool:
		return 2
	case int64, float64:
		return 9
	case string:
		return 1 + uvarintLen(uint64(len(v))) + len(v)
	case time.Time:
		return 1 + timeSize
	case jsonb.Value:
		n := v.WireSize()
		return 1 + uvarintLen(uint64(n)) + n
	}
	return 0
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// DecodeRow decodes a tuple AppendTuple wrote. Its strings and jsonb documents
// alias tuple, which must never be written again; its other datums point
// into one array per kind present, as Batch.Cells's do.
func DecodeRow(tuple []byte) types.Row {
	var d Decoder
	return d.Decode(tuple)
}

// Decoder is DecodeRow into storage it keeps: the row Decode returns, and
// what its datums other than strings and documents point at, are written
// again by the next call. A caller that keeps a datum past it boxes the
// value anew.
type Decoder struct {
	pos   positions
	row   types.Row
	words []uint64
	times []time.Time
	strs  []string
	docs  []jsonb.Value
}

// Decode is DecodeRow, into d's storage.
func (d *Decoder) Decode(tuple []byte) types.Row {
	n, pos := d.pos.find(tuple, nil)
	c := kindsOf(pos)
	d.row, d.words, d.times, d.strs, d.docs = reuse(d.row, n), reuse(d.words, c.words), reuse(d.times, c.times), reuse(d.strs, c.strs), reuse(d.docs, c.docs)
	fill(tuple, nil, pos, d.row, d.words, d.times, d.strs, d.docs)
	return d.row
}

// Arena decodes the rows a scan hands on, which may be kept: each row and
// what its datums point at are cut from chunks it allocates, so a scan of
// many rows makes a few allocations, not a few per row. A kept row keeps its
// chunks alive. The chunks grow from one row's worth, so a scan that returns
// one row allocates no more than DecodeRow would.
type Arena struct {
	grow int // rows' worth the next chunk of each kind holds
	pos  positions
	// the last row, the columns it was decoded for and how many of them
	// its tuple has, which Unread clears
	last     types.Row
	lastCols []int
	decoded  int
	row      chunk[types.Datum]
	words    chunk[uint64]
	times    chunk[time.Time]
	strs     chunk[string]
	docs     chunk[jsonb.Value]
}

// maxChunkRows bounds how many rows' worth of storage one chunk holds.
const maxChunkRows = 64

// Decode is DecodeRow into r's chunks, of the columns cols lists — ascending —
// or of every column when cols is nil. The other columns read as NULL; the
// row is as wide as the tuple.
func (r *Arena) Decode(tuple []byte, cols []int) types.Row {
	if r.grow == 0 {
		r.grow = 1
	}
	n, pos := r.pos.find(tuple, cols)
	c := kindsOf(pos)
	row := r.row.cut(n, r.grow) // all NULL: fresh, or cleared by Unread
	fill(tuple, cols, pos, row, r.words.cut(c.words, r.grow), r.times.cut(c.times, r.grow), r.strs.cut(c.strs, r.grow), r.docs.cut(c.docs, r.grow))
	if r.row.refilled {
		r.grow = min(2*r.grow, maxChunkRows)
	}
	r.last, r.lastCols, r.decoded = row, cols, len(pos)
	return row
}

// Unread gives back the storage of the row Decode returned last, which the
// caller has dropped and nothing keeps: a scan whose filter refuses a row.
// The datums Decode wrote are cleared, so that a row cut from the storage
// again starts all NULL.
func (r *Arena) Unread() {
	if r.lastCols == nil {
		clear(r.last)
	} else {
		for _, col := range r.lastCols[:r.decoded] {
			r.last[col] = nil
		}
	}
	r.row.unread()
	r.words.unread()
	r.times.unread()
	r.strs.unread()
	r.docs.unread()
}

// chunk is the unused rest of one kind's storage in an Arena.
type chunk[T any] struct {
	free, last []T // the unused rest, and the rest before the last cut
	refilled   bool
}

// cut returns k elements of c's storage, first allocating k × rows of them
// when fewer than k are left. Its capacity is k, so appending to it moves it.
func (c *chunk[T]) cut(k, rows int) []T {
	c.refilled = len(c.free) < k
	if c.refilled {
		c.free = make([]T, k*rows)
	}
	c.last = c.free
	s := c.free[:k:k]
	c.free = c.free[k:]
	return s
}

func (c *chunk[T]) unread() { c.free = c.last }

// kinds counts a row's datums by the storage they are boxed in.
type kinds struct{ words, times, strs, docs int }

// kindsOf counts the datums at pos by the storage they are boxed in.
func kindsOf(pos []Pos) (c kinds) {
	for _, p := range pos {
		switch p.tag {
		case tagInt64, tagFloat64:
			c.words++
		case tagTime:
			c.times++
		case tagString:
			c.strs++
		case tagJSONB:
			c.docs++
		}
	}
	return c
}

// positions is where a decoder finds a row's columns: in place for a row
// of up to 16, so that decoding one row allocates nothing for them.
type positions struct {
	buf  [16]Pos
	wide []Pos
}

// find returns how many datums tuple holds and where each of the columns
// cols lists lies (walk), in p's storage.
func (p *positions) find(tuple []byte, cols []int) (n int, pos []Pos) {
	if n, _ = header(tuple); n <= len(p.buf) {
		return walk(tuple, cols, p.buf[:0])
	}
	n, p.wide = walk(tuple, cols, p.wide[:0])
	return n, p.wide
}

// walk returns how many datums tuple holds, and pos holding where each of
// the columns cols lists — ascending — lies, or every column when cols is
// nil; a column past the tuple's end is left out.
func walk(tuple []byte, cols []int, pos []Pos) (n int, _ []Pos) {
	n, i := header(tuple)
	if cols != nil {
		k, _ := slices.BinarySearch(cols, n) // the columns the tuple has
		pos = slices.Grow(pos[:0], k)[:k]
		Pick(tuple, cols[:k], pos)
		return n, pos
	}
	pos = pos[:0]
	for col := 0; col < n; col++ {
		tag, at, end := datumAt(tuple, i)
		i = end
		pos = append(pos, Pos{tag: tag, at: uint32(at), end: uint32(end)})
	}
	return n, pos
}

// fill decodes into row the datums walk found at pos — column cols[k] for
// pos[k], or column k when cols is nil — boxing values into ws, ts, ss and
// ds, which kindsOf sized.
func fill(tuple []byte, cols []int, pos []Pos, row types.Row, ws []uint64, ts []time.Time, ss []string, ds []jsonb.Value) {
	for k, p := range pos {
		col := k
		if cols != nil {
			col = cols[k]
		}
		fd := p.In(tuple)
		switch p.tag {
		case tagNull:
			row[col] = nil
		case tagInt64, tagFloat64:
			ws[0] = binary.LittleEndian.Uint64(fd.v)
			if p.tag == tagInt64 {
				row[col] = boxInt64(&ws[0])
			} else {
				row[col] = boxFloat64(&ws[0])
			}
			ws = ws[1:]
		case tagBool:
			row[col] = fd.Bool()
		case tagString:
			ss[0] = fd.Text()
			row[col] = types.BoxString(&ss[0])
			ss = ss[1:]
		case tagTime:
			ts[0] = fd.Time()
			row[col] = types.BoxTime(&ts[0])
			ts = ts[1:]
		case tagJSONB:
			ds[0] = fd.JSONB()
			row[col] = BoxJSONB(&ds[0])
			ds = ds[1:]
		}
	}
}

// reuse returns n elements of s's storage, or of new storage when s has too
// little.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BoxJSONB returns the datum *p, pointing at p: a reader that decodes many
// documents boxes them into one array of its own (types/box.go).
func BoxJSONB(p *jsonb.Value) types.Datum { return boxJSONB(p) }

// header returns how many datums tuple holds and where the first starts.
func header(tuple []byte) (n, first int) {
	n, i := uvarintAt(tuple, 0)
	return n, i + 1 // past the row count, 1
}

// datumAt reads the datum whose tag is tuple[i]: the tag, and where its value
// starts and ends — where the next datum's tag is.
func datumAt(tuple []byte, i int) (tag byte, at, end int) {
	tag = tuple[i]
	at, l := i+1, int(valueLen[tag&7])
	if l < 0 {
		l, at = uvarintAt(tuple, at)
	}
	return tag, at, at + l
}

// valueLen is the length of a datum's value behind its tag, by tag; -1 for
// the lengths a uvarint gives.
var valueLen = [8]int8{tagNull: 0, tagInt64: 8, tagFloat64: 8, tagBool: 1, tagString: -1, tagTime: timeSize, tagJSONB: -1}

// uvarintAt reads the uvarint at b[i].
func uvarintAt(b []byte, i int) (v, next int) {
	if c := b[i]; c < 0x80 {
		return int(c), i + 1
	}
	x, w := binary.Uvarint(b[i:])
	return int(x), i + w
}

// Pos is where one datum lies in a tuple: Pick's answer, which holds no
// pointer, so that filling a buffer of them costs no write barrier.
type Pos struct {
	tag     byte
	at, end uint32 // the value's bytes, behind its tag and length
}

// In returns the datum at p in tuple, the one Pick read.
func (p Pos) In(tuple []byte) Field {
	return Field{tag: p.tag, v: tuple[p.at:p.end:p.end]}
}

// Pick sets out[k] to where datum cols[k] of tuple lies for every k — cols
// ascending, out as long — walking the tuple once, as far as its last
// column needed; past the tuple's end a datum is the zero Pos, NULL.
func Pick(tuple []byte, cols []int, out []Pos) {
	n, i := header(tuple)
	c := 0
	for k, want := range cols {
		if want >= n {
			clear(out[k:])
			return
		}
		// datumAt written out: this loop is the vectorized heap scan's
		// hottest, and the call does not inline
		var tag byte
		var at int
		for ; c <= want; c++ {
			tag = tuple[i]
			l := int(valueLen[tag&7])
			at = i + 1
			if l < 0 {
				l, at = uvarintAt(tuple, at)
			}
			i = at + l
		}
		out[k] = Pos{tag: tag, at: uint32(at), end: uint32(i)}
	}
}

// Kind is what a Field holds.
type Kind byte

// The kinds of a Field, one per datum type.
const (
	Null    = Kind(tagNull)
	Int64   = Kind(tagInt64)
	Float64 = Kind(tagFloat64)
	Bool    = Kind(tagBool)
	String  = Kind(tagString)
	Time    = Kind(tagTime)
	JSONB   = Kind(tagJSONB)
)

// Field is one datum of a tuple, still in wire form: the accessor of its
// Kind reads it.
type Field struct {
	tag byte
	v   []byte // the value's bytes, behind its tag and length
}

// Kind reports the field's datum type.
func (f Field) Kind() Kind { return Kind(f.tag) }

// Int64 reads an Int64 field.
func (f Field) Int64() int64 { return int64(binary.LittleEndian.Uint64(f.v)) }

// Float64 reads a Float64 field.
func (f Field) Float64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(f.v)) }

// Bool reads a Bool field.
func (f Field) Bool() bool { return f.v[0] == 1 }

// Text reads a String field as a string aliasing the tuple.
func (f Field) Text() string { return unsafe.String(unsafe.SliceData(f.v), len(f.v)) }

// Time reads a Time field.
func (f Field) Time() time.Time { return decodeTime(f.v) }

// UnixNano reads a Time field as nanoseconds since the Unix epoch, and
// reports whether they rebuild it exactly: a time in UTC that UnixNano's
// range holds. (Time is the way to read any other.)
func (f Field) UnixNano() (int64, bool) {
	sec := int64(binary.LittleEndian.Uint64(f.v))
	if int32(binary.LittleEndian.Uint32(f.v[12:])) != zoneUTC || sec <= math.MinInt64/int64(time.Second) || sec >= math.MaxInt64/int64(time.Second) {
		return 0, false
	}
	return sec*int64(time.Second) + int64(binary.LittleEndian.Uint32(f.v[8:])), true
}

// JSONB reads a JSONB field as a document aliasing the tuple.
func (f Field) JSONB() jsonb.Value { return jsonb.ViewValidWire(f.v) }

// SameColumns reports whether tuples a and b hold the same bytes in every
// column cols lists, ascending: the same type and a value written the same
// way. A column past a tuple's end (one stored before an ALTER TABLE … ADD
// COLUMN) is NULL. No datum is read, so two values are the same only when
// they are written alike: a time in another zone, or a float's other zero,
// differs.
func SameColumns(a, b []byte, cols []int) bool {
	ca, cb := newCursor(a), newCursor(b)
	for _, want := range cols {
		ta, va := ca.seek(want)
		tb, vb := cb.seek(want)
		if ta != tb || string(va) != string(vb) {
			return false
		}
	}
	return true
}

// cursor walks a tuple's datums front to back.
type cursor struct {
	tuple []byte
	n     int // datums in the tuple
	i     int // where datum c's tag is
	c     int
}

func newCursor(tuple []byte) cursor {
	n, i := header(tuple)
	return cursor{tuple: tuple, n: n, i: i}
}

// seek returns the tag and the value bytes of datum want, at or after the
// cursor's; NULL past the tuple's end.
func (k *cursor) seek(want int) (tag byte, value []byte) {
	if want >= k.n {
		return tagNull, nil
	}
	var at, end int
	for ; k.c <= want; k.c++ {
		tag, at, end = datumAt(k.tuple, k.i)
		k.i = end
	}
	return tag, k.tuple[at:end]
}
