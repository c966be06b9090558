// Package rowbatch is the wire form of datums and of sets of rows: what a
// result set, a COPY payload, an intermediate result and a statement's
// parameters look like between two nodes (docs/wire.md has the layout).
//
// A batch is the column count, the row count and then every datum of every
// row back to back, each behind a one-byte tag. Parse checks a received
// batch without allocating; a node that only passes rows on (the coordinator
// of a one-task plan) stops there and forwards the bytes. Rows decodes a
// parsed batch into one backing array for all cells and one more per kind of
// value present (box.go), whatever the number of rows and columns, and copies
// the bytes of each row's strings and jsonb documents into one array of that
// row's own, so that a datum which outlives its request never keeps the
// frame the batch arrived in alive.
//
// A heap tuple is a batch of one row (tuple.go): AppendTuple writes it once,
// into its heap page, DecodeRow reads it back with its strings and documents
// aliasing it, an Arena decodes a scan's rows, only the columns it reads,
// into chunks shared by many rows, and Pick finds the columns a vectorized
// scan reads without decoding the rest.
package rowbatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// Datum tags.
const (
	tagNull byte = iota
	tagInt64
	tagFloat64
	tagBool
	tagString
	tagTime
	tagJSONB
)

// zoneUTC in a time datum's zone field says the time is in UTC; any other
// value is a zone offset in seconds east of UTC.
const zoneUTC = math.MinInt32

// timeSize is the length of a time in wire form: seconds since the Unix
// epoch (int64), nanoseconds (uint32), zone (int32).
const timeSize = 16

// ErrMalformed is wrapped by every Parse failure other than a refused jsonb
// document, which wraps jsonb.ErrMalformed.
var ErrMalformed = errors.New("malformed row batch")

// appendDatum appends d behind its tag. It fails on a Go type that is not a
// datum (types.Datum lists them) and appends nothing then.
func appendDatum(dst []byte, d types.Datum) ([]byte, error) {
	switch v := d.(type) {
	case nil:
		return append(dst, tagNull), nil
	case int64:
		return binary.LittleEndian.AppendUint64(append(dst, tagInt64), uint64(v)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(v)), nil
	case bool:
		if v {
			return append(dst, tagBool, 1), nil
		}
		return append(dst, tagBool, 0), nil
	case string:
		dst = binary.AppendUvarint(append(dst, tagString), uint64(len(v)))
		return append(dst, v...), nil
	case time.Time:
		return appendTime(append(dst, tagTime), v), nil
	case jsonb.Value:
		dst = binary.AppendUvarint(append(dst, tagJSONB), uint64(v.WireSize()))
		return v.AppendWire(dst), nil
	}
	return dst, fmt.Errorf("rowbatch: %T is not a datum", d)
}

// appendTime appends t's wire form, timeSize bytes. The monotonic clock
// reading and the zone's name do not travel.
func appendTime(dst []byte, t time.Time) []byte {
	zone := int32(zoneUTC)
	if t.Location() != time.UTC {
		_, off := t.Zone()
		zone = int32(off)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Unix()))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Nanosecond()))
	return binary.LittleEndian.AppendUint32(dst, uint32(zone))
}

// Append appends rows as one batch. Every row must have as many datums as
// the first, and at least one; on an error dst comes back as it was.
func Append(dst []byte, rows []types.Row) ([]byte, error) {
	if len(rows) == 0 {
		return append(dst, 0, 0), nil
	}
	start := len(dst)
	ncols := len(rows[0])
	if ncols == 0 {
		return dst, errors.New("rowbatch: rows without columns")
	}
	dst = binary.AppendUvarint(dst, uint64(ncols))
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for r, row := range rows {
		if len(row) != ncols {
			return dst[:start], fmt.Errorf("rowbatch: a row of %d datums in a batch of %d columns", len(row), ncols)
		}
		rowStart := len(dst)
		for _, d := range row {
			var err error
			if dst, err = appendDatum(dst, d); err != nil {
				return dst[:start], err
			}
		}
		if r == 0 {
			// the rows of a batch are much of a size: make room for all of
			// them at once instead of doubling up to it
			dst = slices.Grow(dst, (len(dst)-rowStart)*(len(rows)-1))
		}
	}
	return dst, nil
}

// AppendCells appends one row's datums as a batch of that one row, or as the
// empty batch when there are none: a statement's parameters.
func AppendCells(dst []byte, cells []types.Datum) ([]byte, error) {
	if len(cells) == 0 {
		return append(dst, 0, 0), nil
	}
	return Append(dst, []types.Row{cells})
}

// Batch is a checked batch still in wire form. The zero Batch has no rows.
type Batch struct {
	b            []byte // the whole batch, header included
	data         int    // where the datums start in b
	ncols, nrows int
	// how many datums of the batch decode into each of Cells' arrays
	words, times, strs, docs int
}

// Parse checks the batch at the start of b and returns it with the bytes
// that follow it. The Batch aliases b. Nothing is allocated, and nothing
// a later Rows allocates is larger than a small multiple of the batch.
func Parse(b []byte) (Batch, []byte, error) {
	ncols, i, err := count(b, 0)
	if err != nil {
		return Batch{}, nil, err
	}
	nrows, i, err := count(b, i)
	if err != nil {
		return Batch{}, nil, err
	}
	// Every datum takes at least one byte, which bounds both counts and
	// their product by the bytes actually present.
	if (ncols == 0) != (nrows == 0) || (nrows > 0 && ncols > (len(b)-i)/nrows) {
		return Batch{}, nil, fmt.Errorf("%w: %d columns by %d rows in %d bytes", ErrMalformed, ncols, nrows, len(b)-i)
	}
	bt := Batch{ncols: ncols, nrows: nrows, data: i}
	for n := ncols * nrows; n > 0; n-- {
		if i >= len(b) {
			return Batch{}, nil, fmt.Errorf("%w: truncated", ErrMalformed)
		}
		tag := b[i]
		i++
		switch tag {
		case tagNull:
		case tagInt64, tagFloat64:
			i += 8
			bt.words++
		case tagBool:
			if i < len(b) && b[i] > 1 {
				return Batch{}, nil, fmt.Errorf("%w: bool byte %d", ErrMalformed, b[i])
			}
			i++
		case tagTime:
			i += timeSize
			bt.times++
		case tagString, tagJSONB:
			var l int
			if l, i, err = count(b, i); err != nil {
				return Batch{}, nil, err
			}
			if l > len(b)-i {
				return Batch{}, nil, fmt.Errorf("%w: truncated", ErrMalformed)
			}
			if tag == tagString {
				bt.strs++
			} else {
				if err := jsonb.ValidateWire(b[i : i+l]); err != nil {
					return Batch{}, nil, err
				}
				bt.docs++
			}
			i += l
		default:
			return Batch{}, nil, fmt.Errorf("%w: unknown datum tag %d", ErrMalformed, tag)
		}
		if i > len(b) {
			return Batch{}, nil, fmt.Errorf("%w: truncated", ErrMalformed)
		}
	}
	bt.b = b[:i:i]
	return bt, b[i:], nil
}

// count reads a uvarint that counts things inside b, so it cannot exceed
// what is left of b.
func count(b []byte, i int) (n, next int, err error) {
	if i < len(b) && b[i] < 0x80 {
		return int(b[i]), i + 1, nil
	}
	v, w := binary.Uvarint(b[min(i, len(b)):])
	if w <= 0 || v > uint64(len(b)) {
		return 0, 0, fmt.Errorf("%w: bad length", ErrMalformed)
	}
	return int(v), i + w, nil
}

// NumRows is the number of rows in the batch.
func (bt Batch) NumRows() int { return bt.nrows }

// Bytes is the batch in wire form, as Append produced it.
func (bt Batch) Bytes() []byte {
	if bt.b == nil {
		return emptyBatch
	}
	return bt.b
}

var emptyBatch = []byte{0, 0}

// Clone copies the batch out of the buffer it was parsed from.
func (bt Batch) Clone() Batch {
	if bt.nrows == 0 {
		return Batch{}
	}
	bt.b = append([]byte(nil), bt.b...)
	return bt
}

// Rows decodes the batch. Nothing in the result aliases the batch's bytes.
func (bt Batch) Rows() []types.Row {
	if bt.nrows == 0 {
		return nil
	}
	cells := bt.Cells()
	rows := make([]types.Row, bt.nrows)
	for r := range rows {
		rows[r] = cells[r*bt.ncols : (r+1)*bt.ncols : (r+1)*bt.ncols]
	}
	return rows
}

// Cells decodes the batch's datums into one slice, row after row: for a
// batch of one row, that row.
func (bt Batch) Cells() []types.Datum {
	if bt.nrows == 0 {
		return nil
	}
	cells := make([]types.Datum, bt.nrows*bt.ncols)
	var (
		words = make([]uint64, bt.words)
		times = make([]time.Time, bt.times)
		strs  = make([]string, bt.strs)
		docs  = make([]jsonb.Value, bt.docs)
		arena []byte // what the current row's strings and documents have not taken
	)
	b, i := bt.b, bt.data
	next := 0 // the cell the next row starts at
	for k := range cells {
		if k == next && bt.strs+bt.docs > 0 {
			next += bt.ncols
			arena = nil
			if n := rowBytes(b[i:], bt.ncols); n > 0 {
				arena = make([]byte, n)
			}
		}
		tag := b[i]
		i++
		switch tag {
		case tagInt64:
			words[0] = binary.LittleEndian.Uint64(b[i:])
			cells[k] = boxInt64(&words[0])
			words, i = words[1:], i+8
		case tagFloat64:
			words[0] = binary.LittleEndian.Uint64(b[i:])
			cells[k] = boxFloat64(&words[0])
			words, i = words[1:], i+8
		case tagBool:
			cells[k] = b[i] == 1
			i++
		case tagString:
			l, w := binary.Uvarint(b[i:])
			i += w
			strs[0], arena = arenaString(arena, b[i:i+int(l)])
			cells[k] = types.BoxString(&strs[0])
			strs, i = strs[1:], i+int(l)
		case tagTime:
			times[0] = decodeTime(b[i:])
			cells[k] = types.BoxTime(&times[0])
			times, i = times[1:], i+timeSize
		case tagJSONB:
			l, w := binary.Uvarint(b[i:])
			i += w
			docs[0], arena = jsonb.FromValidWire(arena, b[i:i+int(l)])
			cells[k] = boxJSONB(&docs[0])
			docs, i = docs[1:], i+int(l)
		}
	}
	return cells
}

// rowBytes is how many bytes the strings and jsonb nodes of the row of ncols
// datums at the start of b take once decoded. Parse has checked every length.
func rowBytes(b []byte, ncols int) int {
	n, i := 0, 0
	for c := 0; c < ncols; c++ {
		tag := b[i]
		i++
		switch tag {
		case tagInt64, tagFloat64:
			i += 8
		case tagBool:
			i++
		case tagTime:
			i += timeSize
		case tagString, tagJSONB:
			l, w := binary.Uvarint(b[i:])
			i += w + int(l)
			n += int(l)
			if tag == tagJSONB {
				n-- // the version byte is not kept
			}
		}
	}
	return n
}

// decodeTime rebuilds a time from the timeSize bytes at the start of b the
// way time.Time's own binary form does: UTC stays UTC, an offset that is the
// local zone's at that instant becomes Local, any other offset a fixed zone
// without a name.
func decodeTime(b []byte) time.Time {
	sec := int64(binary.LittleEndian.Uint64(b))
	nsec := binary.LittleEndian.Uint32(b[8:])
	zone := int32(binary.LittleEndian.Uint32(b[12:]))
	t := time.Unix(sec, int64(nsec))
	if zone == zoneUTC {
		return t.UTC()
	}
	if _, off := t.Zone(); off == int(zone) {
		return t
	}
	return t.In(time.FixedZone("", int(zone)))
}
