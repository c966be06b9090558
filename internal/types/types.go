// Package types defines the datum model shared by the SQL engine and the
// distributed layer: runtime values, SQL type descriptors, comparison,
// formatting, and the hash function used for hash-partitioning tables.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies a SQL column type.
type Type int

const (
	Unknown Type = iota
	Int          // 64-bit integer (covers int, bigint, serial)
	Float        // double precision (covers numeric in this engine)
	Bool
	Text
	Timestamp
	Date
	JSONB
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "bigint"
	case Float:
		return "double precision"
	case Bool:
		return "boolean"
	case Text:
		return "text"
	case Timestamp:
		return "timestamp"
	case Date:
		return "date"
	case JSONB:
		return "jsonb"
	default:
		return "unknown"
	}
}

// ParseType maps a SQL type name to a Type. It accepts the common aliases
// PostgreSQL users write (int4, int8, varchar, numeric, ...).
func ParseType(name string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "int", "integer", "int4", "int8", "bigint", "smallint", "serial", "bigserial":
		return Int, nil
	case "float", "float8", "float4", "real", "double", "double precision", "numeric", "decimal", "money":
		return Float, nil
	case "bool", "boolean":
		return Bool, nil
	case "text", "varchar", "char", "character", "character varying", "uuid", "name", "citext":
		return Text, nil
	case "timestamp", "timestamptz", "timestamp with time zone", "timestamp without time zone":
		return Timestamp, nil
	case "date":
		return Date, nil
	case "jsonb", "json":
		return JSONB, nil
	default:
		return Unknown, fmt.Errorf("unknown type %q", name)
	}
}

// Datum is a runtime SQL value. The concrete dynamic types are:
//
//	nil        SQL NULL
//	int64      Int
//	float64    Float
//	bool       Bool
//	string     Text
//	time.Time  Timestamp / Date
//	JSONValue  JSONB (defined in package jsonb; stored here as any
//	           implementing fmt.Stringer to avoid an import cycle)
type Datum = any

// Row is one tuple of datums.
type Row []Datum

// Clone returns a deep-enough copy of the row (datums are immutable values).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// TypeOf reports the runtime type of a datum.
func TypeOf(d Datum) Type {
	switch d.(type) {
	case nil:
		return Unknown
	case int64:
		return Int
	case float64:
		return Float
	case bool:
		return Bool
	case string:
		return Text
	case time.Time:
		return Timestamp
	default:
		if _, ok := d.(interface{ IsJSONB() }); ok {
			return JSONB
		}
		return Unknown
	}
}

// Compare orders two datums. NULL sorts before all non-NULL values (as in
// PostgreSQL's default NULLS LAST for DESC / NULLS FIRST semantics we use
// the simpler "null smallest" rule consistently). Numeric types compare
// across int/float. Returns -1, 0, or 1.
func Compare(a, b Datum) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpInt(av, bv)
		case float64:
			return cmpFloat(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpFloat(av, float64(bv))
		case float64:
			return cmpFloat(av, bv)
		}
	case bool:
		if bv, ok := b.(bool); ok {
			if av == bv {
				return 0
			}
			if !av {
				return -1
			}
			return 1
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv)
		}
	case time.Time:
		if bv, ok := b.(time.Time); ok {
			if av.Before(bv) {
				return -1
			}
			if av.After(bv) {
				return 1
			}
			return 0
		}
	}
	// Fall back to comparing textual forms; keeps sorting total.
	return strings.Compare(Format(a), Format(b))
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports datum equality under Compare semantics (NULL equals NULL for
// grouping purposes; SQL three-valued logic is handled in the expression
// evaluator, not here).
func Equal(a, b Datum) bool { return Compare(a, b) == 0 }

// Format renders a datum in its SQL textual form (used by the deparser, COPY,
// and result display).
func Format(d Datum) string {
	switch v := d.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		var buf [32]byte
		return string(appendFloat(buf[:0], v))
	case bool:
		if v {
			return "true"
		}
		return "false"
	case string:
		return v
	case time.Time:
		return v.UTC().Format(timeLayout)
	case fmt.Stringer:
		return v.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// timeLayout is the textual form of a timestamp: UTC, microseconds, trailing
// fraction zeros trimmed.
const timeLayout = "2006-01-02 15:04:05.999999"

// appendFloat appends a float's textual form: one decimal when it is a whole
// number of moderate size (1.0, not 1), the shortest form that round-trips
// otherwise.
func appendFloat(dst []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(dst, v, 'f', 1, 64)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// AppendFormat appends Format(d) to dst, without the intermediate string for
// the kinds a hot loop formats (a join or grouping key of ints, floats,
// strings, times).
func AppendFormat(dst []byte, d Datum) []byte {
	switch v := d.(type) {
	case int64:
		return strconv.AppendInt(dst, v, 10)
	case float64:
		return appendFloat(dst, v)
	case string:
		return append(dst, v...)
	case time.Time:
		return v.UTC().AppendFormat(dst, timeLayout)
	}
	return append(dst, Format(d)...)
}

// QuoteLiteral renders a datum as a SQL literal suitable for embedding in a
// generated query (the distributed planner deparses shard queries as text,
// exactly like Citus does). A number no bare numeral spells — NaN, an
// infinity, the int64 whose magnitude is no int64 — is a string cast to its
// type: a bare NaN would parse as a column, -9223372036854775808 as a float.
func QuoteLiteral(d Datum) string {
	switch v := d.(type) {
	case nil:
		return "NULL"
	case int64:
		if v == math.MinInt64 {
			return "'" + Format(v) + "'::bigint"
		}
		return Format(v)
	case float64:
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "'" + Format(v) + "'::double precision"
		}
		return Format(v)
	case bool:
		return Format(v)
	case time.Time:
		return "'" + Format(v) + "'::timestamp"
	default:
		return QuoteString(Format(d))
	}
}

// QuoteString single-quotes s, doubling embedded quotes.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// CoerceTo converts a datum to the named type, mirroring PostgreSQL's
// assignment casts. It is used on INSERT/COPY and when binding parameters.
// A datum that already has the type comes back as it went in, not boxed
// again (a date is still truncated to its day).
func CoerceTo(d Datum, t Type) (Datum, error) {
	if d == nil {
		return nil, nil
	}
	switch t {
	case Int:
		switch v := d.(type) {
		case int64:
			return d, nil
		case float64:
			return int64(v), nil
		case bool:
			if v {
				return int64(1), nil
			}
			return int64(0), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid input for bigint: %q", v)
			}
			return n, nil
		}
	case Float:
		switch v := d.(type) {
		case int64:
			return float64(v), nil
		case float64:
			return d, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("invalid input for double precision: %q", v)
			}
			return f, nil
		}
	case Bool:
		switch v := d.(type) {
		case bool:
			return d, nil
		case int64:
			return v != 0, nil
		case string:
			switch strings.ToLower(strings.TrimSpace(v)) {
			case "t", "true", "yes", "on", "1":
				return true, nil
			case "f", "false", "no", "off", "0":
				return false, nil
			}
			return nil, fmt.Errorf("invalid input for boolean: %q", v)
		}
	case Text:
		if _, ok := d.(string); ok {
			return d, nil
		}
		return Format(d), nil
	case Timestamp, Date:
		switch v := d.(type) {
		case time.Time:
			if t == Date {
				return v.Truncate(24 * time.Hour), nil
			}
			return d, nil
		case string:
			ts, err := ParseTimestamp(v)
			if err != nil {
				return nil, err
			}
			if t == Date {
				return ts.Truncate(24 * time.Hour), nil
			}
			return ts, nil
		}
	case JSONB, Unknown:
		return d, nil
	}
	return nil, fmt.Errorf("cannot cast %s to %s", TypeOf(d), t)
}

var timestampLayouts = []string{
	"2006-01-02 15:04:05.999999",
	"2006-01-02T15:04:05.999999Z07:00",
	"2006-01-02T15:04:05Z07:00",
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// daysIn is the length of each month, February's in a leap year.
var daysIn = [12]int{31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// timestampText is what a timestamp is parsed from: a string, or the bytes of
// one still in the buffer they were written to.
type timestampText interface{ ~string | ~[]byte }

// twoDigits reads s[i:i+2] as a number; ok is false unless both are digits.
func twoDigits[T timestampText](s T, i int) (n int, ok bool) {
	a, b := s[i]-'0', s[i+1]-'0'
	return int(a)*10 + int(b), a <= 9 && b <= 9
}

// parseTimestampFixed parses the shapes nearly every timestamp text has, by
// position and without allocating: YYYY-MM-DD, YYYY-MM-DD HH:MM:SS[.f] and
// the RFC 3339 YYYY-MM-DDTHH:MM:SS[.f]Z, f being one to nine digits. ok is
// false for everything else — an offset, a field out of range, anything
// before or after — which is then timestampLayouts' to accept or refuse: what
// this function does accept, it reads as they do.
func parseTimestampFixed[T timestampText](s T) (t time.Time, ok bool) {
	if len(s) < 10 || s[4] != '-' || s[7] != '-' {
		return t, false
	}
	century, ok1 := twoDigits(s, 0)
	years, ok2 := twoDigits(s, 2)
	month, ok3 := twoDigits(s, 5)
	day, ok4 := twoDigits(s, 8)
	year := century*100 + years
	if !ok1 || !ok2 || !ok3 || !ok4 || month < 1 || month > 12 || day < 1 {
		return t, false
	}
	leap := year%4 == 0 && (year%100 != 0 || year%400 == 0)
	if day > daysIn[month-1] || (month == 2 && day == 29 && !leap) {
		return t, false
	}
	if len(s) == 10 {
		return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC), true
	}
	sep := s[10]
	if len(s) < 19 || (sep != ' ' && sep != 'T') || s[13] != ':' || s[16] != ':' {
		return t, false
	}
	hour, ok1 := twoDigits(s, 11)
	min, ok2 := twoDigits(s, 14)
	sec, ok3 := twoDigits(s, 17)
	if !ok1 || !ok2 || !ok3 || hour > 23 || min > 59 || sec > 59 {
		return t, false
	}
	end, nsec := 19, 0 // end: where the seconds, or their fraction, stop
	if len(s) > 20 && s[19] == '.' {
		scale := 100_000_000
		for end = 20; end < len(s) && s[end]-'0' <= 9 && scale > 0; end++ {
			nsec += int(s[end]-'0') * scale
			scale /= 10
		}
		if end == 20 {
			return t, false
		}
	}
	if (sep == ' ' && end != len(s)) || (sep == 'T' && (end != len(s)-1 || s[end] != 'Z')) {
		return t, false
	}
	return time.Date(year, time.Month(month), day, hour, min, sec, nsec, time.UTC), true
}

// ParseTimestamp parses the timestamp formats the engine accepts.
func ParseTimestamp(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if t, ok := parseTimestampFixed(s); ok {
		return t, nil
	}
	return parseTimestampLayouts(s)
}

// ParseTimestampBytes is ParseTimestamp(string(b)); the shapes
// parseTimestampFixed knows are read where they lie, without the string.
func ParseTimestampBytes(b []byte) (time.Time, error) {
	if t, ok := parseTimestampFixed(b); ok {
		return t, nil
	}
	return ParseTimestamp(string(b))
}

// parseTimestampLayouts tries every accepted layout in turn.
func parseTimestampLayouts(s string) (time.Time, error) {
	for _, layout := range timestampLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("invalid timestamp: %q", s)
}
