package jsonb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// FromGo encodes a Go value as JSONB. It is total: nil, bool, string, every
// integer and float kind, []any, []string, map[string]any,
// []map[string]any, a nested Value, and time.Time (its RFC 3339 string)
// encode as themselves; anything else becomes a JSON string holding its %v
// text, so the result is always a valid document.
func FromGo(v any) Value { return Value{b: appendGo(make([]byte, 0, 256), v)} }

func appendGo(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, tagNull)
	case bool:
		if t {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case string:
		return appendString(append(dst, tagString), t)
	case float64:
		return appendNumber(dst, t)
	case float32:
		return appendNumber(dst, float64(t))
	case int:
		return appendNumber(dst, float64(t))
	case int8:
		return appendNumber(dst, float64(t))
	case int16:
		return appendNumber(dst, float64(t))
	case int32:
		return appendNumber(dst, float64(t))
	case int64:
		return appendNumber(dst, float64(t))
	case uint:
		return appendNumber(dst, float64(t))
	case uint8:
		return appendNumber(dst, float64(t))
	case uint16:
		return appendNumber(dst, float64(t))
	case uint32:
		return appendNumber(dst, float64(t))
	case uint64:
		return appendNumber(dst, float64(t))
	case uintptr:
		return appendNumber(dst, float64(t))
	case Value:
		return append(dst, t.node()...)
	case time.Time:
		return appendString(append(dst, tagString), t.Format(time.RFC3339Nano))
	case []any:
		return appendArray(dst, t)
	case []string:
		return appendArray(dst, t)
	case []map[string]any:
		return appendArray(dst, t)
	case map[string]any:
		var stack [16]string
		keys := stack[:0]
		for k := range t {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst, table := appendHeader(dst, tagObject, len(keys))
		kids := len(dst)
		for i, k := range keys {
			dst = appendGo(appendString(dst, k), t[k])
			binary.LittleEndian.PutUint32(dst[table+4*i:], uint32(len(dst)-kids))
		}
		return dst
	}
	return appendString(append(dst, tagString), fmt.Sprintf("%v", v))
}

func appendArray[E any](dst []byte, elems []E) []byte {
	dst, table := appendHeader(dst, tagArray, len(elems))
	kids := len(dst)
	for i, e := range elems {
		dst = appendGo(dst, e)
		binary.LittleEndian.PutUint32(dst[table+4*i:], uint32(len(dst)-kids))
	}
	return dst
}

// appendHeader appends a container's tag, count and a zeroed offset table,
// and reports where the table starts.
func appendHeader(dst []byte, tag byte, count int) (_ []byte, table int) {
	dst = append(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	table = len(dst)
	return append(dst, make([]byte, 4*count)...), table
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}
