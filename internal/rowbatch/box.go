package rowbatch

import (
	"unsafe"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// Batch.Cells points every datum of a batch that is not a bool or nil into
// one array it allocated for all datums of that kind, through the pointer
// boxing of types/box.go: an allocation per kind and batch, not per datum.
// The arrays are written before the pointers are taken and never after.
// Integers and floats share one array of 8-byte words; a jsonb document's
// type word lives here because package types cannot import jsonb. The bytes
// of a row's strings and documents share one array of that row's
// (arenaString, jsonb.FromValidWire), likewise written before it is read.

var jsonbType = types.TypeWord(jsonb.Value{})

// arenaString copies src to the front of arena and returns the copy as a
// string, with the rest of arena.
func arenaString(arena, src []byte) (string, []byte) {
	n := len(src)
	copy(arena[:n], src)
	return unsafe.String(unsafe.SliceData(arena), n), arena[n:]
}

// boxInt64 returns the datum int64(*p), pointing at p.
func boxInt64(p *uint64) types.Datum { return types.BoxInt64((*int64)(unsafe.Pointer(p))) }

// boxFloat64 returns the datum math.Float64frombits(*p), pointing at p.
func boxFloat64(p *uint64) types.Datum { return types.BoxFloat64((*float64)(unsafe.Pointer(p))) }

// boxJSONB returns the datum *p, pointing at p.
func boxJSONB(p *jsonb.Value) types.Datum { return types.Box(jsonbType, unsafe.Pointer(p)) }
