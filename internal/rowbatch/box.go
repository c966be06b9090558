package rowbatch

import (
	"time"
	"unsafe"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// Putting anything but a bool or nil into a types.Datum makes the runtime
// allocate a copy for the interface to point at — for a string and a jsonb
// document, a copy of the header: one allocation per datum of a decoded
// batch. The functions below build the same interface value around a pointer
// the caller supplies, so Batch.Cells can point every such datum of a batch
// into one array it allocated for all of that kind. The arrays are written
// before the pointers are taken and never after, as an interface's value
// must be.
//
// An interface value is two words, the dynamic type and a pointer to the
// value (runtime.eface); the type words come from interfaces the compiler
// built.

type eface struct{ typ, data unsafe.Pointer }

func typeWord(d types.Datum) unsafe.Pointer { return (*eface)(unsafe.Pointer(&d)).typ }

var (
	int64Type   = typeWord(int64(0))
	float64Type = typeWord(float64(0))
	timeType    = typeWord(time.Time{})
	stringType  = typeWord("")
	jsonbType   = typeWord(jsonb.Value{})
)

func box(typ, data unsafe.Pointer) (d types.Datum) {
	*(*eface)(unsafe.Pointer(&d)) = eface{typ, data}
	return d
}

// boxInt64 returns the datum int64(*p), pointing at p.
func boxInt64(p *uint64) types.Datum { return box(int64Type, unsafe.Pointer(p)) }

// boxFloat64 returns the datum math.Float64frombits(*p), pointing at p.
func boxFloat64(p *uint64) types.Datum { return box(float64Type, unsafe.Pointer(p)) }

// boxTime returns the datum *p, pointing at p.
func boxTime(p *time.Time) types.Datum { return box(timeType, unsafe.Pointer(p)) }

// boxString returns the datum *p, pointing at p.
func boxString(p *string) types.Datum { return box(stringType, unsafe.Pointer(p)) }

// boxJSONB returns the datum *p, pointing at p.
func boxJSONB(p *jsonb.Value) types.Datum { return box(jsonbType, unsafe.Pointer(p)) }
