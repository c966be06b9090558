package types

import (
	"time"
	"unsafe"
)

// Putting anything but a bool or nil into a Datum makes the runtime allocate
// a copy for the interface to point at — for a string, a copy of the header:
// one allocation per datum. The functions below build the same interface
// value around a pointer the caller supplies, so a decoded row batch
// (rowbatch.Batch.Cells) can point every such datum into one array it
// allocated for all of that kind, and a columnar scan can point a row's cells
// straight into the stripe's typed vectors (vec.Vector.Datum). What is pointed
// at is written before the pointer is taken and never after, as an
// interface's value must be.
//
// An interface value is two words, the dynamic type and a pointer to the
// value (runtime.eface); the type words come from interfaces the compiler
// built.

type eface struct{ typ, data unsafe.Pointer }

// TypeWord returns the dynamic-type word of d, for Box.
func TypeWord(d Datum) unsafe.Pointer { return (*eface)(unsafe.Pointer(&d)).typ }

var (
	int64Type   = TypeWord(int64(0))
	float64Type = TypeWord(float64(0))
	timeType    = TypeWord(time.Time{})
	stringType  = TypeWord("")
)

// Box returns the datum of dynamic type typ (a TypeWord) whose value is what
// data points at.
func Box(typ, data unsafe.Pointer) (d Datum) {
	*(*eface)(unsafe.Pointer(&d)) = eface{typ, data}
	return d
}

// BoxInt64 returns the datum *p, pointing at p.
func BoxInt64(p *int64) Datum { return Box(int64Type, unsafe.Pointer(p)) }

// BoxFloat64 returns the datum *p, pointing at p.
func BoxFloat64(p *float64) Datum { return Box(float64Type, unsafe.Pointer(p)) }

// BoxTime returns the datum *p, pointing at p.
func BoxTime(p *time.Time) Datum { return Box(timeType, unsafe.Pointer(p)) }

// BoxString returns the datum *p, pointing at p.
func BoxString(p *string) Datum { return Box(stringType, unsafe.Pointer(p)) }
