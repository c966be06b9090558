package rowbatch

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// TestTupleRoundTrip: a tuple is the batch of its one row, in an array of
// exactly its length; DecodeRow gives back what the batch decoder gives,
// with the strings and documents aliasing the tuple; a Decoder's row is the
// same, in storage it reuses.
func TestTupleRoundTrip(t *testing.T) {
	var dec Decoder
	for _, row := range sampleRows {
		tuple, err := EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if batch, _ := AppendCells(nil, row); !bytes.Equal(tuple, batch) || cap(tuple) != len(tuple) {
			t.Fatalf("EncodeRow: %d bytes of capacity %d, not the one-row batch AppendCells writes", len(tuple), cap(tuple))
		}
		bt, _, err := Parse(tuple)
		if err != nil {
			t.Fatal(err)
		}
		want := bt.Rows()[0]
		for name, got := range map[string]types.Row{"DecodeRow": DecodeRow(tuple), "Decoder": dec.Decode(tuple)} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n%v\nwant\n%v", name, got, want)
			}
			within := func(p unsafe.Pointer, n int) bool {
				start := uintptr(unsafe.Pointer(unsafe.SliceData(tuple)))
				return n == 0 || uintptr(p) >= start && uintptr(p)+uintptr(n) <= start+uintptr(len(tuple))
			}
			for _, d := range got {
				switch v := d.(type) {
				case string:
					if !within(unsafe.Pointer(unsafe.StringData(v)), len(v)) {
						t.Fatalf("%s: the string %q does not alias the tuple", name, v)
					}
				case jsonb.Value:
					b := reflect.ValueOf(v).Field(0)
					if b.Cap() != b.Len() || !within(b.UnsafePointer(), b.Len()) {
						t.Fatalf("%s: the document %s does not alias the tuple, or can be appended into it", name, v)
					}
				}
			}
		}
	}
	if _, err := EncodeRow(types.Row{}); err == nil {
		t.Fatal("EncodeRow took a row without datums")
	}
	if _, err := EncodeRow(types.Row{int64(1), struct{}{}}); err == nil {
		t.Fatal("EncodeRow took a datum of no datum type")
	}
}

// TestPick: Pick finds any ascending set of columns where the decoder finds
// them, and NULL past the end of a tuple shorter than the table.
func TestPick(t *testing.T) {
	row := sampleRows[0]
	tuple, err := EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	decoded := DecodeRow(tuple)
	for _, cols := range [][]int{{0}, {13}, {1, 4, 8, 12}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, {9, 13, 14, 20}} {
		out := make([]Pos, len(cols))
		Pick(tuple, cols, out)
		for k, c := range cols {
			fd := out[k].In(tuple)
			var want types.Datum
			if c < len(decoded) {
				want = decoded[c]
			}
			var got types.Datum
			switch fd.Kind() {
			case Int64:
				got = fd.Int64()
			case Float64:
				got = fd.Float64()
			case Bool:
				got = fd.Bool()
			case String:
				got = fd.Text()
			case Time:
				got = fd.Time()
			case JSONB:
				got = fd.JSONB()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("columns %v: column %d is %#v, want %#v", cols, c, got, want)
			}
		}
	}
}

// TestArena: an Arena decodes what DecodeRow does, or only the columns asked for
// with the rest NULL; its rows stay as they were while it decodes more, an
// Unread row's storage is handed out again, appending to a row leaves its
// neighbour alone, and a scan of many rows allocates a few chunks, not a few
// objects a row.
func TestArena(t *testing.T) {
	var tuples [][]byte
	for _, row := range sampleRows {
		tuple, err := EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tuple)
	}
	var r Arena
	var kept []types.Row
	var want []types.Row
	for pass := 0; pass < 40; pass++ {
		for _, tuple := range tuples {
			full := DecodeRow(tuple)
			for _, cols := range [][]int{nil, {0}, {1, 4, 8, 12}, {9, 13, 14, 20}, {}} {
				w := make(types.Row, len(full))
				for c := range w {
					if cols == nil || slices.Contains(cols, c) {
						w[c] = full[c]
					}
				}
				got := r.Decode(tuple, cols)
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("columns %v:\n%v\nwant\n%v", cols, got, w)
				}
				// a dropped row's storage is cut again: the next row is
				// where it was
				r.Unread()
				again := r.Decode(tuple, cols)
				if len(again) > 0 && &again[0] != &got[0] {
					t.Fatalf("columns %v: Unread did not give back the row's storage", cols)
				}
				kept, want = append(kept, again), append(want, w)
			}
		}
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], want[i]) {
			t.Fatalf("kept row %d changed:\n%v\nwant\n%v", i, kept[i], want[i])
		}
	}
	a := r.Decode(tuples[0], nil)
	b := r.Decode(tuples[0], nil)
	bCopy := append(types.Row(nil), b...)
	_ = append(a, "appended")
	if !reflect.DeepEqual(b, bCopy) {
		t.Fatal("appending to a row wrote into the next one")
	}

	tuple := tuples[0]
	allocs := testing.AllocsPerRun(10, func() {
		var r Arena
		for i := 0; i < 1000; i++ {
			r.Decode(tuple, nil)
		}
	})
	if perRow := allocs / 1000; perRow > 0.2 {
		t.Fatalf("Arena made %.2f allocations a row", perRow)
	}
	// one row, a point read's: the row and one array for each of the four
	// boxed kinds it holds, nothing for finding its columns
	for name, decode := range map[string]func(){
		"DecodeRow": func() { DecodeRow(tuple) },
		"Arena":     func() { var r Arena; r.Decode(tuple, nil) },
	} {
		if n := testing.AllocsPerRun(100, decode); n != 5 {
			t.Fatalf("%s made %.0f allocations for one row, want 5", name, n)
		}
	}
}
