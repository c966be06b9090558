package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"citusgo/internal/expr"
	"citusgo/internal/heap"
	"citusgo/internal/jsonb"
	"citusgo/internal/types"
	"citusgo/internal/vec"
	"citusgo/internal/wal"
)

// FuzzTupleBytes: a heap tuple is its row's bytes, and every way of reading a
// row back decodes them — a Get, the row-at-a-time scan, the vectorized
// scan's column decode, a rebuild from the log, a rebuild from a checkpoint
// and a standby applying the log as it streams. Each must return the datums
// the row was written with (INSERT, COPY or UPDATE) as the table's column
// types store them, of the same Go type: every integer, every float bit for
// bit (NaN and -0 too), text with NUL bytes and invalid UTF-8 byte for byte,
// jsonb as the same document, a time as the same instant at the same offset
// from UTC, in UTC, Local or a fixed zone as it was. The name of a fixed zone
// is not kept: the wire form drops it too (rowbatch.decodeTime), and nothing
// reads it — types.Format prints a time in UTC. A row written before ALTER
// TABLE … ADD COLUMN reads the added columns as NULL. Then every row is
// updated and vacuumed until a compaction has moved a live version to a
// fresh page array, and read back again through Get, both scans and a
// restore of a checkpoint taken after it.
//
//	go test ./internal/engine -run '^$' -fuzz FuzzTupleBytes -fuzztime 15s
func FuzzTupleBytes(f *testing.F) {
	f.Add(int64(math.MinInt64), math.NaN(), true, "nul\x00byte", int64(0), uint32(0), uint8(0), int32(0), `{"a": [1, null]}`)
	f.Add(int64(math.MaxInt64), math.Copysign(0, -1), false, "bad \xff\xfe utf-8", int64(1_600_000_000), uint32(999_999_999), uint8(1), int32(0), `null`)
	f.Add(int64(-1), math.Inf(1), true, "", int64(-86_400*365*70), uint32(1), uint8(2), int32(-5*3600), `"text"`)
	f.Add(int64(255), 1.5, false, "ünïcode", int64(253_402_300_799), uint32(5), uint8(2), int32(19800), `[]`)
	f.Fuzz(func(t *testing.T, i int64, fl float64, b bool, s string, sec int64, nsec uint32, zone uint8, off int32, doc string) {
		// years 1 to 9999, the range a timestamp has
		sec = -62_135_596_800 + int64(uint64(sec)%(253_402_300_799+62_135_596_800))
		ts := time.Unix(sec, int64(nsec%1_000_000_000))
		switch zone % 3 {
		case 0:
			ts = ts.UTC()
		case 2:
			ts = ts.In(time.FixedZone(fmt.Sprintf("Z%d", off), int(off%(18*3600))))
		}
		j, err := jsonb.Parse(doc)
		if err != nil {
			j = jsonb.FromGo(doc)
		}
		tupleRoundTrip(t, types.Row{i, fl, b, s, ts, j})
	})
}

// tupleColumns are FuzzTupleBytes' table's columns past its key; the last
// two are added after a row has been written.
var tupleColumns = []struct{ name, typ string }{
	{"i", "bigint"}, {"f", "double precision"}, {"b", "boolean"}, {"s", "text"},
	{"ts", "timestamptz"}, {"j", "jsonb"},
}

// tupleRoundTrip writes vals (one datum per tupleColumns column) as rows 1
// (INSERT), 2 (COPY) and 3 (UPDATE) of a table whose row 0 was written before
// the last two columns were added, and reads every row back every way.
func tupleRoundTrip(t *testing.T, vals types.Row) {
	e := newTestEngine(t)
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE ft (k bigint PRIMARY KEY, i bigint, f double precision, b boolean, s text)")
	mustExec(t, s, "INSERT INTO ft VALUES (0, $1, $2, $3, $4)", vals[:4]...)
	mustExec(t, s, "ALTER TABLE ft ADD COLUMN ts timestamptz")
	mustExec(t, s, "ALTER TABLE ft ADD COLUMN j jsonb")
	mustExec(t, s, "INSERT INTO ft VALUES (1, $1, $2, $3, $4, $5, $6)", vals...)
	if _, err := s.CopyFrom("ft", nil, []types.Row{append(types.Row{int64(2)}, vals...)}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO ft (k, s) VALUES (3, 'placeholder')")
	mustExec(t, s, "UPDATE ft SET i = $1, f = $2, b = $3, s = $4, ts = $5, j = $6 WHERE k = 3", vals...)

	want := make([]types.Row, 4)
	for k := range want {
		want[k] = types.Row{int64(k)}
		for c, col := range tupleColumns {
			typ, err := types.ParseType(col.typ)
			if err != nil {
				t.Fatal(err)
			}
			v, err := expr.CastDatum(vals[c], typ)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 && c >= 4 {
				v = nil
			}
			want[k] = append(want[k], v)
		}
	}
	check := func(how string, got []types.Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", how, len(got), len(want))
		}
		for _, row := range got {
			k, _ := row[0].(int64)
			if k < 0 || k >= int64(len(want)) {
				t.Fatalf("%s: row %v", how, row)
			}
			for c := range want[k] {
				var d types.Datum
				if c < len(row) {
					d = row[c]
				}
				if !sameStored(d, want[k][c]) {
					t.Fatalf("%s: row %d column %d is %#v (%T), want %#v (%T)", how, k, c, d, d, want[k][c], want[k][c])
				}
			}
		}
	}
	selectAll := func(e *Engine) []types.Row {
		e.SetFeatures(Features{NoVectorized: true})
		defer e.SetFeatures(Features{})
		return mustExec(t, e.NewSession(), "SELECT * FROM ft ORDER BY k").Rows
	}

	check("Get", getRows(e, "ft"))
	check("the row scan", selectAll(e))
	check("the vectorized scan", vecRows(e, "ft"))

	// a standby applies the records as they stream, a node rebuilds from
	// the log alone, and another from a checkpoint and what follows it
	sb := newTestEngine(t)
	sb.SetApplyMode(true)
	apply := sb.ReplayTarget()
	for _, rec := range e.WAL.Records() {
		if err := wal.ApplyRecord(apply, rec); err != nil {
			t.Fatal(err)
		}
	}
	check("a standby's apply", getRows(sb, "ft"))
	for _, how := range []string{"replay of the log", "restore of a checkpoint"} {
		if how == "restore of a checkpoint" && !e.Checkpoint() {
			t.Fatal("the checkpoint was not taken")
		}
		r := newTestEngine(t)
		if err := r.RecoverFrom(e.WAL, 0); err != nil {
			t.Fatal(err)
		}
		check(how, selectAll(r))
		check(how+", vectorized", vecRows(r, "ft"))
	}

	// Every row updated and vacuumed until a compaction has moved a live
	// version into a fresh array (a row longer than half a page never
	// shares its page, so never moves), then read back every way again.
	moved, longest := false, 0
	for round := 0; round < 16 && !moved; round++ {
		mustExec(t, s, "UPDATE ft SET i = i")
		before := liveArrays(e, "ft")
		mustExec(t, s, "VACUUM ft")
		after := liveArrays(e, "ft")
		for tid, at := range after {
			moved = moved || at != before[tid]
		}
	}
	st, _ := e.store("ft")
	st.heap.AllTuples(func(_ heap.TID, tup heap.Tuple) bool { longest = max(longest, len(tup.Data)); return true })
	if !moved && longest < 4096 {
		t.Fatalf("16 rounds of UPDATE and VACUUM over tuples of at most %d bytes moved no live version", longest)
	}
	check("Get after a compaction", getRows(e, "ft"))
	check("the row scan after a compaction", selectAll(e))
	check("the vectorized scan after a compaction", vecRows(e, "ft"))
	if !e.Checkpoint() {
		t.Fatal("the checkpoint was not taken")
	}
	r := newTestEngine(t)
	if err := r.RecoverFrom(e.WAL, 0); err != nil {
		t.Fatal(err)
	}
	check("restore of a checkpoint after a compaction", selectAll(r))
}

// liveArrays returns where the bytes of each live version of table start.
func liveArrays(e *Engine, table string) map[heap.TID]*byte {
	st, _ := e.store(table)
	snap := e.Txns.TakeSnapshot(nil)
	at := map[heap.TID]*byte{}
	st.heap.AllTuples(func(tid heap.TID, tup heap.Tuple) bool {
		if heap.Visible(e.Txns, snap, tup) {
			at[tid] = unsafe.SliceData(tup.Data)
		}
		return true
	})
	return at
}

// getRows reads the live version of every row of table through Get.
func getRows(e *Engine, table string) []types.Row {
	st, _ := e.store(table)
	snap := e.Txns.TakeSnapshot(nil)
	var rows []types.Row
	st.heap.AllTuples(func(tid heap.TID, _ heap.Tuple) bool {
		if tup, ok := st.heap.Get(tid); ok && heap.Visible(e.Txns, snap, tup) {
			rows = append(rows, tup.Row())
		}
		return true
	})
	return rows
}

// vecRows reads every visible row of table the way the vectorized heap scan
// does — every column decoded into vectors (decodeColumns) — and back out of
// the vectors.
func vecRows(e *Engine, table string) []types.Row {
	st, _ := e.store(table)
	cols := make([]int, len(st.table.Columns))
	for c := range cols {
		cols[c] = c
	}
	var rows []types.Row
	scan := st.heap.NewBatchScan(e.Txns, e.Txns.TakeSnapshot(nil))
	for tuples, ok := scan.Next(); ok; tuples, ok = scan.Next() {
		vs := make([]vec.Vector, len(cols))
		decodeColumns(vs, cols, tuples, nil, nil)
		for r := range tuples {
			row := make(types.Row, len(cols))
			for c := range cols {
				row[c] = vs[c].Datum(r)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// sameStored reports whether got is want as a tuple keeps it: the same Go
// type and value — a float's bits, a document's bytes, a time's instant,
// offset and kind of zone (UTC, Local, fixed), its zone's name aside.
func sameStored(got, want types.Datum) bool {
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		return false
	}
	switch w := want.(type) {
	case float64:
		return math.Float64bits(got.(float64)) == math.Float64bits(w)
	case jsonb.Value:
		g := got.(jsonb.Value)
		return string(g.AppendWire(nil)) == string(w.AppendWire(nil))
	case time.Time:
		g := got.(time.Time)
		_, goff := g.Zone()
		_, woff := w.Zone()
		return g.Equal(w) && goff == woff && zoneKind(g) == zoneKind(w)
	}
	return got == want
}

// zoneKind is how a tuple keeps a time's zone: UTC, the local zone when the
// offset is Local's at that instant, a fixed offset otherwise.
func zoneKind(t time.Time) string {
	if t.Location() == time.UTC {
		return "UTC"
	}
	_, off := t.Zone()
	if _, local := t.In(time.Local).Zone(); local == off {
		return "Local"
	}
	return "fixed"
}
