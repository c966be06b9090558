package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"citusgo/internal/rowbatch"
	"citusgo/internal/types"
	"citusgo/internal/vec"
)

// liveBytes is how much more heap is live after build than before it, with
// what build returns kept alive: the layout tests of internal/index measure
// an index this way, these measure a table.
func liveBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// copyAsReceived COPYs rows into table as a worker receives them: encoded
// into one wire batch and decoded from it (rowbatch.Batch.Rows), each row's
// strings and documents in an array of that row's own.
func copyAsReceived(t *testing.T, s *Session, table string, rows []types.Row) {
	t.Helper()
	wire, err := rowbatch.Append(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	bt, _, err := rowbatch.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CopyFrom(table, nil, bt.Rows()); err != nil {
		t.Fatal(err)
	}
}

// TestHeapBytesPerRow gates what a stored row costs: its tuple, its slot and
// its primary key entry. The log is sealed first — it drops what is appended
// to it — so what is measured is the table's alone. The crud shape
// (crud_point's: a bigint key and ten 50-byte texts) must fit 720 bytes; a
// row of the ingest shape (ingest_live's: a text key and a jsonb document)
// must cost at most a quarter more than its tuple's encoding — a key that
// pinned the array the COPY decoded the row into would keep a second copy of
// the document.
func TestHeapBytesPerRow(t *testing.T) {
	const n = 20_000
	crud := func(i int) types.Row {
		row := types.Row{int64(i)}
		for f := 0; f < 10; f++ {
			row = append(row, fmt.Sprintf("%02d%048d", f, i))
		}
		return row
	}
	for _, c := range []struct {
		name  string
		ddl   string
		rows  func() []types.Row
		limit func(encoded float64) float64
	}{
		{"crud", "CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY, " +
			"f0 text, f1 text, f2 text, f3 text, f4 text, f5 text, f6 text, f7 text, f8 text, f9 text)",
			func() []types.Row {
				rows := make([]types.Row, n)
				for i := range rows {
					rows[i] = crud(i)
				}
				return rows
			},
			func(float64) float64 { return 720 }},
		{"ingest", pushEventsDDL, func() []types.Row { return pushEvents(1, 0, n) },
			func(encoded float64) float64 { return 1.25 * encoded }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(t)
			s := e.NewSession()
			mustExec(t, s, c.ddl)
			table := strings.Fields(c.ddl)[2]
			encoded := 0
			for _, row := range c.rows() {
				b, err := rowbatch.AppendCells(nil, row) // a tuple's bytes
				if err != nil {
					t.Fatal(err)
				}
				encoded += len(b)
			}
			e.WAL.Seal()
			per := liveBytes(func() any {
				copyAsReceived(t, s, table, c.rows())
				return e
			}) / n
			mean := float64(encoded) / n
			t.Logf("%.0f live bytes per row, its tuple %.0f bytes encoded", per, mean)
			if limit := c.limit(mean); per > limit {
				t.Errorf("%.0f live bytes per row, want at most %.0f", per, limit)
			}
		})
	}
}

// TestDecodeColumnsReservesOnce: a vector gets room for the rest of the
// batch at its first value that is not NULL, so a column whose first rows
// are NULL grows once, not by doubling through the batch.
func TestDecodeColumnsReservesOnce(t *testing.T) {
	const m = 1024
	tuples := make([][]byte, m)
	for i := range tuples {
		var d types.Datum
		if i >= 3 {
			d = int64(i)
		}
		tup, err := rowbatch.EncodeRow(types.Row{d})
		if err != nil {
			t.Fatal(err)
		}
		tuples[i] = tup
	}
	allocs := testing.AllocsPerRun(20, func() {
		vs := make([]vec.Vector, 1)
		decodeColumns(vs, []int{0}, tuples, nil, nil)
		if vs[0].Len() != m {
			t.Fatalf("%d values decoded, want %d", vs[0].Len(), m)
		}
	})
	// the vector slice, the null bitmap and the values, each made about
	// twice: once small, once for the whole batch
	if allocs > 8 {
		t.Fatalf("decodeColumns made %.0f allocations for %d values", allocs, m)
	}
}
