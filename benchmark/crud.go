package main

import (
	"fmt"
	"math/rand"
	"strings"

	"citusgo/internal/types"
)

// crud_point is the YCSB workload-A shape of the paper's §4.3: half point
// reads, half single-field updates, uniform keys. Each client owns the
// keys congruent to its number, so the generator always knows the last
// value written to a key and every read can be checked.

const (
	crudFields   = 10
	crudFieldLen = 50
)

// sample sets
const (
	crudRead = iota
	crudWrite
)

type crudWorkload struct {
	seed int64
	sz   sizes
	// ver counts the updates applied to each (key, field); the value a
	// field holds is a pure function of (seed, key, field, version).
	ver []uint32
	// unknown marks keys whose update returned an error, so that its
	// effect is not known; the checks skip them.
	unknown []map[int64]bool

	selectSQL string
	updateSQL [crudFields]string
}

func newCrud(seed int64, sz sizes) *crudWorkload {
	w := &crudWorkload{seed: seed, sz: sz, ver: make([]uint32, sz.CrudRows*crudFields)}
	for i := 0; i < w.Clients(); i++ {
		w.unknown = append(w.unknown, make(map[int64]bool))
	}
	w.selectSQL = "SELECT * FROM usertable WHERE ycsb_key = $1"
	for f := range w.updateSQL {
		w.updateSQL[f] = fmt.Sprintf("UPDATE usertable SET field%d = $1 WHERE ycsb_key = $2", f)
	}
	return w
}

func (w *crudWorkload) Clients() int      { return 2 }
func (w *crudWorkload) Sets() []string    { return []string{"read", "write"} }
func (w *crudWorkload) OpSets() int       { return 2 }
func (w *crudWorkload) WarmSteps() int    { return w.sz.CrudWarm }
func (w *crudWorkload) Exhausted() bool   { return false }
func (w *crudWorkload) Finish(*rep) error { return nil }

// fieldValue is the text field f of key holds after version updates.
func fieldValue(seed, key int64, f int, version uint32) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(key)*0xBF58476D1CE4E5B9 ^ uint64(f)<<56 ^ uint64(version)<<32
	var b [crudFieldLen]byte
	for i := 0; i < crudFieldLen; {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 10 && i < crudFieldLen; j++ {
			b[i] = alphabet[z%36]
			z /= 36
			i++
		}
	}
	return string(b[:])
}

func crudSchema() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY")
	for f := 0; f < crudFields; f++ {
		fmt.Fprintf(&sb, ", field%d text", f)
	}
	sb.WriteString(")")
	return sb.String()
}

func (w *crudWorkload) Setup(r *rep) error {
	if _, err := r.exec(crudSchema()); err != nil {
		return err
	}
	if _, err := r.exec("SELECT create_distributed_table('usertable', 'ycsb_key')"); err != nil {
		return err
	}
	const batch = 1000
	rows := make([]types.Row, 0, batch)
	for key := 0; key < w.sz.CrudRows; key++ {
		row := make(types.Row, 0, 1+crudFields)
		row = append(row, int64(key))
		for f := 0; f < crudFields; f++ {
			row = append(row, fieldValue(w.seed, int64(key), f, 0))
		}
		rows = append(rows, row)
		if len(rows) == batch || key == w.sz.CrudRows-1 {
			if err := r.load("usertable", nil, rows, batch); err != nil {
				return err
			}
			rows = rows[:0]
		}
	}
	// The one workload larger than the program's own cache: every node's
	// buffer pool holds half of that node's pages. Misses are counted,
	// never slept.
	for _, eng := range r.c.Engines {
		if pages := eng.TotalPages(); pages > 1 {
			eng.Pool.SetCapacity(pages / 2)
			eng.Pool.SetIOLatency(0, 4)
		}
	}
	return nil
}

func (w *crudWorkload) pickKey(c *client) int64 {
	n := w.Clients()
	return int64(c.rng.Intn(w.sz.CrudRows/n)*n + c.id)
}

func (w *crudWorkload) Step(c *client) {
	key := w.pickKey(c)
	f := c.rng.Intn(crudFields)
	if c.rng.Intn(2) == 0 {
		_ = c.op(crudRead, "read", func() error {
			res, err := c.query("select", w.selectSQL, key)
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || len(res.Rows[0]) != 1+crudFields || res.Rows[0][0] != types.Datum(key) {
				c.bad("read of key %d returned %d rows %v", key, len(res.Rows), res.Columns)
				return nil
			}
			if want := w.expected(key, f); !w.unknown[c.id][key] && res.Rows[0][1+f] != types.Datum(want) {
				c.bad("read of key %d field%d = %v, last written %q", key, f, res.Rows[0][1+f], want)
			}
			return nil
		})
		return
	}
	slot := &w.ver[int(key)*crudFields+f]
	val := fieldValue(w.seed, key, f, *slot+1)
	err := c.op(crudWrite, "write", func() error {
		res, err := c.query("update", w.updateSQL[f], val, key)
		if err == nil && res.Affected != 1 {
			c.bad("update of key %d affected %d rows", key, res.Affected)
		}
		return err
	})
	if err != nil {
		w.unknown[c.id][key] = true
		return
	}
	*slot++
}

func (w *crudWorkload) Check(r *rep, _ *repResult) error {
	n, err := r.scalarInt("SELECT count(*) FROM usertable")
	if err != nil {
		return err
	}
	if n != int64(w.sz.CrudRows) {
		return fmt.Errorf("usertable holds %d rows, loaded %d", n, w.sz.CrudRows)
	}
	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	for i := 0; i < w.sz.CrudSampled; i++ {
		key := int64(rng.Intn(w.sz.CrudRows))
		if w.unknown[int(key)%w.Clients()][key] {
			continue
		}
		res, err := r.exec(w.selectSQL, key)
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("key %d: %d rows", key, len(res.Rows))
		}
		for f := 0; f < crudFields; f++ {
			want := w.expected(key, f)
			if res.Rows[0][1+f] != types.Datum(want) {
				return fmt.Errorf("key %d field%d = %v, generator's last write is %q", key, f, res.Rows[0][1+f], want)
			}
		}
	}
	return nil
}

// expected is the value the generator last wrote to a field.
func (w *crudWorkload) expected(key int64, f int) string {
	return fieldValue(w.seed, key, f, w.ver[int(key)*crudFields+f])
}

func (w *crudWorkload) Statements(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := rng.Intn(w.sz.CrudRows)
		if i%2 == 0 {
			out = append(out, fmt.Sprintf("SELECT * FROM usertable WHERE ycsb_key = %d", key))
		} else {
			f := rng.Intn(crudFields)
			out = append(out, fmt.Sprintf("UPDATE usertable SET field%d = '%s' WHERE ycsb_key = %d",
				f, fieldValue(w.seed, int64(key), f, 1), key))
		}
	}
	return out
}
