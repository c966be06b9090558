package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"citusgo/internal/fault"
	"citusgo/internal/types"
	"citusgo/internal/wal"
)

// FuzzRecovery is the recovery oracle. A seeded random schedule — INSERT,
// UPDATE, DELETE and COPY on heap and columnar tables from three sessions,
// commits, rollbacks, PREPARE TRANSACTION resolved later or left pending,
// CREATE/DROP TABLE under a handful of reused names, TRUNCATE, CREATE INDEX,
// ADD COLUMN, bursts of UPDATE and DELETE followed by VACUUM, which compacts
// pages between checkpoints and inside the windows replay covers, and bursts
// of updates that keep every indexed column (heap-only) then of updates that
// change one — v, or the primary key — with a VACUUM after each — runs with
// checkpoints forced at random points: between
// statements, so also between a transaction's first write and its commit —
// among them right after an open transaction's columnar insert with a
// committed row behind it in the same stripe, which the image then holds as
// a segment no snapshot sees — and inside COMMIT between the clog flip and
// the commit record. It runs
// twice, the same statements in the same order: on an engine whose log is
// really cut, and on one whose log a holder at LSN 1 keeps whole. Then four
// engines must agree — the two live ones, one recovered from the first's
// base + tail, one recovered from the second's records replayed from LSN 1
// (copied into a log that has no base: the only whole-log replay there is) —
// on SELECT * of every table, on the pending prepared transactions, and on
// primary-key and secondary-index lookups.
func FuzzRecovery(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		fault.Reset()
		defer fault.Reset()
		cut := runRecoverySchedule(t, seed, false)
		whole := runRecoverySchedule(t, seed, true)
		if whole.WAL.FirstLSN() != 1 {
			t.Fatalf("the held log was cut to LSN %d", whole.WAL.FirstLSN())
		}
		want := observe(t, cut)
		if got := observe(t, whole); got != want {
			t.Fatalf("the two live engines differ (seed %d)\ncut log:\n%s\nheld log:\n%s", seed, want, got)
		}

		cut.WAL.Seal()
		fromBase := newTestEngine(t)
		if err := fromBase.RecoverFrom(cut.WAL, 0); err != nil {
			t.Fatalf("base + tail (seed %d): %v", seed, err)
		}
		if got := observe(t, fromBase); got != want {
			t.Fatalf("base + tail differs from the live engine (seed %d, base %+v)\nlive:\n%s\nrecovered:\n%s",
				seed, cut.WAL.Base(), want, got)
		}

		// the whole log, replayed from LSN 1: the same records in a log
		// that was never checkpointed
		fault.Reset()
		records := wal.New()
		for _, rec := range whole.WAL.Records() {
			records.Append(rec)
		}
		records.Seal()
		fromLSN1 := newTestEngine(t)
		if err := fromLSN1.RecoverFrom(records, 0); err != nil {
			t.Fatalf("whole log (seed %d): %v", seed, err)
		}
		if got := observe(t, fromLSN1); got != want {
			t.Fatalf("the whole log differs from the live engine (seed %d)\nlive:\n%s\nrecovered:\n%s", seed, want, got)
		}
	})
}

var oracleTables = []string{"h0", "h1", "h2", "c0", "c1"}

type oracleSession struct {
	s    *Session
	open bool
	// touched are the heap keys the open transaction wrote, by table: a
	// prepared transaction keeps their row locks until it is resolved
	touched map[string][]int64
	// wrote are the tables the open transaction wrote to: it holds their
	// relation locks shared until it ends, or is resolved once prepared
	wrote map[string]bool
}

type oracleRun struct {
	t    *testing.T
	e    *Engine
	rng  func() uint64
	sess []*oracleSession
	live map[string]bool
	// keys[table][session]: keys that session inserted and may still be there
	keys    map[string][][]int64
	nextKey int64
	// busy keys are locked by a pending prepared transaction, by gid;
	// pending lists those gids, oldest first
	busy    map[string]map[string][]int64
	pending []string
	// busyTables are the tables a pending prepared transaction wrote to, by
	// gid
	busyTables map[string]map[string]bool
	nextCol    int
}

// runRecoverySchedule runs the schedule of seed on a fresh engine and
// returns it, with whatever the schedule left open or prepared still so.
func runRecoverySchedule(t *testing.T, seed uint64, holdLog bool) *Engine {
	r := &oracleRun{
		t: t, e: newTestEngine(t), rng: splitmix(seed),
		live: map[string]bool{}, keys: map[string][][]int64{},
		busy: map[string]map[string][]int64{}, busyTables: map[string]map[string]bool{},
	}
	if holdLog {
		if _, err := r.e.WAL.HoldAt("test", 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		r.sess = append(r.sess, &oracleSession{s: r.e.NewSession(), touched: map[string][]int64{}, wrote: map[string]bool{}})
	}
	r.createTable("h0")
	r.createTable("c0")
	steps := 60 + int(r.rng()%140)
	for i := 0; i < steps; i++ {
		r.step()
	}
	return r.e
}

func (r *oracleRun) pick(n int) int { return int(r.rng() % uint64(n)) }

func (r *oracleRun) liveTables(prefix string) []string {
	var out []string
	for _, name := range oracleTables {
		if r.live[name] && strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out
}

func (r *oracleRun) createTable(name string) {
	using := ""
	if name[0] == 'c' {
		using = " USING columnar"
	}
	pk := " PRIMARY KEY"
	if using != "" {
		pk = ""
	}
	if _, err := r.e.NewSession().Exec(fmt.Sprintf("CREATE TABLE %s (k bigint%s, v bigint, s text)%s", name, pk, using)); err != nil {
		r.t.Fatalf("create %s: %v", name, err)
	}
	r.live[name] = true
	r.keys[name] = make([][]int64, len(r.sess))
}

// exec runs one statement in a session; an error inside a transaction block
// has aborted the transaction, and the block is closed.
func (r *oracleRun) exec(os *oracleSession, q string, params ...types.Datum) {
	if _, err := os.s.Exec(q, params...); err != nil && os.open {
		r.end(os, "ROLLBACK")
	}
}

func (r *oracleRun) end(os *oracleSession, how string) {
	if _, err := os.s.Exec(how); err != nil && os.s.InTransaction() {
		_, _ = os.s.Exec("ROLLBACK")
	}
	os.open = false
	os.touched, os.wrote = map[string][]int64{}, map[string]bool{}
}

// written reports whether a transaction still open or prepared wrote to
// table. DDL that erases or reshapes the table waits for it — in this
// single-threaded schedule, for ever — so the schedule leaves the table's
// DDL until it has ended.
func (r *oracleRun) written(table string) bool {
	for _, os := range r.sess {
		if os.wrote[table] {
			return true
		}
	}
	for _, tables := range r.busyTables {
		if tables[table] {
			return true
		}
	}
	return false
}

func (r *oracleRun) isBusy(table string, key int64) bool {
	for _, byTable := range r.busy {
		if slices.Contains(byTable[table], key) {
			return true
		}
	}
	return false
}

func (r *oracleRun) step() {
	si := r.pick(len(r.sess))
	os := r.sess[si]
	defer func() {
		if !os.open { // autocommit: the statement's locks are gone
			os.touched, os.wrote = map[string][]int64{}, map[string]bool{}
		}
	}()
	switch op := r.pick(110); {
	case op < 8:
		if !os.open {
			r.exec(os, "BEGIN")
			os.open = true
		}
	case op < 30: // INSERT, heap or columnar
		tables := r.liveTables("")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		key := r.nextKey
		r.nextKey++
		os.wrote[table] = true
		r.exec(os, fmt.Sprintf("INSERT INTO %s (k, v, s) VALUES ($1, $2, $3)", table),
			key, int64(r.pick(20)), fmt.Sprintf("s%d", r.pick(5)))
		if table[0] == 'h' {
			r.keys[table][si] = append(r.keys[table][si], key)
			os.touched[table] = append(os.touched[table], key)
		}
	case op < 38: // COPY
		tables := r.liveTables("")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		os.wrote[table] = true
		var rows []types.Row
		for n := 1 + r.pick(6); n > 0; n-- {
			key := r.nextKey
			r.nextKey++
			rows = append(rows, types.Row{key, int64(r.pick(20)), fmt.Sprintf("s%d", r.pick(5))})
			if table[0] == 'h' {
				r.keys[table][si] = append(r.keys[table][si], key)
				os.touched[table] = append(os.touched[table], key)
			}
		}
		if _, err := os.s.CopyFrom(table, []string{"k", "v", "s"}, rows); err != nil && os.open {
			r.end(os, "ROLLBACK")
		}
	case op < 58: // UPDATE or DELETE one of the session's own keys
		tables := r.liveTables("h")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		mine := r.keys[table][si]
		if len(mine) == 0 {
			return
		}
		key := mine[r.pick(len(mine))]
		if r.isBusy(table, key) {
			return
		}
		os.touched[table] = append(os.touched[table], key)
		os.wrote[table] = true
		if op < 50 {
			r.exec(os, fmt.Sprintf("UPDATE %s SET v = $1 WHERE k = $2", table), int64(r.pick(20)), key)
		} else {
			r.exec(os, fmt.Sprintf("DELETE FROM %s WHERE k = $1", table), key)
		}
	case op < 66:
		if os.open {
			r.end(os, "COMMIT")
		}
	case op < 70:
		if os.open {
			r.end(os, "ROLLBACK")
		}
	case op < 74: // PREPARE TRANSACTION, resolved by a later step or never
		if os.open {
			gid := fmt.Sprintf("g%d", r.nextKey)
			r.nextKey++
			r.busy[gid], r.busyTables[gid] = os.touched, os.wrote
			r.pending = append(r.pending, gid)
			r.end(os, "PREPARE TRANSACTION '"+gid+"'")
		}
	case op < 78:
		if len(r.pending) > 0 {
			gid := r.pending[0]
			verb := "COMMIT PREPARED '"
			if r.pick(3) == 0 {
				verb = "ROLLBACK PREPARED '"
			}
			_, _ = r.e.NewSession().Exec(verb + gid + "'")
			delete(r.busy, gid)
			delete(r.busyTables, gid)
			r.pending = r.pending[1:]
		}
	case op < 82: // CREATE or DROP TABLE, names reused
		name := oracleTables[r.pick(len(oracleTables))]
		if r.written(name) {
			return
		}
		if r.live[name] {
			_, _ = r.e.NewSession().Exec("DROP TABLE " + name)
			r.live[name] = false
		} else {
			r.createTable(name)
		}
	case op < 85:
		if tables := r.liveTables(""); len(tables) > 0 {
			if table := tables[r.pick(len(tables))]; !r.written(table) {
				_, _ = r.e.NewSession().Exec("TRUNCATE " + table)
			}
		}
	case op < 87:
		if tables := r.liveTables("h"); len(tables) > 0 {
			table := tables[r.pick(len(tables))]
			_, _ = r.e.NewSession().Exec(fmt.Sprintf("CREATE INDEX IF NOT EXISTS %s_v ON %s (v)", table, table))
		}
	case op < 89:
		if tables := r.liveTables("h"); len(tables) > 0 {
			if table := tables[r.pick(len(tables))]; !r.written(table) {
				r.nextCol++
				_, _ = r.e.NewSession().Exec(fmt.Sprintf("ALTER TABLE %s ADD COLUMN x%d bigint", table, r.nextCol))
			}
		}
	case op < 93:
		r.e.Checkpoint()
	case op < 96: // a checkpoint while a columnar insert is open, a committed row behind it
		tables := r.liveTables("c")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		insert := fmt.Sprintf("INSERT INTO %s (k, v, s) VALUES ($1, $2, $3)", table)
		if !os.open {
			r.exec(os, "BEGIN")
			os.open = true
		}
		os.wrote[table] = true
		r.exec(os, insert, r.nextKey, int64(r.pick(20)), "open")
		_, _ = r.e.NewSession().Exec(insert, r.nextKey+1, int64(r.pick(20)), "committed")
		r.nextKey += 2
		r.e.Checkpoint()
	case op < 100: // UPDATE and DELETE churn over the session's own keys, committed, then VACUUM: pages compact
		tables := r.liveTables("h")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		mine := r.keys[table][si]
		if os.open {
			r.end(os, "COMMIT")
		}
		for n := 0; n < 40 && len(mine) > 0; n++ {
			key := mine[r.pick(len(mine))]
			if r.isBusy(table, key) {
				continue
			}
			os.touched[table] = append(os.touched[table], key)
			os.wrote[table] = true
			if n%10 == 9 {
				r.exec(os, fmt.Sprintf("DELETE FROM %s WHERE k = $1", table), key)
			} else {
				r.exec(os, fmt.Sprintf("UPDATE %s SET v = $1, s = $2 WHERE k = $3", table),
					int64(r.pick(20)), fmt.Sprintf("churn%d", r.pick(1000)), key)
			}
		}
		_, _ = r.e.NewSession().Exec("VACUUM " + table)
	case op < 106: // updates that keep every indexed column, VACUUM, updates that change one, VACUUM
		tables := r.liveTables("h")
		if len(tables) == 0 {
			return
		}
		table := tables[r.pick(len(tables))]
		mine := r.keys[table][si]
		if os.open {
			r.end(os, "COMMIT")
		}
		for phase := 0; phase < 2; phase++ {
			for n := 0; n < 12 && len(mine) > 0; n++ {
				i := r.pick(len(mine))
				if r.isBusy(table, mine[i]) {
					continue
				}
				os.wrote[table] = true
				switch {
				case phase == 0: // s is in no index: heap-only
					r.exec(os, fmt.Sprintf("UPDATE %s SET s = $1 WHERE k = $2", table), fmt.Sprintf("hot%d", r.pick(1000)), mine[i])
				case n%3 == 0: // a new primary key
					r.exec(os, fmt.Sprintf("UPDATE %s SET k = $1 WHERE k = $2", table), r.nextKey, mine[i])
					mine[i] = r.nextKey
					r.nextKey++
				default: // v: a new key in the v index, when there is one
					r.exec(os, fmt.Sprintf("UPDATE %s SET v = $1 WHERE k = $2", table), int64(r.pick(20)), mine[i])
				}
			}
			_, _ = r.e.NewSession().Exec("VACUUM " + table)
		}
	default: // a checkpoint inside COMMIT: clog flipped, commit record not yet written
		if !os.open {
			return
		}
		arrived, release := fault.ArmGate(fault.PointWALFsync, wal.RecCommit.String()+"@"+r.e.Name)
		done := make(chan struct{})
		go func() {
			r.end(os, "COMMIT")
			close(done)
		}()
		select {
		case <-arrived:
			r.e.Checkpoint()
			release(nil)
			<-done
		case <-done: // it had written nothing: no commit record
			fault.Reset()
		}
	}
}

// observe renders what a client can see of an engine: every table's rows,
// sorted, the pending prepared transactions, and what the primary-key and
// v-index paths return for a spread of values.
func observe(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	s := e.NewSession()
	render := func(q string, params ...types.Datum) {
		res, err := s.Exec(q, params...)
		if err != nil {
			fmt.Fprintf(&b, "%s %v: error %v\n", q, params, err)
			return
		}
		lines := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = types.Format(v)
			}
			lines[i] = strings.Join(cells, "|")
		}
		slices.Sort(lines)
		fmt.Fprintf(&b, "%s %v: %s\n", q, params, strings.Join(lines, " "))
	}
	for _, name := range oracleTables {
		if _, ok := e.store(name); !ok {
			fmt.Fprintf(&b, "%s: absent\n", name)
			continue
		}
		render("SELECT * FROM " + name)
		if name[0] != 'h' {
			continue
		}
		res, err := s.Exec("SELECT k FROM " + name + " ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range res.Rows {
			if i%7 == 0 {
				render("SELECT k, v, s FROM "+name+" WHERE k = $1", row[0])
			}
		}
		for v := int64(0); v < 20; v += 3 {
			render("SELECT k FROM "+name+" WHERE v = $1", v)
		}
	}
	var gids []string
	for _, p := range e.Txns.ListPrepared() {
		gids = append(gids, p.GID)
	}
	slices.Sort(gids)
	fmt.Fprintf(&b, "prepared: %v\n", gids)
	return b.String()
}
