package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"citusgo/internal/engine"
	"citusgo/internal/heap"
	"citusgo/internal/index"
	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// ingest_live is the real-time analytics pattern of the paper's §4.2 as a
// fixed schedule: one client repeats rounds of COPY batches of synthetic
// GitHub push events into a jsonb table with a trigram GIN index, the §4.2
// dashboard query over that index, and a co-located INSERT..SELECT that
// rolls the round's new events up. The schedule, not the clock, fixes how
// much data each query sees; it ends at a cap because the program keeps
// several KB of heap per event.

// sample sets
const (
	ingestCopy = iota
	ingestDash
	ingestRollup
)

const (
	ingestDays = 7

	ingestEventsDDL = "CREATE TABLE github_events (event_id text PRIMARY KEY, data jsonb)"
	ingestIndexDDL  = "CREATE INDEX text_search_idx ON github_events USING gin " +
		"((jsonb_path_query_array(data, '$.payload.commits[*].message')::text) gin_trgm_ops)"
	ingestRollupDDL = "CREATE TABLE push_commits (event_id text, day timestamp, commit_count bigint)"

	// the §4.2 dashboard: commits mentioning postgres per day
	ingestDashSQL = `SELECT (data->>'created_at')::date,
	sum(jsonb_array_length(data->'payload'->'commits'))
	FROM github_events
	WHERE jsonb_path_query_array(data, '$.payload.commits[*].message')::text ILIKE '%postgres%'
	GROUP BY 1 ORDER BY 1 ASC`

	ingestMessagePath = "$.payload.commits[*].message"
)

// ingestWords feeds commit messages; "postgres" is one word in 28, so the
// dashboard's ILIKE is selective but never empty.
var ingestWords = []string{
	"fix", "bug", "add", "feature", "update", "docs", "refactor", "test",
	"remove", "improve", "cleanup", "merge", "branch", "release", "version",
	"postgres", "index", "query", "cache", "api", "server", "client",
	"support", "error", "handling", "performance", "initial", "commit",
}

// eventGen produces deterministic push events and keeps the totals the
// output checks compare against.
type eventGen struct {
	rng     *rand.Rand
	seq     int
	commits int64
	// postgresByDay sums the commits of events with a message mentioning
	// postgres, per day: the dashboard's answer.
	postgresByDay map[string]int64
}

func newEventGen(seed int64) *eventGen {
	return &eventGen{rng: rand.New(rand.NewSource(seed)), postgresByDay: make(map[string]int64)}
}

func eventID(seq int) string { return fmt.Sprintf("evt-%012d", seq) }

func (g *eventGen) next() types.Row {
	g.seq++
	n := 1 + g.rng.Intn(4)
	commits := make([]any, n)
	mentions := false
	for i := range commits {
		words := make([]string, 3+g.rng.Intn(6))
		for j := range words {
			words[j] = ingestWords[g.rng.Intn(len(ingestWords))]
			mentions = mentions || words[j] == "postgres"
		}
		commits[i] = map[string]any{
			"sha":     fmt.Sprintf("%08x%08x", g.rng.Uint32(), g.rng.Uint32()),
			"message": strings.Join(words, " "),
			"author":  map[string]any{"name": fmt.Sprint("user", g.rng.Intn(1000))},
		}
	}
	ts := day(2020, 2, 1).Add(time.Duration(g.rng.Intn(ingestDays*24*3600)) * time.Second)
	g.commits += int64(n)
	if mentions {
		g.postgresByDay[ts.Format("2006-01-02")] += int64(n)
	}
	return types.Row{eventID(g.seq), jsonb.FromGo(map[string]any{
		"type":       "PushEvent",
		"created_at": ts.Format(time.RFC3339),
		"actor":      map[string]any{"login": fmt.Sprint("user", g.rng.Intn(1000))},
		"repo":       map[string]any{"name": fmt.Sprint("org/repo", g.rng.Intn(200))},
		"payload":    map[string]any{"push_id": g.seq, "commits": commits},
	})}
}

func (g *eventGen) batch(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = g.next()
	}
	return rows
}

type ingestWorkload struct {
	seed int64
	sz   sizes
	gen  *eventGen

	step     int // position in the round's schedule
	rolledUp int // events already in push_commits
}

func newIngest(seed int64, sz sizes) *ingestWorkload {
	return &ingestWorkload{seed: seed, sz: sz, gen: newEventGen(seed)}
}

func (w *ingestWorkload) Clients() int   { return 1 }
func (w *ingestWorkload) Sets() []string { return []string{"copy", "dash", "rollup"} }
func (w *ingestWorkload) OpSets() int    { return 3 }

// Exhausted ends the schedule at the event cap, at a round boundary.
func (w *ingestWorkload) Exhausted() bool {
	return w.step == 0 && w.gen.seq+w.sz.IngestBatch*w.sz.IngestBatches > w.sz.IngestCap
}

func (w *ingestWorkload) Setup(r *rep) error {
	for _, ddl := range []string{
		ingestEventsDDL,
		"SELECT create_distributed_table('github_events', 'event_id')",
		ingestIndexDDL,
		ingestRollupDDL,
		"SELECT create_distributed_table('push_commits', 'event_id', colocate_with := 'github_events')",
	} {
		if _, err := r.exec(ddl); err != nil {
			return err
		}
	}
	if err := r.load("github_events", nil, w.gen.batch(w.sz.IngestBase), w.sz.IngestBatch); err != nil {
		return err
	}
	return w.rollup(func(text string) error { _, err := r.exec(text); return err })
}

// rollupSQL rolls events (from, to] into push_commits. Grouping-free and
// filtered on the distribution column, it is pushed down shard by shard
// (co-located INSERT..SELECT). The range is inlined, so every round's text
// is new to the statement caches.
func rollupSQL(from, to int) string {
	return fmt.Sprintf(`INSERT INTO push_commits (event_id, day, commit_count)
	SELECT event_id, date_trunc('day', (data->>'created_at')::timestamp),
	       jsonb_array_length(data->'payload'->'commits')
	FROM github_events WHERE event_id > '%s' AND event_id <= '%s'`, eventID(from), eventID(to))
}

func (w *ingestWorkload) rollup(run func(text string) error) error {
	if w.rolledUp == w.gen.seq {
		return nil
	}
	if err := run(rollupSQL(w.rolledUp, w.gen.seq)); err != nil {
		return err
	}
	w.rolledUp = w.gen.seq
	return nil
}

// stepsPerRound: the COPY batches, the dashboards, the rollup.
func (w *ingestWorkload) stepsPerRound() int { return w.sz.IngestBatches + w.sz.IngestDash + 1 }
func (w *ingestWorkload) WarmSteps() int     { return w.sz.IngestWarm * w.stepsPerRound() }

// Step runs the next statement of the round: the COPY batches, then the
// dashboards, then the rollup.
func (w *ingestWorkload) Step(c *client) {
	switch {
	case w.step < w.sz.IngestBatches:
		rows := w.gen.batch(w.sz.IngestBatch)
		_ = c.op(ingestCopy, "copy", func() error {
			return c.copyRows("copy", "github_events", nil, rows)
		})
	case w.step < w.sz.IngestBatches+w.sz.IngestDash:
		_ = c.op(ingestDash, "dashboard", func() error {
			res, err := c.query("dashboard", ingestDashSQL)
			if err != nil {
				return err
			}
			if err := w.verifyDashboard(res); err != nil {
				c.bad("dashboard: %v", err)
			}
			return nil
		})
	default:
		_ = c.op(ingestRollup, "rollup", func() error {
			return w.rollup(func(text string) error { _, err := c.query("rollup", text); return err })
		})
	}
	w.step = (w.step + 1) % w.stepsPerRound()
}

// verifyDashboard compares a dashboard reply with the generator's per-day
// sums over everything ingested so far.
func (w *ingestWorkload) verifyDashboard(res *engine.Result) error {
	days := make([]string, 0, len(w.gen.postgresByDay))
	for d := range w.gen.postgresByDay {
		days = append(days, d)
	}
	sort.Strings(days)
	if len(res.Rows) != len(days) {
		return fmt.Errorf("%d days, generator has %d", len(res.Rows), len(days))
	}
	for i, d := range days {
		got, err := asInt(res.Rows[i][1])
		if err != nil {
			return err
		}
		if gotDay := dayString(res.Rows[i][0]); gotDay != d || got != w.gen.postgresByDay[d] {
			return fmt.Errorf("row %d is (%s, %d), generator has (%s, %d)", i, gotDay, got, d, w.gen.postgresByDay[d])
		}
	}
	return nil
}

func dayString(d types.Datum) string {
	switch v := d.(type) {
	case time.Time:
		return v.Format("2006-01-02")
	case string:
		if len(v) >= 10 {
			return v[:10]
		}
		return v
	}
	return fmt.Sprint(d)
}

// Finish rolls up what the clock cut off mid-round, untimed, so that the
// checks compare complete tables.
func (w *ingestWorkload) Finish(r *rep) error {
	return w.rollup(func(text string) error { _, err := r.exec(text); return err })
}

func (w *ingestWorkload) Check(r *rep, res *repResult) error {
	if res.Failed > 0 {
		return nil // a failed COPY or rollup leaves the tables short of the generator
	}
	for _, q := range []struct {
		text string
		want int64
	}{
		{"SELECT count(*) FROM github_events", int64(w.gen.seq)},
		{"SELECT count(*) FROM push_commits", int64(w.gen.seq)},
		{"SELECT sum(commit_count) FROM push_commits", w.gen.commits},
	} {
		got, err := r.scalarInt(q.text)
		if err != nil {
			return err
		}
		if got != q.want {
			return fmt.Errorf("%s = %d, generator has %d", q.text, got, q.want)
		}
	}
	dash, err := r.exec(ingestDashSQL)
	if err != nil {
		return err
	}
	return w.verifyDashboard(dash)
}

func (w *ingestWorkload) Statements(rng *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			out = append(out, ingestDashSQL)
		} else {
			from := rng.Intn(w.sz.IngestCap)
			out = append(out, rollupSQL(from, from+w.sz.IngestBatch*w.sz.IngestBatches))
		}
	}
	return out
}

// ingestMicro times the layers under this workload by direct calls on the
// workload's own generated events: the jsonb path query the index
// expression evaluates per row, a GIN insert per row, and the GIN search
// the dashboard does.
func ingestMicro(seed int64, sz sizes) (map[string]float64, error) {
	gen := newEventGen(seed)
	rows := gen.batch(sz.IngestBatch * sz.IngestBatches)
	texts := make([]string, len(rows))
	start := time.Now()
	for i, row := range rows {
		arr, err := row[1].(jsonb.Value).PathQueryArray(ingestMessagePath)
		if err != nil {
			return nil, err
		}
		texts[i] = arr.String()
	}
	pathUs := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(rows))

	gin := index.NewGIN()
	start = time.Now()
	for i, text := range texts {
		gin.Insert(text, heap.TID(i))
	}
	insertUs := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(rows))

	const searches = 20
	start = time.Now()
	for i := 0; i < searches; i++ {
		if hits, usable := gin.Search("%postgres%"); !usable || len(hits) == 0 {
			return nil, fmt.Errorf("GIN search for postgres found %d candidates (usable=%v)", len(hits), usable)
		}
	}
	searchUs := float64(time.Since(start).Nanoseconds()) / 1e3 / searches
	return map[string]float64{
		"jsonb.path_query_us": pathUs, "gin.insert_us_per_row": insertUs, "gin.search_us": searchUs,
	}, nil
}
