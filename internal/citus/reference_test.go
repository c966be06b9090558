package citus_test

import (
	"testing"

	"citusgo/internal/types"
)

// TestReferenceWriteCounts: a write to a reference table runs on every
// node's replica, and the client sees it once — the tag counts each row once
// and RETURNING hands back each row once, whichever planner took it.
func TestReferenceWriteCounts(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE r (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_reference_table('r')")
	mustExec(t, s, "CREATE TABLE d (k bigint PRIMARY KEY, v text)")
	mustExec(t, s, "SELECT create_distributed_table('d', 'k')")
	mustExec(t, s, "INSERT INTO d VALUES (101, 'x'), (102, 'y'), (103, 'z')")

	for _, tc := range []struct {
		name, q string
		params  []types.Datum
		tag     string
		rows    string // RETURNING rows, "" for none
	}{
		{"one row", "INSERT INTO r VALUES (1, 'a')", nil, "INSERT 0 1", ""},
		{"multi-row", "INSERT INTO r VALUES (2, 'b'), (3, 'c')", nil, "INSERT 0 2", ""},
		{"params", "INSERT INTO r VALUES ($1, $2)", []types.Datum{int64(4), "d"}, "INSERT 0 1", ""},
		{"on conflict do nothing", "INSERT INTO r VALUES (1, 'dup'), (5, 'e') ON CONFLICT (k) DO NOTHING", nil, "INSERT 0 1", ""},
		{"on conflict do update", "INSERT INTO r VALUES (1, 'new'), (6, 'f') ON CONFLICT (k) DO UPDATE SET v = excluded.v", nil, "INSERT 0 2", ""},
		{"returning", "INSERT INTO r VALUES (7, 'g'), (8, 'h') RETURNING k", nil, "INSERT 0 2", "7\n8"},
		{"insert select from distributed", "INSERT INTO r SELECT k, v FROM d", nil, "INSERT 0 3", ""},
		{"insert select from reference", "INSERT INTO r SELECT k + 1000, v FROM r WHERE k < 3", nil, "INSERT 0 2", ""},
		{"update", "UPDATE r SET v = 'u' WHERE k < 3", nil, "UPDATE 2", ""},
		{"delete", "DELETE FROM r WHERE k = 1001", nil, "DELETE 1", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := mustExec(t, s, tc.q, tc.params...)
			if res.Tag != tc.tag {
				t.Errorf("tag %q, want %q", res.Tag, tc.tag)
			}
			if got := rowsText(res); got != tc.rows {
				t.Errorf("rows:\n%s\nwant:\n%s", got, tc.rows)
			}
		})
	}
	// every replica holds each row once: 1-8, 101-103 and 1002
	shard := c.Meta.Shards("r")[0].ShardName()
	for i := range c.Engines {
		expectRows(t, mustExec(t, c.SessionOn(i), "SELECT count(*) FROM "+shard), "12")
	}
}
