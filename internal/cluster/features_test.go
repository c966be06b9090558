package cluster

import (
	"fmt"
	"strings"
	"testing"

	"citusgo/internal/citus"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/types"
)

// TestFeaturesReachEveryEngine: Config.Features is what every engine of the
// cluster runs with — the primaries and standbys booted with it, a worker
// restarted from its log, and a failed-over worker rejoining as a standby.
func TestFeaturesReachEveryEngine(t *testing.T) {
	want := engine.Features{NoPlanCache: true, NoSSI: true, VecParallelism: 3}
	c, err := New(Config{
		Workers:           2,
		ShardCount:        4,
		ReplicationFactor: 1,
		ReplicationMode:   repl.ModeSync,
		Features:          want,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := func(what string, e *engine.Engine) {
		t.Helper()
		if got := e.Features(); got != want {
			t.Errorf("%s %s: features %+v, want %+v", what, e.Name, got, want)
		}
	}
	for _, e := range c.Engines {
		check("primary", e)
	}
	for i := 1; i < len(c.Engines); i++ {
		for _, id := range c.Meta.StandbysOf(i + 1) {
			check("standby", c.StandbyEngine(id))
		}
	}
	mustExec(t, c.Session(), "CREATE TABLE f (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, c.Session(), "SELECT create_distributed_table('f', 'k')")

	if err := c.CrashWorker(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	check("restarted", c.Engines[1])

	if _, err := c.Failover(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartWorker(2); err != nil {
		t.Fatal(err)
	}
	check("rejoined standby", c.StandbyEngine(3))
}

// TestEachFeatureHasOneSeam throws each switch of engine.Features on a cluster
// and runs the workload its optimisation serves: with the optimisation on,
// its counters move; with it off, they stand still and the answers are the
// same rows.
func TestEachFeatureHasOneSeam(t *testing.T) {
	const grouped = "SELECT bucket, count(*), sum(val) FROM ev GROUP BY bucket ORDER BY bucket"
	for _, tc := range []struct {
		name     string
		on, off  engine.Features
		counters []string
		run      func(t *testing.T, c *Cluster, keyB int64) string
	}{
		{
			name: "plan cache", off: engine.Features{NoPlanCache: true},
			counters: []string{"citus_plancache_hits", "engine_plancache_hits"},
			run: func(t *testing.T, c *Cluster, _ int64) string {
				return repeat(t, c.Session(), "SELECT v FROM kv WHERE k = 3", 4)
			},
		},
		{
			name: "TopN pushdown", off: engine.Features{NoTopNPushdown: true},
			counters: []string{"citus_topn_pushdowns_total"},
			run: func(t *testing.T, c *Cluster, _ int64) string {
				return repeat(t, c.Session(), grouped+" LIMIT 3", 1)
			},
		},
		{
			name: "vectorized", off: engine.Features{NoVectorized: true},
			counters: []string{"columnar_vec_queries_total"},
			run: func(t *testing.T, c *Cluster, _ int64) string {
				return repeat(t, c.Session(), grouped, 1)
			},
		},
		{
			name: "vectorized parallelism",
			on:   engine.Features{VecParallelism: 2}, off: engine.Features{VecParallelism: 1},
			counters: []string{"columnar_vec_parallel_scans_total"},
			run: func(t *testing.T, c *Cluster, _ int64) string {
				return repeat(t, c.Session(), grouped, 1)
			},
		},
		{
			name: "SSI", off: engine.Features{NoSSI: true},
			counters: []string{"ssi_rw_conflicts_total", "ssi_dist_checks_total"},
			run: func(t *testing.T, c *Cluster, keyB int64) string {
				// s1 reads k = 1 of a worker's table and of the coordinator's own,
				// s2 overwrites both and commits on two workers, then s1 commits:
				// rw-antidependencies on a worker and on the coordinator, no
				// dangerous structure
				s1, s2 := c.Session(), c.Session()
				for _, s := range []*engine.Session{s1, s2} {
					mustExec(t, s, "SET transaction_isolation = 'serializable'")
					mustExec(t, s, "BEGIN")
				}
				read := repeat(t, s1, "SELECT v FROM kv WHERE k = 1", 1) + "\n" +
					repeat(t, s1, "SELECT v FROM loc WHERE k = 1", 1)
				mustExec(t, s2, "UPDATE kv SET v = v + 1 WHERE k = 1")
				mustExec(t, s2, fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", keyB))
				mustExec(t, s2, "UPDATE loc SET v = v + 1 WHERE k = 1")
				mustExec(t, s2, "COMMIT")
				mustExec(t, s1, "COMMIT")
				return read + "\n" + repeat(t, c.Session(), "SELECT k, v FROM kv ORDER BY k", 1)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onRows, onMoved := runFeatureArm(t, tc.on, tc.counters, tc.run)
			offRows, offMoved := runFeatureArm(t, tc.off, tc.counters, tc.run)
			for _, name := range tc.counters {
				if onMoved[name] == 0 {
					t.Errorf("%+v: %s did not move", tc.on, name)
				}
				if offMoved[name] != 0 {
					t.Errorf("%+v: %s moved by %d", tc.off, name, offMoved[name])
				}
			}
			if onRows != offRows {
				t.Errorf("answers differ:\n%+v:\n%s\n%+v:\n%s", tc.on, onRows, tc.off, offRows)
			}
		})
	}
}

// runFeatureArm boots a cluster with features, loads the seam workloads'
// tables, and returns what run answered and how far each counter moved
// while it ran.
func runFeatureArm(t *testing.T, features engine.Features, counters []string,
	run func(t *testing.T, c *Cluster, keyB int64) string) (string, map[string]int64) {
	t.Helper()
	c, err := New(Config{
		Workers:    2,
		ShardCount: 4,
		Citus:      citus.Config{DeadlockInterval: -1, RecoveryInterval: -1},
		Features:   features,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session()
	mustExec(t, s, "CREATE TABLE kv (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('kv', 'k')")
	_, keyB := findCrossNodeKeys(t, c, "kv")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0) ON CONFLICT (k) DO NOTHING", keyB))
	mustExec(t, s, "CREATE TABLE loc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "INSERT INTO loc VALUES (1, 100)")
	mustExec(t, s, "CREATE TABLE ev (tenant bigint, bucket bigint, val bigint) USING columnar")
	mustExec(t, s, "SELECT create_distributed_table('ev', 'tenant')")
	// two loads with a checkpoint between, which freezes the stripes the
	// first filled: two stripes on every shard, for a parallel scan to split
	for load := 0; load < 2; load++ {
		if load > 0 {
			c.Checkpoint()
		}
		var rows []string
		for tenant := 0; tenant < 24; tenant++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", tenant, (tenant+load)%7, tenant*10+load))
		}
		mustExec(t, s, "INSERT INTO ev VALUES "+strings.Join(rows, ", "))
	}

	pre := obs.Default().Snapshot()
	answer := run(t, c, keyB)
	d := obs.Default().Snapshot().Delta(pre)
	moved := map[string]int64{}
	for _, name := range counters {
		moved[name] = d.Sum(name)
	}
	return answer, moved
}

// repeat runs q n times on s and returns the last answer's rows, one a line.
func repeat(t *testing.T, s *engine.Session, q string, n int) string {
	t.Helper()
	var res *engine.Result
	for i := 0; i < n; i++ {
		res = exec(t, s, q)
	}
	var lines []string
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = types.Format(v)
		}
		lines = append(lines, strings.Join(cells, "|"))
	}
	return strings.Join(lines, "\n")
}
