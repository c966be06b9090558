package tpch_test

import (
	"strings"
	"testing"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/types"
	"citusgo/internal/workload/tpch"
)

// TestDistributedMatchesLocal is the strongest correctness check in the
// repo: every supported TPC-H query must return identical results on a
// plain single engine and on a distributed 2-worker cluster.
func TestDistributedMatchesLocal(t *testing.T) {
	cfg := tpch.Config{Orders: 600, Customers: 80, Parts: 120, Suppliers: 30}

	// plain single-node run
	pg := engine.New(engine.Config{Name: "pg"})
	defer pg.Close()
	pgSess := pg.NewSession()
	localCfg := cfg
	localCfg.Distributed = false
	if err := tpch.Load(pgSess, localCfg); err != nil {
		t.Fatal(err)
	}

	// distributed run
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	distSess := c.Session()
	distCfg := cfg
	distCfg.Distributed = true
	if err := tpch.Load(distSess, distCfg); err != nil {
		t.Fatal(err)
	}

	for _, q := range tpch.Queries {
		lres, err := pgSess.Exec(q.SQL)
		if err != nil {
			t.Fatalf("Q%d local: %v", q.Num, err)
		}
		dres, err := distSess.Exec(q.SQL)
		if err != nil {
			t.Fatalf("Q%d distributed: %v", q.Num, err)
		}
		lTxt := canonical(lres.Rows, q.Num)
		dTxt := canonical(dres.Rows, q.Num)
		if lTxt != dTxt {
			t.Errorf("Q%d results differ:\nlocal (%d rows):\n%s\ndistributed (%d rows):\n%s",
				q.Num, len(lres.Rows), clip(lTxt), len(dres.Rows), clip(dTxt))
		}
	}
}

// canonical renders rows with rounded floats (partial aggregation changes
// floating-point summation order).
func canonical(rows []types.Row, qnum int) string {
	var sb strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			switch x := v.(type) {
			case float64:
				sb.WriteString(trimFloat(x))
			default:
				sb.WriteString(types.Format(v))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func trimFloat(f float64) string {
	// round to 3 decimals to absorb float association differences
	scaled := f
	if scaled < 0 {
		scaled = -scaled
	}
	return types.Format(float64(int64(f*1000+0.5)) / 1000)
}

func clip(s string) string {
	if len(s) > 800 {
		return s[:800] + "..."
	}
	return s
}

func TestRunReportsQPH(t *testing.T) {
	eng := engine.New(engine.Config{Name: "pg"})
	defer eng.Close()
	s := eng.NewSession()
	if err := tpch.Load(s, tpch.Config{Orders: 200, Customers: 40, Parts: 60, Suppliers: 20}); err != nil {
		t.Fatal(err)
	}
	res, err := tpch.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesPerHour <= 0 || len(res.PerQuery) != len(tpch.Queries) {
		t.Fatalf("bad result: %+v", res)
	}
}

// TestVectorizedMatchesRowPath: every supported query answers with identical
// rows whether its aggregates run vectorized — over the heap scans and, from
// Q3 on, through trees of vectorized hash joins — or row at a time
// (Features.NoVectorized), on a plain engine and on a distributed cluster,
// where the shard queries a worker plans are what changes path. Q3, the
// benchmark's q_join, must have taken the vectorized join.
func TestVectorizedMatchesRowPath(t *testing.T) {
	cfg := tpch.Config{Orders: 600, Customers: 80, Parts: 120, Suppliers: 30}
	pg := engine.New(engine.Config{Name: "pg"})
	defer pg.Close()
	if err := tpch.Load(pg.NewSession(), cfg); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Workers: 2, ShardCount: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	distCfg := cfg
	distCfg.Distributed = true
	if err := tpch.Load(c.Session(), distCfg); err != nil {
		t.Fatal(err)
	}
	joinRows := func() int64 { return obs.Default().Snapshot().Sum("vec_join_build_rows_total") }

	for _, target := range []struct {
		name    string
		sess    *engine.Session
		engines []*engine.Engine
	}{{"local", pg.NewSession(), []*engine.Engine{pg}}, {"distributed", c.Session(), c.Engines}} {
		for _, q := range tpch.Queries {
			before := joinRows()
			vec, err := target.sess.Exec(q.SQL)
			if err != nil {
				t.Fatalf("%s Q%d vectorized: %v", target.name, q.Num, err)
			}
			joined := joinRows() != before
			for _, e := range target.engines {
				e.SetFeatures(engine.Features{NoVectorized: true})
			}
			before = joinRows()
			row, err := target.sess.Exec(q.SQL)
			for _, e := range target.engines {
				e.SetFeatures(engine.Features{})
			}
			if err != nil {
				t.Fatalf("%s Q%d row at a time: %v", target.name, q.Num, err)
			}
			if joinRows() != before {
				t.Errorf("%s Q%d: NoVectorized still ran a vectorized join", target.name, q.Num)
			}
			if q.Num == 3 && !joined {
				t.Errorf("%s Q3 did not take the vectorized join", target.name)
			}
			if v, r := canonical(vec.Rows, q.Num), canonical(row.Rows, q.Num); v != r {
				t.Errorf("%s Q%d results differ:\nvectorized (%d rows):\n%s\nrow at a time (%d rows):\n%s",
					target.name, q.Num, len(vec.Rows), clip(v), len(row.Rows), clip(r))
			}
		}
	}
}
