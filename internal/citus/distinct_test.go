package citus_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestDistinctMatchesLocalTable compares SELECT DISTINCT over a distributed
// table with the same statement over a local table holding the same rows, in
// the same cluster. A value the workers each made distinct arrives once per
// shard that holds it, so the merge must apply DISTINCT again — before its
// LIMIT and OFFSET, which it applies too.
func TestDistinctMatchesLocalTable(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	for _, q := range []string{
		"CREATE TABLE d (k bigint PRIMARY KEY, g bigint, v double precision, s text)",
		"SELECT create_distributed_table('d', 'k')",
		"CREATE TABLE l (k bigint PRIMARY KEY, g bigint, v double precision, s text)",
	} {
		mustExec(t, s, q)
	}
	for k := 1; k <= 40; k++ {
		g, v, str := fmt.Sprint(k%6), fmt.Sprint(float64(k%4)/2), fmt.Sprintf("'s%d'", k%3)
		if k%7 == 0 {
			g = "NULL"
		}
		if k%9 == 0 {
			v, str = "NULL", "NULL"
		}
		for _, table := range []string{"d", "l"} {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s, %s)", table, k, g, v, str))
		}
	}

	for _, tc := range []struct {
		q       string
		ordered bool // the statement fixes the row order
	}{
		{"SELECT DISTINCT g FROM %s", false},
		{"SELECT DISTINCT g FROM %s ORDER BY g", true},
		{"SELECT DISTINCT g FROM %s WHERE v > 0 ORDER BY g", true},
		{"SELECT DISTINCT g FROM %s ORDER BY g LIMIT 2", true},
		{"SELECT DISTINCT g FROM %s ORDER BY g DESC LIMIT 3 OFFSET 2", true},
		{"SELECT DISTINCT g FROM %s ORDER BY g OFFSET 4", true},
		{"SELECT DISTINCT g, s FROM %s WHERE k > 5 ORDER BY g, s", true},
		{"SELECT DISTINCT s, v FROM %s ORDER BY 1, 2 LIMIT 5", true},
		{"SELECT DISTINCT v FROM %s WHERE s = 's1'", false},
		{"SELECT DISTINCT g AS grp FROM %s ORDER BY grp LIMIT 4", true},
		// groups confined to a shard: every count is 1 on every shard
		{"SELECT DISTINCT count(*) FROM %s GROUP BY k", false},
		// a router query: one shard answers, nothing to merge
		{"SELECT DISTINCT g FROM %s WHERE k = 14", true},
	} {
		var got [2]string
		for i, table := range []string{"d", "l"} {
			q := fmt.Sprintf(tc.q, table)
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			lines := strings.Split(rowsText(res), "\n")
			if !tc.ordered {
				slices.Sort(lines)
			}
			got[i] = strings.Join(lines, "\n")
		}
		if got[0] != got[1] {
			t.Errorf("%s:\ndistributed:\n%s\nlocal:\n%s", fmt.Sprintf(tc.q, "d"), got[0], got[1])
		}
	}
}
