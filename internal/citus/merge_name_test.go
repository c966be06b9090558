package citus_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"citusgo/internal/engine"
	"citusgo/internal/types"
)

// TestMergeDropIsExact is the regression test for the coordinator merge
// dropping its intermediate result by prefix: finishing citus_merge_<n> must
// not delete a concurrent session's citus_merge_<n>0…<n>9. The other
// session's relations are stood in for by ones registered here under the
// names the next few merge queries' names are prefixes of.
func TestMergeDropIsExact(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE mn (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('mn', 'k')")
	mustExec(t, s, "INSERT INTO mn (k, v) VALUES (1, 1)")

	// EXPLAIN prints the merge query, which names the plan's relation; the
	// next plans take the following sequence numbers.
	var plan strings.Builder
	for _, r := range mustExec(t, s, "EXPLAIN SELECT count(*) FROM mn").Rows {
		plan.WriteString(types.Format(r[0]) + "\n")
	}
	m := regexp.MustCompile(`(citus_merge_\d+_)(\d+)`).FindStringSubmatch(plan.String())
	if m == nil {
		t.Fatalf("no merge relation in plan:\n%s", plan.String())
	}
	seq, _ := strconv.Atoi(m[2])
	eng := c.Coordinator().Eng
	var longer []string
	for d := 1; d <= 5; d++ {
		name := fmt.Sprintf("%s%d0", m[1], seq+d)
		eng.RegisterIntermediateResult(name, &engine.IntermediateResult{
			Columns: []string{"x"}, Rows: []types.Row{{int64(d)}},
		})
		longer = append(longer, name)
	}
	defer eng.DropIntermediateResults("citus_merge_")

	expectRows(t, mustExec(t, s, "SELECT count(*) FROM mn"), "1")
	for _, name := range longer {
		if _, err := s.Exec("SELECT x FROM " + name); err != nil {
			t.Errorf("merge of an unrelated query dropped %s: %v", name, err)
		}
	}
}

// TestConcurrentMergeSessions runs the same merge query from many sessions
// at once; their relation names count up through …_1, …_10…19, …_100…, so
// a drop that reaches past its own name fails some session's merge step
// with `relation "citus_merge_<n>" does not exist`.
func TestConcurrentMergeSessions(t *testing.T) {
	c := newCluster(t, 2)
	s := c.Session()
	mustExec(t, s, "CREATE TABLE mc (k bigint PRIMARY KEY, v bigint)")
	mustExec(t, s, "SELECT create_distributed_table('mc', 'k')")
	for i := 0; i < 32; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO mc (k, v) VALUES (%d, %d)", i, i))
	}
	var wg sync.WaitGroup
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.Session()
			for i := 0; i < 25; i++ {
				res, err := sess.Exec("SELECT count(*), sum(v) FROM mc")
				if err != nil {
					t.Error(err)
					return
				}
				if got := rowsText(res); got != "32|496" {
					t.Errorf("merge result %q, want 32|496", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
