package engine

import (
	"strings"
	"sync"
	"testing"

	"citusgo/internal/jsonb"
	"citusgo/internal/types"
)

// postgresCommits is the dashboard's total over rows: the commits of the
// events one of whose messages mentions postgres.
func postgresCommits(rows []types.Row) int64 {
	total := int64(0)
	for _, row := range rows {
		doc := row[1].(jsonb.Value)
		messages, _ := doc.PathQueryArray("$.payload.commits[*].message")
		if strings.Contains(messages.String(), "postgres") {
			payload, _ := doc.Get("payload")
			commits, _ := payload.Get("commits")
			n, _ := commits.ArrayLength()
			total += int64(n)
		}
	}
	return total
}

// TestDashboardUnderConcurrentCopy runs the vectorized dashboard — the GIN
// search, the batched fetch of its candidates under the table's read lock,
// the recheck — while another session COPYs batches of events into the table,
// each its own transaction, deletes some and vacuums. A COPY is visible whole
// or not at all and the deletes take events that never mention postgres, so
// every answer must add up to the total of a prefix of the batches, and no
// answer to less than the one before. Run under -race by make stress.
func TestDashboardUnderConcurrentCopy(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession()
	for _, q := range []string{pushEventsDDL, pushEventsIndex} {
		mustExec(t, s, q)
	}
	const batches, batchRows = 40, 150
	prefix := map[int64]bool{0: true}
	var loads [][]types.Row
	total := int64(0)
	for b := 0; b < batches; b++ {
		rows := pushEvents(int64(b+1), b*batchRows, batchRows)
		loads = append(loads, rows)
		total += postgresCommits(rows)
		prefix[total] = true
	}

	var wg sync.WaitGroup
	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		w := e.NewSession()
		for b, rows := range loads {
			if _, err := w.CopyFrom("github_events", nil, rows); err != nil {
				writerErr <- err
				return
			}
			// events the dashboard never counts come and go beside the ones it does
			if _, err := w.Exec(`DELETE FROM github_events WHERE event_id LIKE '%7' AND
				jsonb_path_query_array(data, '$.payload.commits[*].message')::text NOT LIKE '%postgres%'`); err != nil {
				writerErr <- err
				return
			}
			if b%8 == 7 {
				e.Vacuum("github_events")
			}
		}
	}()

	last := int64(0)
	for done := false; !done; {
		select {
		case err := <-writerErr:
			t.Fatal(err)
		default:
		}
		before := ginWork()
		res := mustExec(t, s, dashboardSQL)
		sum := int64(0)
		for _, row := range res.Rows {
			sum += row[1].(int64)
		}
		if sum > 0 && ginWork() == before {
			t.Fatal("the dashboard did not fetch the index's candidates in batches")
		}
		if !prefix[sum] || sum < last {
			t.Fatalf("the dashboard adds up to %d after %d: not what a prefix of the COPY batches holds", sum, last)
		}
		last, done = sum, sum == total
	}
	wg.Wait()
}
