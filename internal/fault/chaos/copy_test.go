package chaos

import (
	"fmt"
	"testing"
	"time"

	"citusgo/internal/fault"
	"citusgo/internal/types"
)

// TestCopyTwoPhaseCommitFaults is the 2PC fault matrix for COPY: a COPY
// whose rows land on two workers is one distributed transaction, so after
// recovery quiesces the cluster its rows are on both workers or on neither,
// and no prepared transaction is left behind. Each row copies into a table
// of its own.
func TestCopyTwoPhaseCommitFaults(t *testing.T) {
	h := New(t, Options{})
	s := h.C.Session()

	rows := []struct {
		name        string
		rule        fault.Rule
		wantCopyErr bool
		wantVisible bool
	}{
		{"prepare fails", fault.Rule{Point: fault.Point2PCPrepare, Action: fault.ActError, Count: 1}, true, false},
		{"commit prepared fails", fault.Rule{Point: fault.Point2PCCommit, Action: fault.ActError, Count: 1}, false, true},
		{"copy request lost on the wire", fault.Rule{Point: fault.PointWireSend, Key: "copy", Action: fault.ActDropConn, Count: 1}, true, false},
		{"copy response lost on the wire", fault.Rule{Point: fault.PointWireRecv, Key: "copy", Action: fault.ActDropConn, Count: 1}, true, false},
		{"no fault", fault.Rule{}, false, true},
	}
	for i, row := range rows {
		table := fmt.Sprintf("cm%d", i)
		h.CreateTable(table)
		keys, _ := h.KeysOnDistinctWorkers(table, 2)
		var data []types.Row
		for _, k := range keys {
			data = append(data, types.Row{k, int64(i)})
		}
		if row.rule.Point != "" {
			fault.Arm(row.rule)
		}
		_, err := s.CopyFrom(table, []string{"k", "v"}, data)
		if (err != nil) != row.wantCopyErr {
			t.Fatalf("%s: COPY error = %v, want error %v (seed %d)", row.name, err, row.wantCopyErr, h.Seed)
		}
		if row.rule.Point != "" && fault.Fired(row.rule.Point) == 0 {
			t.Fatalf("%s: fault at %s never fired", row.name, row.rule.Point)
		}
		fault.Reset()
		h.Quiesce(2 * time.Second)
		present := 0
		for _, k := range keys {
			present += len(h.MustExec("SELECT v FROM "+table+" WHERE k = $1", k).Rows)
		}
		if present != 0 && present != len(keys) {
			t.Fatalf("%s: %d of %d copied rows visible — atomicity violated (seed %d)", row.name, present, len(keys), h.Seed)
		}
		if visible := present == len(keys); visible != row.wantVisible {
			t.Fatalf("%s: rows visible = %v, want %v (seed %d)", row.name, visible, row.wantVisible, h.Seed)
		}
	}
}
