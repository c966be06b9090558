package metadata

import (
	"reflect"
	"testing"

	"citusgo/internal/types"
)

// replCatalog builds coordinator(1) + primaries w1(2), w2(3) each with one
// standby (4 replicates 2, 5 replicates 3), and one table whose shards
// land on the primaries round-robin.
func replCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	c.AddNode(&Node{ID: 2, Name: "w1"})
	c.AddNode(&Node{ID: 3, Name: "w2"})
	c.AddNode(&Node{ID: 4, Name: "w1-sb1", Standby: true, StandbyOf: 2})
	c.AddNode(&Node{ID: 5, Name: "w2-sb1", Standby: true, StandbyOf: 3})
	addTestTable(t, c, "r", c.NewColocationGroup(4, types.Int), []int{2, 3})
	return c
}

func TestStandbyPlacementsAddedWithTable(t *testing.T) {
	c := replCatalog(t)
	for _, sh := range c.Shards("r") {
		rows := c.PlacementRows(sh.ID)
		if len(rows) != 2 {
			t.Fatalf("shard %d: %d placement rows, want primary+standby", sh.ID, len(rows))
		}
		if rows[0].Role != RolePrimary || rows[1].Role != RoleStandby {
			t.Fatalf("shard %d roles: %v %v", sh.ID, rows[0].Role, rows[1].Role)
		}
		wantSb := map[int]int{2: 4, 3: 5}[rows[0].NodeID]
		if rows[1].NodeID != wantSb {
			t.Fatalf("shard %d: standby on node %d, want %d", sh.ID, rows[1].NodeID, wantSb)
		}
		// writes fan out to the primary only; reads may use both
		if got := c.Placements(sh.ID); !reflect.DeepEqual(got, []int{rows[0].NodeID}) {
			t.Fatalf("Placements = %v", got)
		}
		if got := c.ReadPlacements(sh.ID); !reflect.DeepEqual(got, []int{rows[0].NodeID, wantSb}) {
			t.Fatalf("ReadPlacements = %v", got)
		}
	}
}

func TestWorkerAndActiveNodesExcludeStandbys(t *testing.T) {
	c := replCatalog(t)
	for _, n := range c.WorkerNodes() {
		if n.Standby {
			t.Fatalf("WorkerNodes includes standby %d", n.ID)
		}
	}
	var active []int
	for _, n := range c.ActiveNodes() {
		active = append(active, n.ID)
	}
	if !reflect.DeepEqual(active, []int{1, 2, 3}) {
		t.Fatalf("ActiveNodes = %v", active)
	}
	if got := c.StandbysOf(2); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("StandbysOf(2) = %v", got)
	}
}

func TestSetNodeDownRoutesReadsAround(t *testing.T) {
	c := replCatalog(t)
	sh := c.Shards("r")[0]
	primary, _ := c.PrimaryPlacement(sh.ID)
	sb := map[int]int{2: 4, 3: 5}[primary]

	v := c.Version()
	c.SetNodeDown(sb, true)
	if c.Version() == v {
		t.Fatal("SetNodeDown did not bump the metadata version")
	}
	if got := c.ReadPlacements(sh.ID); !reflect.DeepEqual(got, []int{primary}) {
		t.Fatalf("reads still routed to down standby: %v", got)
	}
	c.SetNodeDown(sb, false)
	if got := c.ReadPlacements(sh.ID); len(got) != 2 {
		t.Fatalf("recovered standby not restored: %v", got)
	}
	// a down primary is excluded from reads but still the write target
	c.SetNodeDown(primary, true)
	if got := c.ReadPlacements(sh.ID); !reflect.DeepEqual(got, []int{sb}) {
		t.Fatalf("reads with down primary: %v", got)
	}
	if got, _ := c.PrimaryPlacement(sh.ID); got != primary {
		t.Fatalf("PrimaryPlacement moved to %d without promotion", got)
	}
}

func TestPromoteNodeFlipsRolesAndVersion(t *testing.T) {
	c := replCatalog(t)
	v := c.Version()
	if err := c.PromoteNode(2, 4); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v {
		t.Fatal("promotion did not bump the metadata version")
	}
	for _, sh := range c.Shards("r") {
		rows := c.PlacementRows(sh.ID)
		if rows[0].NodeID == 2 || rows[1].NodeID == 2 {
			for _, p := range rows {
				if p.NodeID == 2 && (p.Role != RoleStandby || !p.Down) {
					t.Fatalf("old primary row not demoted: %+v", p)
				}
				if p.NodeID == 4 && (p.Role != RolePrimary || p.Down) {
					t.Fatalf("promoted standby row wrong: %+v", p)
				}
			}
			if got, _ := c.PrimaryPlacement(sh.ID); got != 4 {
				t.Fatalf("shard %d primary = %d, want 4", sh.ID, got)
			}
		}
	}
	n4, _ := c.Node(4)
	if n4.Standby || n4.StandbyOf != 0 || n4.Down {
		t.Fatalf("promoted node row: %+v", n4)
	}
	n2, _ := c.Node(2)
	if !n2.Down || !n2.Standby || n2.StandbyOf != 4 {
		t.Fatalf("demoted node row: %+v", n2)
	}
	// promoting a non-standby pair is rejected
	if err := c.PromoteNode(3, 4); err == nil {
		t.Fatal("bogus promotion accepted")
	}
}

func TestMovePlacementRewritesStandbyRows(t *testing.T) {
	c := replCatalog(t)
	var sh *Shard
	for _, s := range c.Shards("r") {
		if p, _ := c.PrimaryPlacement(s.ID); p == 2 {
			sh = s
			break
		}
	}
	if err := c.MovePlacement([]int64{sh.ID}, 2, 3); err != nil {
		t.Fatal(err)
	}
	rows := c.PlacementRows(sh.ID)
	var nodes []int
	for _, p := range rows {
		nodes = append(nodes, p.NodeID)
	}
	if !reflect.DeepEqual(nodes, []int{3, 5}) {
		t.Fatalf("rows after move = %v, want primary 3 + its standby 5", nodes)
	}
}
