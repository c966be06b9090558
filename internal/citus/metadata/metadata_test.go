package metadata

import (
	"testing"
	"testing/quick"

	"citusgo/internal/types"
)

func addTestTable(t *testing.T, c *Catalog, name string, colocation int, nodes []int) *DistTable {
	t.Helper()
	const shardCount = 4
	dt := &DistTable{
		Name: name, Type: DistributedTable, DistColumn: "k",
		DistColType: types.Int, ColocationID: colocation, ShardCount: shardCount,
	}
	ranges := types.SplitHashSpace(shardCount)
	base := c.NextShardID(shardCount)
	shards := make([]*Shard, shardCount)
	placements := map[int64][]int{}
	for i := 0; i < shardCount; i++ {
		shards[i] = &Shard{ID: base + int64(i), Table: name, Index: i, Range: ranges[i]}
		placements[shards[i].ID] = []int{nodes[i%len(nodes)]}
	}
	if err := c.AddTable(dt, shards, placements); err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestShardRouting(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	c.AddNode(&Node{ID: 2, Name: "w1"})
	addTestTable(t, c, "t", c.NewColocationGroup(4, types.Int), []int{2})

	// every value routes to exactly one shard, deterministically
	f := func(v int64) bool {
		s1, err1 := c.ShardForValue("t", v)
		s2, err2 := c.ShardForValue("t", v)
		return err1 == nil && err2 == nil && s1.ID == s2.ID &&
			s1.Range.Contains(types.HashDatum(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if _, err := c.ShardForValue("missing", int64(1)); err == nil {
		t.Fatal("unknown table routed")
	}
}

func TestColocationAcrossTables(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	c.AddNode(&Node{ID: 2, Name: "w1"})
	g := c.NewColocationGroup(4, types.Int)
	addTestTable(t, c, "a", g, []int{2})
	addTestTable(t, c, "b", g, []int{2})
	addTestTable(t, c, "other", c.NewColocationGroup(4, types.Int), []int{2})

	if !c.Colocated("a", "b") {
		t.Fatal("same group must be co-located")
	}
	if c.Colocated("a", "other") {
		t.Fatal("different groups must not be co-located")
	}
	// co-located tables route equal values to equal shard indexes
	f := func(v int64) bool {
		sa, _ := c.ShardForValue("a", v)
		sb, _ := c.ShardForValue("b", v)
		return sa.Index == sb.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReferenceTableColocatesWithEverything(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	addTestTable(t, c, "dist", c.NewColocationGroup(4, types.Int), []int{1})
	ref := &DistTable{Name: "ref", Type: ReferenceTable, ShardCount: 1}
	sh := &Shard{ID: c.NextShardID(1), Table: "ref", Index: 0}
	if err := c.AddTable(ref, []*Shard{sh}, map[int64][]int{sh.ID: {1}}); err != nil {
		t.Fatal(err)
	}
	if !c.Colocated("dist", "ref") || !c.Colocated("ref", "dist") {
		t.Fatal("reference tables co-locate with everything")
	}
	s, err := c.ShardForValue("ref", int64(12345))
	if err != nil || s.ID != sh.ID {
		t.Fatalf("reference routing: %v %v", s, err)
	}
}

func TestFindColocationGroup(t *testing.T) {
	c := NewCatalog()
	g1 := c.NewColocationGroup(32, types.Int)
	g2 := c.NewColocationGroup(32, types.Text)
	if got, ok := c.FindColocationGroup(32, types.Int); !ok || got != g1 {
		t.Fatalf("find int group: %d %v", got, ok)
	}
	if got, ok := c.FindColocationGroup(32, types.Text); !ok || got != g2 {
		t.Fatalf("find text group: %d %v", got, ok)
	}
	if _, ok := c.FindColocationGroup(64, types.Int); ok {
		t.Fatal("wrong shard count matched")
	}
}

func TestPlacementMoves(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	c.AddNode(&Node{ID: 2, Name: "w1"})
	c.AddNode(&Node{ID: 3, Name: "w2"})
	addTestTable(t, c, "t", c.NewColocationGroup(4, types.Int), []int{2})
	sh := c.Shards("t")[0]
	if err := c.MovePlacement([]int64{sh.ID}, 2, 3); err != nil {
		t.Fatal(err)
	}
	nodeID, err := c.PrimaryPlacement(sh.ID)
	if err != nil || nodeID != 3 {
		t.Fatalf("after move: %d %v", nodeID, err)
	}
	if err := c.MovePlacement([]int64{sh.ID}, 2, 3); err == nil {
		t.Fatal("moving from the wrong source must fail")
	}
	// a group moves whole or not at all, in one version
	group := []int64{c.Shards("t")[1].ID, sh.ID}
	ver := c.Version()
	if err := c.MovePlacement(group, 2, 3); err == nil {
		t.Fatal("a group with a shard off the source must not move")
	}
	if nodeID, _ := c.PrimaryPlacement(group[0]); nodeID != 2 || c.Version() != ver {
		t.Fatalf("a refused group move changed the catalog: shard on %d, version %d -> %d", nodeID, ver, c.Version())
	}
	if err := c.MovePlacement(group, 3, 2); err == nil {
		t.Fatal("a group with a shard off the source must not move")
	}
	c.MovePlacement([]int64{sh.ID}, 3, 2)
	if err := c.MovePlacement(group, 2, 3); err != nil || c.Version() != ver+2 {
		t.Fatalf("group move: %v, version %d -> %d, want one bump", err, ver+1, c.Version())
	}
	for _, id := range group {
		if nodeID, _ := c.PrimaryPlacement(id); nodeID != 3 {
			t.Fatalf("shard %d on %d after the group move", id, nodeID)
		}
	}
}

func TestWorkerNodesFallsBackToCoordinator(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	w := c.WorkerNodes()
	if len(w) != 1 || w[0].ID != 1 {
		t.Fatalf("single-node cluster: %v", w)
	}
	c.AddNode(&Node{ID: 2, Name: "w1"})
	w = c.WorkerNodes()
	if len(w) != 1 || w[0].ID != 2 {
		t.Fatalf("with workers: %v", w)
	}
}

func TestRemoveTable(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	addTestTable(t, c, "gone", c.NewColocationGroup(4, types.Int), []int{1})
	sh := c.Shards("gone")[0]
	c.RemoveTable("gone")
	if c.IsCitusTable("gone") {
		t.Fatal("metadata survived removal")
	}
	if _, ok := c.ShardByID(sh.ID); ok {
		t.Fatal("shard survived removal")
	}
}

func TestShardNameAndGroupID(t *testing.T) {
	sh := &Shard{ID: 102008, Table: "orders"}
	if sh.ShardName() != "orders_102008" {
		t.Fatalf("shard name: %s", sh.ShardName())
	}
	if ShardGroupID(1, 5) == ShardGroupID(2, 5) {
		t.Fatal("group ids must differ across colocation groups")
	}
	if ShardGroupID(1, 5) == ShardGroupID(1, 6) {
		t.Fatal("group ids must differ across shard indexes")
	}
}

func TestDuplicateTableRejected(t *testing.T) {
	c := NewCatalog()
	c.AddNode(&Node{ID: 1, Name: "c", IsCoordinator: true})
	addTestTable(t, c, "dup", c.NewColocationGroup(4, types.Int), []int{1})
	dt := &DistTable{Name: "dup", Type: DistributedTable}
	if err := c.AddTable(dt, nil, nil); err == nil {
		t.Fatal("duplicate distribution accepted")
	}
}
