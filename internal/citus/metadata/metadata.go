// Package metadata implements the distributed metadata catalog — the
// equivalent of Citus' pg_dist_partition, pg_dist_shard, pg_dist_placement,
// pg_dist_colocation, and pg_dist_node tables. The coordinator owns the
// authoritative copy; in MX mode the catalog is synced to worker nodes so
// any node can plan and coordinate distributed queries (paper §3.2.1).
package metadata

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"citusgo/internal/types"
)

// TableType distinguishes the two Citus table types (§3.3).
type TableType int

const (
	// DistributedTable is hash-partitioned on a distribution column.
	DistributedTable TableType = iota
	// ReferenceTable is replicated to every node.
	ReferenceTable
)

// DistTable is one row of pg_dist_partition.
type DistTable struct {
	Name         string
	Type         TableType
	DistColumn   string // "" for reference tables
	DistColType  types.Type
	ColocationID int
	ShardCount   int
	SchemaSQL    string // CREATE TABLE text used to create shards
}

// Shard is one row of pg_dist_shard.
type Shard struct {
	ID    int64
	Table string
	Index int // shard index within the table (0..ShardCount-1)
	Range types.ShardRange
}

// ShardName returns the physical table name of a shard, e.g.
// "orders_102008" — the name the deparsed task queries reference.
func (s *Shard) ShardName() string { return fmt.Sprintf("%s_%d", s.Table, s.ID) }

// Role distinguishes the two placement roles (pg_dist_placement's
// noderole in Citus terms): the primary serves writes and is the WAL
// source; standbys apply the primary's streamed WAL and may serve reads.
type Role int8

const (
	RolePrimary Role = iota
	RoleStandby
)

func (r Role) String() string {
	if r == RoleStandby {
		return "standby"
	}
	return "primary"
}

// Placement is one row of pg_dist_placement: a copy of a shard on a node,
// with its replication role and health state.
type Placement struct {
	NodeID int
	Role   Role
	// Down marks a placement whose node failed health probes or crashed;
	// the executor routes reads around Down placements.
	Down bool
}

// Node is one row of pg_dist_node.
type Node struct {
	ID   int
	Name string
	// IsCoordinator marks the node clients connect to by default.
	IsCoordinator bool
	// HasMetadata reports whether the distributed metadata is synced to
	// this node (MX), letting it coordinate distributed queries itself.
	HasMetadata bool
	// Standby marks a node that hosts only standby placements: it
	// replicates StandbyOf's WAL and is excluded from primary shard
	// placement and from cluster-wide write/DDL fan-out (it receives all
	// of those through the replication stream instead).
	Standby   bool
	StandbyOf int // primary node ID this standby replicates (0 = none)
	// Down marks a node the coordinator's health probes consider failed.
	Down bool
}

// firstShardID matches the shard id space Citus starts at.
const firstShardID = 102008

// Catalog is the distributed metadata store.
type Catalog struct {
	mu sync.RWMutex

	tables     map[string]*DistTable
	shards     map[string][]*Shard // by table, ordered by shard index
	shardByID  map[int64]*Shard
	placements map[int64][]Placement // shard id -> placement rows (primary first)
	nodes      map[int]*Node

	nextShard      int64
	nextColocation int
	colocationRef  map[int]colocationGroup

	// version is a monotonic counter covering every change that can
	// invalidate a cached distributed plan: table create/drop, placement
	// moves, metadata sync, and explicitly propagated DDL. Cached plans
	// embed the version they were built under and are dropped on mismatch.
	version atomic.Int64
}

type colocationGroup struct {
	shardCount  int
	distColType types.Type
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:         make(map[string]*DistTable),
		shards:         make(map[string][]*Shard),
		shardByID:      make(map[int64]*Shard),
		placements:     make(map[int64][]Placement),
		nodes:          make(map[int]*Node),
		nextShard:      firstShardID,
		nextColocation: 1,
		colocationRef:  make(map[int]colocationGroup),
	}
}

// AddNode registers a node.
func (c *Catalog) AddNode(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[n.ID] = n
}

// Nodes returns all nodes ordered by id.
func (c *Catalog) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		// copies, not the live rows: role flips mutate nodes under the
		// catalog lock while readers iterate the returned slice
		cp := *n
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkerNodes returns the nodes that store primary shards: all non-standby
// workers, or the coordinator itself when it is the only node (the
// "smallest possible Citus cluster is a single server", §3.2).
func (c *Catalog) WorkerNodes() []*Node {
	all := c.Nodes()
	var workers []*Node
	for _, n := range all {
		if !n.IsCoordinator && !n.Standby {
			workers = append(workers, n)
		}
	}
	if len(workers) == 0 {
		return all
	}
	return workers
}

// ActiveNodes returns every non-standby node (coordinator + primary
// workers): the fan-out set for reference-table writes, restore points,
// 2PC recovery, and deadlock detection. Standbys are excluded because
// they receive every durable change through their primary's WAL stream —
// writing to them directly would double-apply.
func (c *Catalog) ActiveNodes() []*Node {
	all := c.Nodes()
	out := make([]*Node, 0, len(all))
	for _, n := range all {
		if !n.Standby {
			out = append(out, n)
		}
	}
	return out
}

// StandbysOf returns the IDs of the standby nodes replicating a primary.
func (c *Catalog) StandbysOf(primaryID int) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.standbysOfLocked(primaryID)
}

func (c *Catalog) standbysOfLocked(primaryID int) []int {
	var out []int
	for _, n := range c.nodes {
		if n.Standby && n.StandbyOf == primaryID {
			out = append(out, n.ID)
		}
	}
	sort.Ints(out)
	return out
}

// Node returns a copy of the catalog row for a node ID. A copy, not the
// live pointer: role flips (PromoteNode, SetNodeDown) mutate the row under
// the catalog lock, and handing out the pointer would race every reader.
func (c *Catalog) Node(id int) (Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[id]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// NodeDown reports whether health probing (or a crash) marked a node down.
func (c *Catalog) NodeDown(id int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[id]
	return ok && n.Down
}

// SetNodeDown flips a node's health state and mirrors it onto every
// placement row on that node, bumping the metadata version so cached
// plans re-resolve routing against the new health picture.
func (c *Catalog) SetNodeDown(nodeID int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[nodeID]
	if !ok || n.Down == down {
		return
	}
	n.Down = down
	for shardID, rows := range c.placements {
		for i := range rows {
			if rows[i].NodeID == nodeID {
				rows[i].Down = down
			}
		}
		c.placements[shardID] = rows
	}
	c.version.Add(1)
}

// SetHasMetadata flips a node's metadata-sync flag (MX mode).
func (c *Catalog) SetHasMetadata(nodeID int, v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[nodeID]; ok {
		n.HasMetadata = v
	}
	c.version.Add(1)
}

// Version returns the monotonic metadata version cached distributed plans
// are keyed on.
func (c *Catalog) Version() int64 { return c.version.Load() }

// BumpVersion invalidates every cached distributed plan built against the
// current catalog. Called for catalog changes made outside this package,
// e.g. propagated DDL that alters shard schemas without touching placement
// metadata (CREATE INDEX, ALTER TABLE ... ADD COLUMN, TRUNCATE).
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// NewColocationGroup allocates a co-location group id.
func (c *Catalog) NewColocationGroup(shardCount int, distColType types.Type) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextColocation
	c.nextColocation++
	c.colocationRef[id] = colocationGroup{shardCount: shardCount, distColType: distColType}
	return id
}

// FindColocationGroup returns an existing group with matching shard count
// and distribution column type — the automatic co-location the paper
// describes for users who do not pass colocate_with (§3.3.2).
func (c *Catalog) FindColocationGroup(shardCount int, distColType types.Type) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]int, 0, len(c.colocationRef))
	for id := range c.colocationRef {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		g := c.colocationRef[id]
		if g.shardCount == shardCount && g.distColType == distColType {
			return id, true
		}
	}
	return 0, false
}

// AddTable registers a distributed or reference table with its shards and
// placements. For co-located tables the caller passes the same shard ranges
// as the existing table in the group. The node IDs in placements are the
// primaries; a standby placement row is added automatically for every
// registered standby of each primary, so replication topology is part of
// the placement metadata from the moment a table is created (rather than
// bolted on afterwards).
func (c *Catalog) AddTable(t *DistTable, shards []*Shard, placements map[int64][]int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name]; exists {
		return fmt.Errorf("table %q is already distributed", t.Name)
	}
	c.tables[t.Name] = t
	c.shards[t.Name] = shards
	for _, sh := range shards {
		c.shardByID[sh.ID] = sh
		var rows []Placement
		for _, nodeID := range placements[sh.ID] {
			rows = append(rows, Placement{NodeID: nodeID, Role: RolePrimary, Down: c.nodeDownLocked(nodeID)})
			for _, sb := range c.standbysOfLocked(nodeID) {
				rows = append(rows, Placement{NodeID: sb, Role: RoleStandby, Down: c.nodeDownLocked(sb)})
			}
		}
		c.placements[sh.ID] = rows
	}
	c.version.Add(1)
	return nil
}

func (c *Catalog) nodeDownLocked(nodeID int) bool {
	n, ok := c.nodes[nodeID]
	return ok && n.Down
}

// RemoveTable drops a table's distributed metadata (undistribute / DROP).
func (c *Catalog) RemoveTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards[name] {
		delete(c.shardByID, sh.ID)
		delete(c.placements, sh.ID)
	}
	delete(c.shards, name)
	delete(c.tables, name)
	c.version.Add(1)
}

// NextShardID allocates n consecutive shard ids.
func (c *Catalog) NextShardID(n int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextShard
	c.nextShard += int64(n)
	return id
}

// Table looks up distributed metadata for a table.
func (c *Catalog) Table(name string) (*DistTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// IsCitusTable reports whether the name is a distributed or reference table.
func (c *Catalog) IsCitusTable(name string) bool {
	_, ok := c.Table(name)
	return ok
}

// Tables returns all distributed-table metadata sorted by name.
func (c *Catalog) Tables() []*DistTable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*DistTable, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Shards returns a table's shards ordered by shard index.
func (c *Catalog) Shards(table string) []*Shard {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Shard(nil), c.shards[table]...)
}

// ShardByID resolves a shard id.
func (c *Catalog) ShardByID(id int64) (*Shard, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sh, ok := c.shardByID[id]
	return sh, ok
}

// Placements returns the node ids of a shard's primary-role placements
// (one for distributed shards, all active nodes for reference shards) —
// the write/DDL fan-out set. Standby placements are reached through WAL
// streaming, never addressed directly by writes.
func (c *Catalog) Placements(shardID int64) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, p := range c.placements[shardID] {
		if p.Role == RolePrimary {
			out = append(out, p.NodeID)
		}
	}
	return out
}

// PlacementRows returns a copy of every placement row of a shard,
// including standbys and their health state.
func (c *Catalog) PlacementRows(shardID int64) []Placement {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Placement(nil), c.placements[shardID]...)
}

// ReadPlacements returns the node ids a read task may route to: every
// placement (primary or standby) that is not marked Down. The primary is
// always listed first so callers can fall back to it deterministically.
func (c *Catalog) ReadPlacements(shardID int64) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for _, p := range c.placements[shardID] {
		if p.Role == RolePrimary && !p.Down {
			out = append(out, p.NodeID)
		}
	}
	for _, p := range c.placements[shardID] {
		if p.Role == RoleStandby && !p.Down {
			out = append(out, p.NodeID)
		}
	}
	return out
}

// PrimaryPlacement returns the primary placement node of a shard.
func (c *Catalog) PrimaryPlacement(shardID int64) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, p := range c.placements[shardID] {
		if p.Role == RolePrimary {
			return p.NodeID, nil
		}
	}
	return 0, fmt.Errorf("shard %d has no primary placement", shardID)
}

// MovePlacement reassigns the primaries of a co-located shard group — every
// shard in shardIDs — from one node to another in one metadata version (the
// rebalancer's flip, §3.4): no plan ever sees the group split. It changes
// nothing unless every shard has its primary on from. Standby rows tied to
// the old primary's standbys are rewritten to the new primary's standbys,
// since the shards' WAL now streams from the new node.
func (c *Catalog) MovePlacement(shardIDs []int64, from, to int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	primary := make([]int, len(shardIDs))
	for i, id := range shardIDs {
		primary[i] = slices.IndexFunc(c.placements[id], func(p Placement) bool {
			return p.NodeID == from && p.Role == RolePrimary
		})
		if primary[i] < 0 {
			return fmt.Errorf("shard %d has no placement on node %d", id, from)
		}
	}
	oldStandbys := map[int]bool{}
	for _, sb := range c.standbysOfLocked(from) {
		oldStandbys[sb] = true
	}
	for i, id := range shardIDs {
		rows := c.placements[id]
		rows[primary[i]].NodeID = to
		rows[primary[i]].Down = c.nodeDownLocked(to)
		kept := rows[:0]
		for _, p := range rows {
			if p.Role == RoleStandby && oldStandbys[p.NodeID] {
				continue
			}
			kept = append(kept, p)
		}
		for _, sb := range c.standbysOfLocked(to) {
			kept = append(kept, Placement{NodeID: sb, Role: RoleStandby, Down: c.nodeDownLocked(sb)})
		}
		c.placements[id] = kept
	}
	c.version.Add(1)
	return nil
}

// PromoteNode flips every (oldPrimary primary, newPrimary standby)
// placement pair: the standby becomes the primary, the crashed old
// primary is demoted to a Down standby row, and the node rows swap
// Standby/StandbyOf. Any remaining standbys of the old primary are
// re-pointed at the new one. The version bump invalidates every cached
// plan built against the old routing — the role flip of failover (§3.7).
func (c *Catalog) PromoteNode(oldPrimary, newPrimary int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	np, ok := c.nodes[newPrimary]
	if !ok || !np.Standby || np.StandbyOf != oldPrimary {
		return fmt.Errorf("node %d is not a standby of node %d", newPrimary, oldPrimary)
	}
	op := c.nodes[oldPrimary]
	np.Standby = false
	np.StandbyOf = 0
	np.Down = false
	if op != nil {
		op.Down = true
		op.Standby = true
		op.StandbyOf = newPrimary
	}
	for _, n := range c.nodes {
		if n.Standby && n.StandbyOf == oldPrimary && n.ID != oldPrimary {
			n.StandbyOf = newPrimary
		}
	}
	for shardID, rows := range c.placements {
		for i := range rows {
			switch {
			case rows[i].NodeID == oldPrimary && rows[i].Role == RolePrimary:
				rows[i].Role = RoleStandby
				rows[i].Down = true
			case rows[i].NodeID == newPrimary && rows[i].Role == RoleStandby:
				rows[i].Role = RolePrimary
				rows[i].Down = false
			}
		}
		c.placements[shardID] = rows
	}
	c.version.Add(1)
	return nil
}

// ShardForValue routes a distribution column value to its shard by hash. The
// value is hashed as the distribution column's type, the type the row is
// stored with: '21' and 21 are one key of a bigint column. A value that does
// not coerce is an error.
func (c *Catalog) ShardForValue(table string, v types.Datum) (*Shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("table %q is not distributed", table)
	}
	if t.Type == ReferenceTable {
		shards := c.shards[table]
		if len(shards) == 0 {
			return nil, fmt.Errorf("reference table %q has no shard", table)
		}
		return shards[0], nil
	}
	v, err := types.CoerceTo(v, t.DistColType)
	if err != nil {
		return nil, err
	}
	h := types.HashDatum(v)
	for _, sh := range c.shards[table] {
		if sh.Range.Contains(h) {
			return sh, nil
		}
	}
	return nil, fmt.Errorf("no shard covers hash %d of table %q", h, table)
}

// Colocated reports whether two citus tables are in the same co-location
// group (reference tables co-locate with everything — they are replicated
// everywhere).
func (c *Catalog) Colocated(a, b string) bool {
	ta, oka := c.Table(a)
	tb, okb := c.Table(b)
	if !oka || !okb {
		return false
	}
	if ta.Type == ReferenceTable || tb.Type == ReferenceTable {
		return true
	}
	return ta.ColocationID == tb.ColocationID
}

// ShardGroupID identifies the co-located shard group of (colocationID,
// shardIndex) — the unit of transaction connection affinity in the adaptive
// executor.
func ShardGroupID(colocationID, shardIndex int) int64 {
	return int64(colocationID)<<20 | int64(shardIndex)
}
