package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stark/internal/config"
)

// Ids at the edges of the packed key: partition 0, RDD ids and partitions
// at and above 2^16, and the largest packable values. A narrower packing
// (16-bit halves, or one that dropped the RDD's high bits) would alias some
// of these with each other.
var edgeRDDs = []int{0, 1, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<31 - 1}
var edgeParts = []int{0, 1, 1<<16 - 1, 1 << 16, 1<<31 - 1}

// naiveLocations recounts the executors holding a block from their stores,
// ascending: the reference AppendLocations is checked against.
func naiveLocations(c *Cluster, id BlockID) []int {
	var out []int
	for i := 0; i < c.NumExecutors(); i++ {
		if c.Executor(i).Store.Contains(id) {
			out = append(out, i)
		}
	}
	return out
}

// TestDirectoryMatchesRecount is the model-based test of the directory:
// seeded random puts, gets, drops, DropReplicas, DropUnit, Clear, kills and
// restarts over edge-case ids, plus ids whose keys collide at the key
// tables' last cell (tailIDs), with every id's AppendLocations compared
// against a naive ascending recount of the stores, and CheckConsistency
// run, after every step. It requires that the key tables grew past their load factor,
// wrapped a probe chain past their end and shifted keys back on a remove.
func TestDirectoryMatchesRecount(t *testing.T) {
	const execs = 5
	var ids []BlockID
	for _, r := range edgeRDDs {
		for _, p := range edgeParts {
			ids = append(ids, BlockID{RDD: r, Partition: p})
		}
	}
	ids = append(ids, tailIDs(1<<31-1, 3)...)
	ids = append(ids, tailIDs(3, 3)...)
	var cov tableCoverage
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Default()
		cfg.NumExecutors = execs
		cfg.SlotsPerExecutor = 2
		cfg.MemoryPerExecutor = 1500 // ~10 blocks: puts evict constantly
		c := New(cfg)
		if seed%2 == 0 {
			dag := NewDAGPolicy()
			dag.SetGroupFn(func(id BlockID) (UnitID, bool) { return UnitID{NS: 1, Unit: id.Partition % 3}, id.RDD%2 == 0 })
			c.SetPolicy(dag)
		}
		c.SetUnitMapping(func(id BlockID) (UnitID, bool) { return UnitID{NS: 1 + id.RDD%2, Unit: id.Partition % 4}, true })
		randBlock := func() BlockID { return ids[rng.Intn(len(ids))] }
		for step := 0; step < 300; step++ {
			exec := rng.Intn(execs)
			var op string
			switch k := rng.Intn(100); {
			case k < 45:
				op = "put"
				c.CachePut(exec, randBlock(), nil, int64(50+rng.Intn(200)))
			case k < 55:
				op = "get"
				c.CacheGet(exec, randBlock())
			case k < 62:
				op = "drop"
				id := randBlock()
				cov.removing(&c.executors[exec].Store.index, id.Key())
				c.DropBlock(exec, id)
			case k < 66:
				op = "drop unit"
				u := UnitID{NS: 1 + rng.Intn(2), Unit: rng.Intn(4)}
				c.DropUnit(exec, u)
				if c.UnitCached(exec, u) {
					t.Fatalf("seed %d step %d: %v still cached on %d after DropUnit", seed, step, u, exec)
				}
			case k < 68:
				op = "clear"
				for _, id := range c.executors[exec].Store.Clear() {
					c.dropLocation(id, exec)
				}
			case k < 80:
				op = "drop replicas"
				id := randBlock()
				c.DropReplicas(id)
				if locs := naiveLocations(c, id); len(locs) > 0 {
					t.Fatalf("seed %d step %d: %v still on %v after DropReplicas", seed, step, id, locs)
				}
			case k < 90:
				op = "kill"
				c.Kill(exec)
			default:
				op = "restart"
				if c.Executor(exec).Dead() {
					c.Restart(exec)
				}
			}
			for _, id := range ids {
				got, want := c.AppendLocations(nil, id), naiveLocations(c, id)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): AppendLocations(%v) = %v, recount says %v", seed, step, op, id, got, want)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			cov.observe(c)
		}
	}
	cov.require(t)
}

// TestBlockKeyPacking: every packable id round-trips through its key, edge
// ids get pairwise distinct keys, and an id that cannot pack panics instead
// of aliasing, whether keyed directly or through the store and directory.
func TestBlockKeyPacking(t *testing.T) {
	seen := make(map[BlockKey]BlockID)
	for _, r := range edgeRDDs {
		for _, p := range edgeParts {
			id := BlockID{RDD: r, Partition: p}
			k := id.Key()
			if back := k.ID(); back != id {
				t.Fatalf("%v packs to %#x, which unpacks to %v", id, uint64(k), back)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("%v and %v share key %#x", prev, id, uint64(k))
			}
			seen[k] = id
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "does not pack") {
				t.Fatalf("%s panicked with %q, want the packing error", what, msg)
			}
		}()
		f()
	}
	c := newTestCluster()
	for _, id := range []BlockID{
		{RDD: -1, Partition: 0},
		{RDD: 0, Partition: -1},
		{RDD: 1 << 31, Partition: 0},
		{RDD: 0, Partition: 1 << 31},
		{RDD: 1 << 40, Partition: 1 << 40},
	} {
		mustPanic(fmt.Sprintf("Key(%v)", id), func() { id.Key() })
		mustPanic(fmt.Sprintf("CachePut(%v)", id), func() { c.CachePut(0, id, nil, 10) })
		mustPanic(fmt.Sprintf("CachePeek(%v)", id), func() { c.CachePeek(0, id) })
		mustPanic(fmt.Sprintf("AppendLocations(%v)", id), func() { c.AppendLocations(nil, id) })
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
