package cluster

import (
	"math/rand"
	"strconv"
	"testing"

	"stark/internal/config"
)

// unitModel is a mutable block -> unit mapping in both of its forms: the
// UnitID function installed into the index, and the string key function the
// UniqueKeysCached reference recount takes. width groups that many adjacent
// partitions into one unit (a Group Tree stand-in); RDDs at or above
// firstLoose belong to no namespace.
type unitModel struct {
	width      int
	firstLoose int
}

func (m *unitModel) unitOf(id BlockID) (UnitID, bool) {
	if id.RDD >= m.firstLoose {
		return UnitID{}, false
	}
	return UnitID{NS: 1 + id.RDD%2, Unit: id.Partition / m.width}, true
}

func (m *unitModel) keyOf(id BlockID) string {
	u, ok := m.unitOf(id)
	if !ok {
		return ""
	}
	return strconv.Itoa(u.NS) + "/" + strconv.Itoa(u.Unit)
}

// bruteUnitCached scans the executor's store for any block of the unit.
func bruteUnitCached(c *Cluster, m *unitModel, exec int, u UnitID) bool {
	if c.Executor(exec).Dead() {
		return false
	}
	for _, id := range c.Executor(exec).Store.Blocks() {
		if got, ok := m.unitOf(id); ok && got == u {
			return true
		}
	}
	return false
}

// TestUnitIndexMatchesRecount is the model-based test of the unit index:
// seeded random sequences of every operation that can change what an
// executor caches or what its blocks map to, with the index compared
// against the naive recount after every step.
func TestUnitIndexMatchesRecount(t *testing.T) {
	const execs, rdds, parts = 3, 6, 12
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Default()
		cfg.NumExecutors = execs
		cfg.SlotsPerExecutor = 2
		cfg.MemoryPerExecutor = 2000 // ~20 blocks: puts evict constantly
		c := New(cfg)
		if seed%2 == 0 {
			dag := NewDAGPolicy()
			dag.SetGroupFn(func(id BlockID) (UnitID, bool) { return UnitID{NS: 1, Unit: id.Partition / 4}, true })
			c.SetPolicy(dag)
		}
		m := &unitModel{width: 2, firstLoose: rdds - 1}
		// Every third seed installs the mapping mid-sequence instead, over
		// a populated cache.
		installed := seed%3 != 0
		if installed {
			c.SetUnitMapping(m.unitOf)
		}
		randBlock := func() BlockID { return BlockID{RDD: rng.Intn(rdds), Partition: rng.Intn(parts)} }

		for step := 0; step < 400; step++ {
			exec := rng.Intn(execs)
			var op string
			switch k := rng.Intn(100); {
			case k < 45:
				op = "put"
				c.CachePut(exec, randBlock(), nil, int64(50+rng.Intn(150)))
			case k < 55:
				op = "re-put"
				if held := c.Executor(exec).Store.Blocks(); len(held) > 0 {
					c.CachePut(exec, held[rng.Intn(len(held))], nil, int64(50+rng.Intn(150)))
				}
			case k < 60:
				op = "evicting put"
				c.CachePut(exec, randBlock(), nil, 1200)
			case k < 65:
				op = "drop"
				c.DropBlock(exec, randBlock())
			case k < 70:
				op = "drop unit"
				// Mostly a unit the executor holds, else any unit.
				u := UnitID{NS: 1 + rng.Intn(2), Unit: rng.Intn(parts / m.width)}
				if held := c.Executor(exec).Store.Blocks(); len(held) > 0 {
					if hu, ok := m.unitOf(held[rng.Intn(len(held))]); ok {
						u = hu
					}
				}
				c.DropUnit(exec, u)
				if installed && bruteUnitCached(c, m, exec, u) {
					t.Fatalf("seed %d step %d: executor %d still holds a block of %v after DropUnit", seed, step, exec, u)
				}
			case k < 75:
				op = "drop replicas"
				id := randBlock()
				c.DropReplicas(id)
				for e := 0; e < execs; e++ {
					if c.Executor(e).Store.Contains(id) {
						t.Fatalf("seed %d step %d: executor %d still holds %v after DropReplicas", seed, step, e, id)
					}
				}
			case k < 80:
				op = "get"
				c.CacheGet(exec, randBlock())
			case k < 84:
				op = "kill"
				c.Kill(exec)
			case k < 90:
				op = "restart"
				if c.Executor(exec).Dead() {
					c.Restart(exec)
				}
			case k < 94:
				op = "mem pressure"
				c.SetMemPressure(exec, []float64{0.3, 0.6, 1}[rng.Intn(3)])
			case k < 98:
				op = "remap"
				m.width = []int{1, 2, 3, 4}[rng.Intn(4)]
				m.firstLoose = rdds - rng.Intn(3)
				c.UnitMappingChanged()
			default:
				op = "install mapping"
				c.SetUnitMapping(m.unitOf)
				installed = true
			}

			// Half the time let updates land on a stale index before the
			// next query rebuilds it.
			if rng.Intn(2) == 0 {
				continue
			}
			for e := 0; e < execs; e++ {
				want := 0
				if installed {
					want = c.UniqueKeysCached(e, m.keyOf)
				}
				if got := c.UnitsCached(e); got != want {
					t.Fatalf("seed %d step %d (%s): executor %d indexes %d units, recount says %d", seed, step, op, e, got, want)
				}
				for ns := 1; ns <= 2; ns++ {
					for unit := 0; unit < parts; unit++ {
						u := UnitID{NS: ns, Unit: unit}
						want := installed && bruteUnitCached(c, m, e, u)
						if got := c.UnitCached(e, u); got != want {
							t.Fatalf("seed %d step %d (%s): UnitCached(%d, %v) = %v, scan says %v", seed, step, op, e, u, got, want)
						}
					}
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
		}
	}
}

// TestCheckConsistencyDetectsUnitDrift: a mapping that changes without
// UnitMappingChanged leaves the refcounts wrong, and CheckConsistency says
// so.
func TestCheckConsistencyDetectsUnitDrift(t *testing.T) {
	c := newTestCluster()
	m := &unitModel{width: 1, firstLoose: 100}
	c.SetUnitMapping(m.unitOf)
	for p := 0; p < 4; p++ {
		c.CachePut(0, BlockID{RDD: 0, Partition: p}, nil, 10)
	}
	if got := c.UnitsCached(0); got != 4 {
		t.Fatalf("units cached = %d, want 4", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	m.width = 4 // silently merges the four units into one
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("unannounced mapping change not detected")
	}
	c.UnitMappingChanged()
	if got := c.UnitsCached(0); got != 1 {
		t.Fatalf("units cached after announced merge = %d, want 1", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUnitsCachedAllocatesNothing pins the steady-state cost of the MCF
// score: no allocation per query.
func TestUnitsCachedAllocatesNothing(t *testing.T) {
	c := taxiShapeCluster()
	n := 0
	if avg := testing.AllocsPerRun(100, func() {
		for e := 0; e < c.NumExecutors(); e++ {
			n += c.UnitsCached(e)
		}
	}); avg != 0 {
		t.Fatalf("UnitsCached allocates %.1f per sweep, want 0", avg)
	}
	if n == 0 {
		t.Fatal("nothing indexed")
	}
}
