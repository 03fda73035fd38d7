package cluster

import "fmt"

// UnitID names one collection unit — a namespace partition, or a partition
// group under extendable partitioning — as a small comparable value. NS is
// the owner's interned namespace id, so the index never builds or hashes a
// string.
type UnitID struct {
	NS   int
	Unit int
}

// unitIndex is one executor's refcount of cached blocks per collection
// unit: len(refs) is the executor's Minimum-Contention-First score and
// refs[u] > 0 answers "is any block of u cached here". It is maintained at
// the two chokepoints that maintain the directory (a new block stored, a
// replica dropped) and is valid only for the mapping version it was built
// under; a stale index ignores updates and is recounted from the store on
// its next query.
type unitIndex struct {
	refs    map[UnitID]int
	version uint64
}

// SetUnitMapping installs the block -> collection-unit mapping the unit
// index counts under (ok=false for blocks outside any unit) and invalidates
// every executor's index. The mapping must be a pure function of state
// whose every change is announced through UnitMappingChanged.
func (c *Cluster) SetUnitMapping(unitOf func(BlockID) (UnitID, bool)) {
	c.unitOf = unitOf
	c.UnitMappingChanged()
}

// UnitMappingChanged announces that the installed mapping may now send some
// block to a different unit (a namespace registered or forgotten, a
// partition group split or merged). Refcounts taken under the old mapping
// are meaningless, so each executor's index is rebuilt once, lazily, on its
// next query.
func (c *Cluster) UnitMappingChanged() { c.unitVersion++ }

// UnitsCached reports how many distinct collection units have at least one
// block in the executor's cache — the paper's "unique collection partitions
// cached" (Algorithm 1 line 5) — in O(1). Dead executors hold nothing and
// report 0.
func (c *Cluster) UnitsCached(exec int) int {
	return len(c.freshUnits(c.executors[exec]).refs)
}

// UnitCached reports whether the executor caches at least one block of the
// unit.
func (c *Cluster) UnitCached(exec int, u UnitID) bool {
	return c.freshUnits(c.executors[exec]).refs[u] > 0
}

// DropUnit drops from the executor's cache every block the installed
// mapping sends to u — exactly the blocks its index counts under u — so
// UnitCached(exec, u) is false afterwards. The walk follows the store's
// recency list, reading each slot's successor before the slot is dropped.
func (c *Cluster) DropUnit(exec int, u UnitID) {
	st := c.executors[exec].Store
	for i := st.head; i != nilSlot; {
		id, next := st.slots[i].id, st.slots[i].next
		if got, ok := c.unitOf(id); ok && got == u {
			c.DropBlock(exec, id)
		}
		i = next
	}
}

// freshUnits returns the executor's index, recounted from its store first
// if the mapping changed since it was built.
func (c *Cluster) freshUnits(e *Executor) *unitIndex {
	ix := &e.units
	if ix.version != c.unitVersion {
		clear(ix.refs)
		c.countUnits(e, ix.refs)
		ix.version = c.unitVersion
	}
	return ix
}

// countUnits tallies the executor's cached blocks per unit under the
// installed mapping.
func (c *Cluster) countUnits(e *Executor, refs map[UnitID]int) {
	st := e.Store
	for i := st.head; i != nilSlot; i = st.slots[i].next {
		if u, ok := c.unitOf(st.slots[i].id); ok {
			refs[u]++
		}
	}
}

// unitAdded counts a newly stored block into the executor's index.
func (c *Cluster) unitAdded(e *Executor, id BlockID) {
	if e.units.version != c.unitVersion {
		return
	}
	if u, ok := c.unitOf(id); ok {
		e.units.refs[u]++
	}
}

// unitRemoved uncounts a block that just left the executor's store.
func (c *Cluster) unitRemoved(e *Executor, id BlockID) {
	if e.units.version != c.unitVersion {
		return
	}
	u, ok := c.unitOf(id)
	if !ok {
		return
	}
	switch n := e.units.refs[u]; {
	case n > 1:
		e.units.refs[u] = n - 1
	case n == 1:
		delete(e.units.refs, u)
	default:
		//starklint:ignore hotalloc invariant panic: the unit mapping changed without UnitMappingChanged
		panic(fmt.Sprintf("cluster: unit index underflow for %v on executor %d: the unit mapping changed without UnitMappingChanged", id, e.ID))
	}
}

// checkUnitIndex verifies every up-to-date executor index against a
// recount of the executor's store under the installed mapping.
func (c *Cluster) checkUnitIndex() error {
	for _, e := range c.executors {
		if e.units.version != c.unitVersion {
			continue // stale: recounted before its next use
		}
		want := make(map[UnitID]int)
		c.countUnits(e, want)
		if len(want) != len(e.units.refs) {
			return fmt.Errorf("cluster: executor %d indexes %d units, store holds %d", e.ID, len(e.units.refs), len(want))
		}
		for u, n := range want {
			if e.units.refs[u] != n {
				return fmt.Errorf("cluster: executor %d indexes %d blocks of unit %v, store holds %d", e.ID, e.units.refs[u], u, n)
			}
		}
	}
	return nil
}
