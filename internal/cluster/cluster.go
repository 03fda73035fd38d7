package cluster

import (
	"fmt"

	"stark/internal/config"
	"stark/internal/record"
)

// Executor is one simulated worker process: task slots plus a block cache.
type Executor struct {
	ID    int
	Slots int
	Store *BlockStore

	busy int
	dead bool
	// slow is the straggler multiplier applied to task durations launched
	// here; values <= 1 mean full speed.
	slow float64
	// inc counts process incarnations: 1 for the original process, +1 per
	// restart. Heartbeats carry it so the driver can tell a restarted
	// process from a healed partition even when the crash+restart fit
	// inside the suspicion window.
	inc int
	// units indexes the cached blocks by collection unit (unitindex.go).
	units unitIndex
}

// Incarnation reports the executor's process incarnation (1 = original).
func (e *Executor) Incarnation() int { return e.inc }

// Slowdown reports the executor's current straggler multiplier (>= 1).
func (e *Executor) Slowdown() float64 {
	if e.slow <= 1 {
		return 1
	}
	return e.slow
}

// FreeSlots reports currently available slots (0 when dead).
func (e *Executor) FreeSlots() int {
	if e.dead {
		return 0
	}
	return e.Slots - e.busy
}

// Busy reports occupied slots.
func (e *Executor) Busy() int { return e.busy }

// Dead reports whether the executor has been failed.
func (e *Executor) Dead() bool { return e.dead }

// Acquire takes one slot; it panics if none are free, because the scheduler
// must only assign to free slots.
func (e *Executor) Acquire() {
	if e.FreeSlots() <= 0 {
		panic(fmt.Sprintf("cluster: executor %d has no free slot", e.ID))
	}
	e.busy++
}

// Release frees one slot; it panics on release without acquire.
func (e *Executor) Release() {
	if e.busy <= 0 {
		panic(fmt.Sprintf("cluster: executor %d release without acquire", e.ID))
	}
	e.busy--
}

// Cluster is the set of executors plus the block directory mapping each
// cached block to the executors holding a replica, and the per-executor
// collection-unit index the MCF scheduler scores offers from.
type Cluster struct {
	Cfg       config.Cluster
	executors []*Executor
	directory map[BlockID]map[int]bool
	// unitOf is the installed block -> collection-unit mapping and
	// unitVersion counts its announced changes (unitindex.go).
	unitOf      func(BlockID) (UnitID, bool)
	unitVersion uint64
}

// New builds a cluster per the configuration.
func New(cfg config.Cluster) *Cluster {
	c := &Cluster{
		Cfg:       cfg,
		directory: make(map[BlockID]map[int]bool),
		unitOf:    func(BlockID) (UnitID, bool) { return UnitID{}, false },
	}
	for i := 0; i < cfg.NumExecutors; i++ {
		c.executors = append(c.executors, &Executor{
			ID:    i,
			Slots: cfg.SlotsPerExecutor,
			Store: NewBlockStore(cfg.MemoryPerExecutor),
			inc:   1,
			units: unitIndex{refs: make(map[UnitID]int)},
		})
	}
	return c
}

// NumExecutors reports the executor count (including dead ones).
func (c *Cluster) NumExecutors() int { return len(c.executors) }

// Executor returns the executor with the given id.
func (c *Cluster) Executor(id int) *Executor {
	return c.executors[id]
}

// Executors returns all executors in id order.
func (c *Cluster) Executors() []*Executor { return c.executors }

// AliveExecutors returns the ids of live executors.
func (c *Cluster) AliveExecutors() []int {
	var out []int
	for _, e := range c.executors {
		if !e.dead {
			out = append(out, e.ID)
		}
	}
	return out
}

// CachePut stores a block on an executor and updates the directory,
// returning the evicted block ids (already removed from the directory).
//
//starklint:ignore unreachable bench/layers.go (cluster.unique_keys_us_op set-up)
func (c *Cluster) CachePut(exec int, id BlockID, data []record.Record, bytes int64) []BlockID {
	evicted, _ := c.CachePutChecked(exec, id, data, bytes)
	return evicted
}

// CachePutChecked stores a block on an executor, updates the directory,
// and reports the put outcome so the engine can count graceful refusals
// (and fail the task under an armed ExecutorOOM window). A put to a dead
// executor reports PutStored with no directory change, matching CachePut's
// historical silence — the block simply vanishes with the executor.
func (c *Cluster) CachePutChecked(exec int, id BlockID, data []record.Record, bytes int64) ([]BlockID, PutStatus) {
	e := c.executors[exec]
	if e.dead {
		return nil, PutStored
	}
	evicted, st := e.Store.PutChecked(id, data, bytes)
	for _, ev := range evicted {
		c.dropLocation(ev, exec)
	}
	if st == PutStored {
		locs, present := c.directory[id]
		if !present {
			locs = make(map[int]bool)
			c.directory[id] = locs
		}
		if !locs[exec] { // a re-put of a held block changes neither books
			locs[exec] = true
			c.unitAdded(e, id)
		}
	}
	return evicted, st
}

// SetPolicy installs an eviction policy on every executor's store (shared
// instance; policies are control-plane-only). nil restores the LRU
// baseline.
func (c *Cluster) SetPolicy(p EvictionPolicy) {
	for _, e := range c.executors {
		e.Store.SetPolicy(p)
	}
}

// SetMemPressure sets an executor's mem-pressure capacity shrink factor;
// factor >= 1 restores full capacity. Dead executors keep the setting for
// their next incarnation's store state (the store survives Restart with a
// Clear, not a rebuild).
func (c *Cluster) SetMemPressure(exec int, factor float64) {
	c.executors[exec].Store.SetShrink(factor)
}

// CacheGet reads a block from one executor's cache.
func (c *Cluster) CacheGet(exec int, id BlockID) ([]record.Record, bool) {
	e := c.executors[exec]
	if e.dead {
		return nil, false
	}
	return e.Store.Get(id)
}

// CachePeek reads a block from one executor's cache without touching LRU
// order; see BlockStore.Peek.
func (c *Cluster) CachePeek(exec int, id BlockID) ([]record.Record, bool) {
	e := c.executors[exec]
	if e.dead {
		return nil, false
	}
	return e.Store.Peek(id)
}

// Locations returns the executor ids caching a block, ascending.
func (c *Cluster) Locations(id BlockID) []int {
	locs := c.directory[id]
	if len(locs) == 0 {
		return nil
	}
	out := make([]int, 0, len(locs))
	for i := range locs {
		out = append(out, i)
	}
	// Insertion sort: location sets are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DropBlock removes a block replica from an executor (cache invalidation or
// de-replication).
func (c *Cluster) DropBlock(exec int, id BlockID) {
	if c.executors[exec].Store.Remove(id) {
		c.dropLocation(id, exec)
	}
}

// DropReplicas removes every replica of a block the directory lists, in
// ascending executor order, without allocating; a block cached nowhere costs
// one directory lookup.
func (c *Cluster) DropReplicas(id BlockID) {
	locs := c.directory[id] // dropLocation deletes from this same set
	for exec := 0; exec < len(c.executors) && len(locs) > 0; exec++ {
		if locs[exec] {
			c.DropBlock(exec, id)
		}
	}
}

// dropLocation forgets a replica that just left an executor's store: the
// directory entry and the executor's unit refcount go together.
func (c *Cluster) dropLocation(id BlockID, exec int) {
	if locs, ok := c.directory[id]; ok {
		delete(locs, exec)
		if len(locs) == 0 {
			delete(c.directory, id)
		}
	}
	c.unitRemoved(c.executors[exec], id)
}

// Kill fails an executor: all cached blocks vanish, slots become
// unavailable. Running tasks are the scheduler's problem. Killing a dead
// executor is a no-op.
func (c *Cluster) Kill(exec int) {
	e := c.executors[exec]
	if e.dead {
		return
	}
	e.dead = true
	for _, id := range e.Store.Clear() {
		c.dropLocation(id, exec)
	}
	e.busy = 0
}

// Restart revives a dead executor with an empty cache, full speed, and a
// new process incarnation.
func (c *Cluster) Restart(exec int) {
	e := c.executors[exec]
	e.dead = false
	e.busy = 0
	e.slow = 0
	e.inc++
}

// SetSlowdown sets an executor's straggler multiplier; factor <= 1 restores
// full speed. New task launches on the executor take factor times their
// modeled duration.
func (c *Cluster) SetSlowdown(exec int, factor float64) {
	c.executors[exec].slow = factor
}

// CheckConsistency verifies the directory against the executors' stores:
// every directory entry must point at executors that actually hold the
// block, and every cached block must be in the directory; then the unit
// index against a recount of the stores. It returns the first violation
// found, or nil; tests call it after churn.
func (c *Cluster) CheckConsistency() error {
	for id, locs := range c.directory {
		if len(locs) == 0 {
			return fmt.Errorf("cluster: %v has an empty directory entry", id)
		}
		for exec := range locs {
			e := c.executors[exec]
			if e.dead {
				return fmt.Errorf("cluster: %v listed on dead executor %d", id, exec)
			}
			if !e.Store.Contains(id) {
				return fmt.Errorf("cluster: %v listed on executor %d but not cached there", id, exec)
			}
		}
	}
	for _, e := range c.executors {
		if e.dead {
			if e.Store.Len() != 0 {
				return fmt.Errorf("cluster: dead executor %d still holds %d blocks", e.ID, e.Store.Len())
			}
			continue
		}
		for _, id := range e.Store.Blocks() {
			if !c.directory[id][e.ID] {
				return fmt.Errorf("cluster: executor %d holds %v missing from directory", e.ID, id)
			}
		}
		if e.busy < 0 || e.busy > e.Slots {
			return fmt.Errorf("cluster: executor %d busy=%d of %d slots", e.ID, e.busy, e.Slots)
		}
	}
	return c.checkUnitIndex()
}

// UniqueKeysCached reports how many distinct keys the executor's cached
// blocks map to under keyOf: blocks mapping to the same key count once, and
// blocks with key "" are ignored. It is the O(blocks) reference recount —
// it walks the whole store and allocates per call — kept as the oracle the
// unit index is tested against and as the benchmark's per-layer probe; the
// scheduler scores offers through UnitsCached instead.
//
//starklint:ignore unreachable bench/layers.go and bench/profile.go (cluster.unique_keys_us_op, prof.cluster_unique_keys_pct)
func (c *Cluster) UniqueKeysCached(exec int, keyOf func(BlockID) string) int {
	e := c.executors[exec]
	if e.dead {
		return 0
	}
	seen := make(map[string]bool)
	for _, id := range e.Store.Blocks() {
		k := keyOf(id)
		if k != "" {
			seen[k] = true
		}
	}
	return len(seen)
}
