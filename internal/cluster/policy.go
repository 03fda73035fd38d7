package cluster

// EvictionPolicy decides which cached blocks an executor's BlockStore gives
// up when a put needs room. The store computes the full eviction plan
// *before* mutating anything, so a refused put evicts nothing — the
// graceful-degradation contract: refuse-and-stream, never thrash.
//
// Policies run on the engine's single-threaded control plane (puts are
// replayed at plane join in dispatch order), so implementations need no
// locking but must be deterministic: equal store state and equal policy
// state must yield equal plans.
type EvictionPolicy interface {
	// Plan selects victims freeing at least need bytes from s, never
	// naming keep (the block being put). OK reports whether the plan
	// covers need; PinBlocked reports that the shortfall is due to
	// pinned peer groups (the caller should refuse the cache rather
	// than break all-or-nothing pinning).
	Plan(s *BlockStore, need int64, keep BlockID) EvictionPlan
}

// EvictionPlan is a policy's answer: the victims to drop, in eviction
// order, and whether the plan actually covers the requested bytes.
type EvictionPlan struct {
	Victims    []BlockID
	OK         bool
	PinBlocked bool
}

// lruPolicy is the baseline: walk the recency list back-to-front and take
// everything in reach. It always succeeds (any block except keep is fair
// game), matching the store's historical behaviour.
type lruPolicy struct{}

// NewLRUPolicy returns the baseline least-recently-used eviction policy.
//
//starklint:ignore unreachable bench/layers.go (cluster.put_evict_*_ns_op)
func NewLRUPolicy() EvictionPolicy { return lruPolicy{} }

func (lruPolicy) Plan(s *BlockStore, need int64, keep BlockID) EvictionPlan {
	var plan EvictionPlan
	var freed int64
	for i := s.tail; i != nilSlot && freed < need; i = s.slots[i].prev {
		e := &s.slots[i]
		if e.id == keep {
			continue
		}
		plan.Victims = append(plan.Victims, e.id)
		freed += e.bytes
	}
	plan.OK = freed >= need
	return plan
}

// DAGPolicy is the dependency-aware policy from the ROADMAP's cache item:
// reference counts derived from the lineage/stage DAG at job submit tell it
// each RDD's remaining downstream consumers, and a group function (the
// engine's namespace partition groups) identifies peer blocks that are only
// useful together (LERC's "effective cache").
//
// Victim selection, back-to-front through the recency list:
//
//  1. zero-reference blocks first — a block no remaining stage will read
//     is dead weight regardless of recency. Evicting any member of an
//     all-zero-reference peer group cascades to the whole group (a partial
//     group is worthless, so keeping the rest is pure waste).
//  2. referenced but ungrouped blocks next (plain LRU among them) — this
//     costs recomputes, but later than LRU would have paid them.
//  3. pinned peer groups (any member still referenced) are never touched:
//     if only pinned bytes remain, the plan reports PinBlocked and the
//     store refuses the put instead of breaking the group.
//
// The refcount table is driver state: charged when a job's stages are
// built, released as consumer stages complete, and reset wholesale when
// the driver crashes (the restarted driver re-charges on resubmission).
type DAGPolicy struct {
	refs map[int]int
	// groupOf maps a block to its collection unit, the peer group; ok=false
	// means ungrouped. Nil until the engine installs it.
	groupOf func(id BlockID) (UnitID, bool)
}

// NewDAGPolicy returns a DAG-aware policy with an empty reference table.
func NewDAGPolicy() *DAGPolicy {
	return &DAGPolicy{refs: make(map[int]int)}
}

// SetGroupFn installs the block → peer-group mapping: the same function the
// engine hands SetUnitMapping, so a peer group is a collection unit. Pass nil
// to treat every block as ungrouped.
func (p *DAGPolicy) SetGroupFn(fn func(id BlockID) (UnitID, bool)) { p.groupOf = fn }

// Charge adds n remaining consumers to an RDD's reference count.
func (p *DAGPolicy) Charge(rdd, n int) {
	if n != 0 {
		p.refs[rdd] += n
	}
}

// Release removes n consumers from an RDD's reference count, clamping at
// zero (resubmitted stages can release a count the crash already reset).
func (p *DAGPolicy) Release(rdd, n int) {
	if n == 0 {
		return
	}
	if r := p.refs[rdd] - n; r > 0 {
		p.refs[rdd] = r
	} else {
		delete(p.refs, rdd)
	}
}

// ResetRefs clears the whole table — driver crash discards volatile state;
// journal replay re-charges as jobs resubmit.
func (p *DAGPolicy) ResetRefs() { p.refs = make(map[int]int) }

func (p *DAGPolicy) keyOf(id BlockID) (UnitID, bool) {
	if p.groupOf == nil {
		return UnitID{}, false
	}
	return p.groupOf(id)
}

func (p *DAGPolicy) Plan(s *BlockStore, need int64, keep BlockID) EvictionPlan {
	var plan EvictionPlan
	var freed int64
	//starklint:ignore hotalloc the DAG policy plans only when a put must evict
	chosen := make(map[BlockID]bool)
	keepKey, keepGrouped := p.keyOf(keep)

	// groupState caches, per peer-group key, whether any cached member is
	// still referenced (pinned) — including the incoming keep block's
	// group, whose peers must survive the put for the cache to stay
	// effective.
	//starklint:ignore hotalloc the DAG policy plans only when a put must evict
	groupPinned := make(map[UnitID]bool)
	pinnedOf := func(key UnitID) bool {
		pinned, ok := groupPinned[key]
		if ok {
			return pinned
		}
		if keepGrouped && key == keepKey {
			pinned = true
		} else {
			for i := s.tail; i != nilSlot; i = s.slots[i].prev {
				e := &s.slots[i]
				if k, grouped := p.keyOf(e.id); grouped && k == key && p.refs[e.id.RDD] > 0 {
					pinned = true
					break
				}
			}
		}
		groupPinned[key] = pinned
		return pinned
	}

	take := func(e *blockEntry) {
		if chosen[e.id] {
			return
		}
		chosen[e.id] = true
		plan.Victims = append(plan.Victims, e.id)
		freed += e.bytes
	}

	// Pass 1: zero-reference blocks, whole peer groups at a time.
	for i := s.tail; i != nilSlot && freed < need; i = s.slots[i].prev {
		e := &s.slots[i]
		if e.id == keep || chosen[e.id] {
			continue
		}
		key, grouped := p.keyOf(e.id)
		if grouped {
			if pinnedOf(key) {
				plan.PinBlocked = true
				continue
			}
			// All-zero-reference group: cascade to every cached member,
			// in recency order, so no useless partial group lingers.
			for g := s.tail; g != nilSlot; g = s.slots[g].prev {
				ge := &s.slots[g]
				if gk, gg := p.keyOf(ge.id); gg && gk == key && ge.id != keep {
					take(ge)
				}
			}
			continue
		}
		if p.refs[e.id.RDD] == 0 {
			take(e)
		}
	}

	// Pass 2: referenced ungrouped blocks, LRU order — recompute later
	// beats refusing the cache, but pinned groups stay untouchable.
	for i := s.tail; i != nilSlot && freed < need; i = s.slots[i].prev {
		e := &s.slots[i]
		if e.id == keep || chosen[e.id] {
			continue
		}
		if _, grouped := p.keyOf(e.id); grouped {
			plan.PinBlocked = true
			continue
		}
		take(e)
	}

	plan.OK = freed >= need
	return plan
}
