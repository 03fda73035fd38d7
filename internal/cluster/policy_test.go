package cluster

import (
	"fmt"
	"testing"
)

// Regression: a grown re-put of an existing id used to skip the capacity
// guard, and the evictor protected the re-put block — used could end above
// capacity with a single oversized block. Oversized re-puts must now be
// refused exactly like fresh puts, leaving the old entry intact.
func TestBlockStoreOversizedRePutRefused(t *testing.T) {
	s := NewBlockStore(100)
	if _, ok := s.Put(BlockID{1, 0}, rec(1), 40); !ok {
		t.Fatal("seed put failed")
	}
	ev, st := s.PutChecked(BlockID{1, 0}, rec(9), 150)
	if st != PutTooLarge || len(ev) != 0 {
		t.Fatalf("grown re-put: st=%v ev=%v, want too-large and no evictions", st, ev)
	}
	if s.Used() != 40 || s.Len() != 1 {
		t.Fatalf("store disturbed: used=%d len=%d", s.Used(), s.Len())
	}
	if data, ok := s.Peek(BlockID{1, 0}); !ok || len(data) != 1 {
		t.Fatalf("old entry lost: %v %v", data, ok)
	}
	if s.Used() > s.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", s.Used(), s.Capacity())
	}
}

// A grown re-put that fits after evicting *other* blocks must still work.
func TestBlockStoreGrownRePutEvictsOthers(t *testing.T) {
	s := NewBlockStore(100)
	s.Put(BlockID{1, 0}, nil, 40)
	s.Put(BlockID{2, 0}, nil, 40)
	s.Get(BlockID{1, 0}) // block 2 is LRU
	ev, st := s.PutChecked(BlockID{1, 0}, nil, 90)
	if st != PutStored || len(ev) != 1 || ev[0] != (BlockID{2, 0}) {
		t.Fatalf("st=%v ev=%v", st, ev)
	}
	if s.Used() != 90 || s.Used() > s.Capacity() {
		t.Fatalf("used=%d cap=%d", s.Used(), s.Capacity())
	}
}

func TestBlockStoreShrinkCapacity(t *testing.T) {
	s := NewBlockStore(1000)
	s.Put(BlockID{1, 0}, nil, 400)
	s.SetShrink(0.5)
	if got := s.Capacity(); got != 500 {
		t.Fatalf("effective capacity = %d, want 500", got)
	}
	if s.capacity != 1000 {
		t.Fatalf("base capacity = %d", s.capacity)
	}
	// A put over the shrunk bound is refused even though the base bound
	// would admit it.
	if _, st := s.PutChecked(BlockID{2, 0}, nil, 600); st != PutTooLarge {
		t.Fatalf("st=%v, want too-large under pressure", st)
	}
	// A fitting put under pressure pays evictions against the shrunk bound.
	ev, st := s.PutChecked(BlockID{3, 0}, nil, 300)
	if st != PutStored || len(ev) != 1 || ev[0] != (BlockID{1, 0}) {
		t.Fatalf("st=%v ev=%v", st, ev)
	}
	if s.Used() != 300 || s.Capacity() != 500 {
		t.Fatalf("used/capacity = %d/%d, want 300/500", s.Used(), s.Capacity())
	}
	s.SetShrink(1)
	if s.Capacity() != 1000 {
		t.Fatal("shrink did not restore")
	}
	// Clamping.
	s.SetShrink(-3)
	if s.Capacity() != 0 {
		t.Fatalf("negative shrink capacity = %d", s.Capacity())
	}
	s.SetShrink(7)
	if s.Capacity() != 1000 {
		t.Fatalf("over-1 shrink capacity = %d", s.Capacity())
	}
}

// groupFn maps blocks to peer groups for tests: rdds 10..19 → unit 7 of
// namespace 1, 20..29 → unit 7 of namespace 2 (the same unit number, so only
// the namespace tells the groups apart), everything else ungrouped.
func groupFn(id BlockID) (UnitID, bool) {
	switch {
	case id.RDD >= 10 && id.RDD < 20:
		return UnitID{NS: 1, Unit: 7}, true
	case id.RDD >= 20 && id.RDD < 30:
		return UnitID{NS: 2, Unit: 7}, true
	}
	return UnitID{}, false
}

func TestDAGPolicyEvictsZeroRefFirst(t *testing.T) {
	p := NewDAGPolicy()
	s := NewBlockStore(100)
	s.SetPolicy(p)
	p.Charge(1, 2) // rdd1 still has consumers
	s.Put(BlockID{1, 0}, nil, 40)
	s.Put(BlockID{2, 0}, nil, 40) // zero-ref
	s.Get(BlockID{2, 0})          // rdd1 is now LRU — LRU would evict it
	ev, st := s.PutChecked(BlockID{3, 0}, nil, 40)
	if st != PutStored || len(ev) != 1 || ev[0] != (BlockID{2, 0}) {
		t.Fatalf("st=%v ev=%v, want zero-ref rdd2 evicted over referenced LRU rdd1", st, ev)
	}
	if !s.Contains(BlockID{1, 0}) {
		t.Fatal("referenced block evicted while zero-ref available")
	}
}

func TestDAGPolicyReleaseUnpins(t *testing.T) {
	p := NewDAGPolicy()
	s := NewBlockStore(100)
	s.SetPolicy(p)
	p.Charge(1, 1)
	s.Put(BlockID{1, 0}, nil, 60)
	p.Release(1, 1) // consumer stage completed
	ev, st := s.PutChecked(BlockID{2, 0}, nil, 60)
	if st != PutStored || len(ev) != 1 || ev[0] != (BlockID{1, 0}) {
		t.Fatalf("st=%v ev=%v, want released rdd1 evicted", st, ev)
	}
	// Release clamps at zero (resubmission after a crash-reset).
	p.Release(1, 5)
	if p.refs[1] != 0 {
		t.Fatalf("refs = %d after over-release", p.refs[1])
	}
	p.Charge(3, 2)
	p.ResetRefs()
	if p.refs[3] != 0 {
		t.Fatal("ResetRefs left refs behind")
	}
}

func TestDAGPolicyGroupCascade(t *testing.T) {
	p := NewDAGPolicy()
	p.SetGroupFn(groupFn)
	s := NewBlockStore(100)
	s.SetPolicy(p)
	// Two peer blocks of group g1, both zero-ref, plus an ungrouped
	// recently-used block.
	s.Put(BlockID{10, 0}, nil, 20)
	s.Put(BlockID{1, 0}, nil, 40)
	s.Put(BlockID{11, 0}, nil, 20)
	// Need 30 bytes: one g1 member would cover 20; the cascade must take
	// both members (a partial peer group is worthless).
	ev, st := s.PutChecked(BlockID{2, 0}, nil, 90)
	if st != PutStored {
		t.Fatalf("st=%v", st)
	}
	if s.Contains(BlockID{10, 0}) || s.Contains(BlockID{11, 0}) {
		t.Fatalf("partial peer group survived: evicted=%v blocks=%v", ev, s.Blocks())
	}
}

// The same unit number in two namespaces is two peer groups: the cascade
// that evicts one takes all of it and none of the other.
func TestDAGPolicyGroupsAreNamespaced(t *testing.T) {
	p := NewDAGPolicy()
	p.SetGroupFn(groupFn)
	s := NewBlockStore(100)
	s.SetPolicy(p)
	s.Put(BlockID{10, 0}, nil, 20) // namespace 1, unit 7: least recently used
	s.Put(BlockID{20, 0}, nil, 20) // namespace 2, unit 7
	s.Put(BlockID{11, 0}, nil, 20)
	s.Put(BlockID{21, 0}, nil, 20)
	// Need 10 bytes: the first victim's group goes whole and covers it.
	ev, st := s.PutChecked(BlockID{2, 0}, nil, 30)
	if st != PutStored || len(ev) != 2 {
		t.Fatalf("st=%v ev=%v, want exactly namespace 1's two blocks evicted", st, ev)
	}
	if s.Contains(BlockID{10, 0}) || s.Contains(BlockID{11, 0}) {
		t.Fatalf("partial peer group survived: evicted=%v blocks=%v", ev, s.Blocks())
	}
	if !s.Contains(BlockID{20, 0}) || !s.Contains(BlockID{21, 0}) {
		t.Fatalf("unit 7 of the other namespace was evicted with it: evicted=%v blocks=%v", ev, s.Blocks())
	}
	// A reference into namespace 1 pins nothing of namespace 2.
	p.Charge(10, 1)
	if ev, st := s.PutChecked(BlockID{3, 0}, nil, 70); st != PutStored || len(ev) != 2 || s.Contains(BlockID{20, 0}) {
		t.Fatalf("st=%v ev=%v, want namespace 2's group evicted, unpinned by a reference into namespace 1", st, ev)
	}
}

func TestDAGPolicyPinnedGroupBlocksPut(t *testing.T) {
	p := NewDAGPolicy()
	p.SetGroupFn(groupFn)
	s := NewBlockStore(100)
	s.SetPolicy(p)
	p.Charge(10, 1) // one member referenced pins the whole group
	s.Put(BlockID{10, 0}, nil, 50)
	s.Put(BlockID{11, 0}, nil, 50) // peer, zero-ref, but pinned via rdd10
	ev, st := s.PutChecked(BlockID{2, 0}, nil, 60)
	if st != PutPinnedBlocked || len(ev) != 0 {
		t.Fatalf("st=%v ev=%v, want pinned-blocked and no evictions", st, ev)
	}
	if s.Used() != 100 || s.Len() != 2 {
		t.Fatalf("refused put disturbed store: used=%d len=%d", s.Used(), s.Len())
	}
	// Releasing the pin makes the same put succeed, cascading the group.
	p.Release(10, 1)
	ev, st = s.PutChecked(BlockID{2, 0}, nil, 60)
	if st != PutStored || len(ev) != 2 {
		t.Fatalf("after release: st=%v ev=%v", st, ev)
	}
}

// The incoming block's own peers are pinned for the duration of the put:
// caching one member by evicting its peers would break the effective-cache
// property the policy exists to preserve.
func TestDAGPolicyKeepPeersPinned(t *testing.T) {
	p := NewDAGPolicy()
	p.SetGroupFn(groupFn)
	s := NewBlockStore(100)
	s.SetPolicy(p)
	s.Put(BlockID{10, 0}, nil, 60) // zero-ref peer of the incoming block
	ev, st := s.PutChecked(BlockID{11, 0}, nil, 60)
	if st != PutPinnedBlocked || len(ev) != 0 {
		t.Fatalf("st=%v ev=%v, want refusal over evicting the put's own peer", st, ev)
	}
	if !s.Contains(BlockID{10, 0}) {
		t.Fatal("peer evicted")
	}
}

func TestDAGPolicyFallsBackToReferencedUngrouped(t *testing.T) {
	p := NewDAGPolicy()
	s := NewBlockStore(100)
	s.SetPolicy(p)
	p.Charge(1, 1)
	p.Charge(2, 1)
	s.Put(BlockID{1, 0}, nil, 50)
	s.Put(BlockID{2, 0}, nil, 50)
	// Everything referenced and ungrouped: evict in LRU order rather than
	// refuse (recompute-later beats never-cache).
	ev, st := s.PutChecked(BlockID{3, 0}, nil, 50)
	if st != PutStored || len(ev) != 1 || ev[0] != (BlockID{1, 0}) {
		t.Fatalf("st=%v ev=%v", st, ev)
	}
}

func TestClusterCachePutCheckedCountsAndDirectory(t *testing.T) {
	c := newTestCluster() // 1000 bytes per executor
	p := NewDAGPolicy()
	p.SetGroupFn(groupFn)
	c.SetPolicy(p)
	p.Charge(10, 1)
	c.CachePut(0, BlockID{10, 0}, nil, 900)
	ev, st := c.CachePutChecked(0, BlockID{2, 0}, nil, 500)
	if st != PutPinnedBlocked || len(ev) != 0 {
		t.Fatalf("st=%v ev=%v", st, ev)
	}
	if locs := c.Locations(BlockID{2, 0}); locs != nil {
		t.Fatalf("refused block in directory: %v", locs)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Pressure shrink propagates into the live executors' effective
	// capacities.
	effective := func() (total int64) {
		for _, id := range c.AliveExecutors() {
			total += c.Executor(id).Store.Capacity()
		}
		return total
	}
	base := effective()
	c.SetMemPressure(1, 0.25)
	if got := c.Executor(1).Store.Capacity(); got != 250 {
		t.Fatalf("executor 1 effective capacity = %d, want 250", got)
	}
	if got := effective(); got != base-750 {
		t.Fatalf("effective capacity = %d, want %d", got, base-750)
	}
	c.Kill(1)
	if got := effective(); got != base-1000 {
		t.Fatalf("effective capacity after kill = %d, want %d", got, base-1000)
	}
}

func TestPutStatusString(t *testing.T) {
	for st, want := range map[PutStatus]string{
		PutStored:        "stored",
		PutTooLarge:      "too-large",
		PutPinnedBlocked: "pinned-blocked",
		PutStatus(9):     "PutStatus(9)",
	} {
		if got := fmt.Sprint(st); got != want {
			t.Errorf("PutStatus %d = %q, want %q", int(st), got, want)
		}
	}
}
