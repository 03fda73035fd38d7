// Package cluster simulates the worker side of the paper's 50-server
// testbed: executors with bounded task slots and capacity-bounded LRU block
// caches, plus a cluster-wide block directory (the BlockManagerMaster
// analogue). Transformations execute for real on in-process data; this
// package only decides *where* blocks live and what evictions occur, which
// is the state the paper's mechanisms manipulate.
package cluster

import (
	"fmt"

	"stark/internal/record"
)

// BlockID names one cached partition of one RDD.
type BlockID struct {
	RDD       int
	Partition int
}

func (b BlockID) String() string { return fmt.Sprintf("rdd%d[%d]", b.RDD, b.Partition) }

// BlockKey is a BlockID packed into one word, RDD<<32 | Partition: the key
// of every table indexed by block (the stores, the directory, the engine's
// plane overlays and wake-up lists), so a lookup hashes one uint64 instead
// of a two-int struct.
type BlockKey uint64

// packLimit bounds both halves of a packed key. Ids at or above it, and
// negative ids, would alias another block's key, so Key refuses them.
const packLimit = 1 << 31

// Key packs the id. It panics on an RDD id or partition outside
// [0, 2^31): such an id has no key of its own.
func (b BlockID) Key() BlockKey {
	if uint(b.RDD) >= packLimit || uint(b.Partition) >= packLimit {
		panic(unpackableID(b))
	}
	return BlockKey(uint64(b.RDD)<<32 | uint64(b.Partition))
}

// ID unpacks the key.
func (k BlockKey) ID() BlockID { return BlockID{RDD: int(k >> 32), Partition: int(k & (1<<32 - 1))} }

// unpackableID is Key's panic value; its message is built only if read.
type unpackableID BlockID

func (u unpackableID) Error() string {
	return fmt.Sprintf("cluster: block id %v does not pack into a 64-bit key: RDD and partition must lie in [0, 2^31)", BlockID(u))
}

// blockEntry is one slot of a store's block table. A held block's slot is
// linked into the recency list through prev and next; a free slot is zero
// apart from next, which links the free list.
type blockEntry struct {
	id    BlockID
	data  []record.Record
	bytes int64
	// prev points toward the most recently used end, next toward the least.
	prev, next int32
}

// nilSlot ends a recency or free chain.
const nilSlot int32 = -1

// BlockStore is a per-executor cache of partition blocks, measured in
// simulated bytes, with a pluggable eviction policy (LRU baseline). A
// MemPressure fault can shrink the effective capacity by a factor in
// (0, 1]; Capacity reports the shrunk bound so every consumer
// (GC model, put path) sees the same squeezed world.
//
// The blocks live by value in one slot table: index (a KeyTable) maps a
// block to its slot, the slots form an int32-linked recency list from head
// (most recently used) to tail, and evicted slots go on a free list the
// next put reuses, so caching a block allocates nothing once the table has
// grown.
type BlockStore struct {
	capacity int64
	used     int64
	slots    []blockEntry
	index    KeyTable
	head     int32
	tail     int32
	free     int32
	policy   EvictionPolicy
	// shrink is the mem-pressure capacity factor in (0, 1]; 1 = no
	// pressure. Effective capacity = capacity * shrink.
	shrink float64
}

// NewBlockStore returns a store with the given capacity in simulated bytes.
func NewBlockStore(capacity int64) *BlockStore {
	return &BlockStore{
		capacity: capacity,
		head:     nilSlot,
		tail:     nilSlot,
		free:     nilSlot,
		policy:   lruPolicy{},
		shrink:   1,
	}
}

// SetPolicy installs an eviction policy; nil restores the LRU baseline.
func (s *BlockStore) SetPolicy(p EvictionPolicy) {
	if p == nil {
		p = lruPolicy{}
	}
	s.policy = p
}

// SetShrink sets the mem-pressure capacity factor; values outside (0, 1]
// clamp to that range (0 would make every put fail as oversized rather
// than model pressure). Shrinking below Used does not evict eagerly —
// the next put pays the eviction, keeping pressure effects on the
// deterministic put path.
func (s *BlockStore) SetShrink(factor float64) {
	if factor <= 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	s.shrink = factor
}

// Capacity reports the effective capacity: the configured bound scaled by
// the current mem-pressure shrink factor.
func (s *BlockStore) Capacity() int64 {
	if s.shrink >= 1 {
		return s.capacity
	}
	return int64(float64(s.capacity) * s.shrink)
}

// Used reports the bytes currently cached.
func (s *BlockStore) Used() int64 { return s.used }

// Len reports the number of cached blocks.
func (s *BlockStore) Len() int { return s.index.Len() }

// Contains reports whether the block is cached, without touching LRU order.
func (s *BlockStore) Contains(id BlockID) bool {
	return s.index.Has(id.Key())
}

// Get returns the cached data and marks the block most recently used.
//
//starklint:hotpath
func (s *BlockStore) Get(id BlockID) ([]record.Record, bool) {
	i, ok := s.index.Get(id.Key())
	if !ok {
		return nil, false
	}
	s.touch(i)
	return s.slots[i].data, true
}

// Peek returns the cached data without touching LRU order. The parallel
// data plane reads through Peek so concurrent lookups never mutate the
// store; recency updates are replayed later, in deterministic dispatch
// order, via Get.
//
//starklint:hotpath
func (s *BlockStore) Peek(id BlockID) ([]record.Record, bool) {
	i, ok := s.index.Get(id.Key())
	if !ok {
		return nil, false
	}
	return s.slots[i].data, true
}

// PutStatus classifies the outcome of a checked put.
type PutStatus int

const (
	// PutStored: the block is cached (evictions may have been paid).
	PutStored PutStatus = iota
	// PutTooLarge: the block exceeds the effective capacity on its own —
	// it can never fit, so it is refused without evicting anything.
	PutTooLarge
	// PutPinnedBlocked: making room would require evicting members of a
	// pinned peer group; the policy refused and nothing was evicted.
	PutPinnedBlocked
)

func (st PutStatus) String() string {
	switch st {
	case PutStored:
		return "stored"
	case PutTooLarge:
		return "too-large"
	case PutPinnedBlocked:
		return "pinned-blocked"
	default:
		return fmt.Sprintf("PutStatus(%d)", int(st))
	}
}

// Put caches a block, evicting per the installed policy as needed, and
// returns the evicted ids. ok = false means the put was refused (oversized
// or pin-blocked) and the store is untouched; use PutChecked for the
// refusal reason.
//
//starklint:ignore unreachable bench/layers.go (cluster.put_evict_*_ns_op)
func (s *BlockStore) Put(id BlockID, data []record.Record, bytes int64) (evicted []BlockID, ok bool) {
	evicted, st := s.PutChecked(id, data, bytes)
	return evicted, st == PutStored
}

// PutChecked caches a block, evicting per the installed policy, and
// reports the outcome. The eviction plan is computed *before* any
// mutation: a refused put — oversized against the effective capacity
// (fresh put or grown re-put alike) or blocked on pinned peers — leaves
// the store byte-for-byte unchanged, so degradation never thrashes.
func (s *BlockStore) PutChecked(id BlockID, data []record.Record, bytes int64) ([]BlockID, PutStatus) {
	cap := s.Capacity()
	if bytes > cap {
		// Oversized puts are refused outright, matching Spark's refusal
		// to cache partitions larger than the store. This applies to
		// re-puts of an already-cached id too: a grown re-put must not
		// slip past the bound it could not enter through.
		return nil, PutTooLarge
	}
	key := id.Key()
	var current int64 // bytes already held by this id (re-put case)
	cur, exists := s.index.Get(key)
	if exists {
		current = s.slots[cur].bytes
	}
	var evicted []BlockID
	if need := s.used - current + bytes - cap; need > 0 {
		plan := s.policy.Plan(s, need, id)
		if !plan.OK {
			if plan.PinBlocked {
				return nil, PutPinnedBlocked
			}
			return nil, PutTooLarge
		}
		for _, vid := range plan.Victims {
			if i, ok := s.index.Get(vid.Key()); ok && vid != id {
				s.removeSlot(i)
				//starklint:ignore hotalloc only a put that must make room evicts, and the victim list is what it returns
				evicted = append(evicted, vid)
			}
		}
	}
	if exists { // evictions never name id, so its slot has not moved
		e := &s.slots[cur]
		s.used += bytes - e.bytes
		e.data, e.bytes = data, bytes
		s.touch(cur)
		return evicted, PutStored
	}
	i := s.alloc()
	s.slots[i] = blockEntry{id: id, data: data, bytes: bytes}
	s.pushFront(i)
	s.index.Put(key, i)
	s.used += bytes
	return evicted, PutStored
}

// Remove drops a block if present, reporting whether it was cached.
func (s *BlockStore) Remove(id BlockID) bool {
	i, ok := s.index.Get(id.Key())
	if !ok {
		return false
	}
	s.removeSlot(i)
	return true
}

// removeSlot unlinks a held slot, forgets its block and frees the slot.
func (s *BlockStore) removeSlot(i int32) {
	s.unlink(i)
	s.index.Delete(s.slots[i].id.Key())
	s.used -= s.slots[i].bytes
	// Zeroing drops the data reference: an evicted block pins nothing.
	s.slots[i] = blockEntry{next: s.free}
	s.free = i
}

// alloc takes a slot off the free list, growing the table when it is empty.
func (s *BlockStore) alloc() int32 {
	if i := s.free; i != nilSlot {
		s.free = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, blockEntry{})
	return int32(len(s.slots) - 1)
}

// pushFront links slot i in as the most recently used.
func (s *BlockStore) pushFront(i int32) {
	s.slots[i].prev, s.slots[i].next = nilSlot, s.head
	if s.head != nilSlot {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlink takes slot i out of the recency list.
func (s *BlockStore) unlink(i int32) {
	p, n := s.slots[i].prev, s.slots[i].next
	if p != nilSlot {
		s.slots[p].next = n
	} else {
		s.head = n
	}
	if n != nilSlot {
		s.slots[n].prev = p
	} else {
		s.tail = p
	}
}

// touch marks slot i most recently used.
func (s *BlockStore) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

// Blocks returns the cached block ids, most recently used first.
func (s *BlockStore) Blocks() []BlockID {
	out := make([]BlockID, 0, s.index.Len())
	for i := s.head; i != nilSlot; i = s.slots[i].next {
		out = append(out, s.slots[i].id)
	}
	return out
}

// Clear drops every block (executor failure).
func (s *BlockStore) Clear() []BlockID {
	ids := s.Blocks()
	clear(s.slots)
	s.slots = s.slots[:0]
	s.index.Clear()
	s.head, s.tail, s.free = nilSlot, nilSlot, nilSlot
	s.used = 0
	return ids
}

// check verifies the table against itself: the index is sound, the
// recency list and the free list together cover every slot once, each
// listed slot is indexed under its own block, a free slot holds no data,
// and used is the sum of the held bytes.
func (s *BlockStore) check() error {
	if err := s.index.check(); err != nil {
		return err
	}
	var held int
	var bytes int64
	prev := nilSlot
	for i := s.head; i != nilSlot; i = s.slots[i].next {
		if held++; held > len(s.slots) {
			return fmt.Errorf("cluster: recency list cycles")
		}
		e := &s.slots[i]
		if e.prev != prev {
			return fmt.Errorf("cluster: slot %d of %v links back to %d, not %d", i, e.id, e.prev, prev)
		}
		if j, ok := s.index.Get(e.id.Key()); !ok || j != i {
			return fmt.Errorf("cluster: slot %d holds %v, which the index puts at %d (indexed %v)", i, e.id, j, ok)
		}
		bytes += e.bytes
		prev = i
	}
	if prev != s.tail {
		return fmt.Errorf("cluster: recency list ends at %d, tail is %d", prev, s.tail)
	}
	if held != s.index.Len() {
		return fmt.Errorf("cluster: recency list holds %d blocks, index %d", held, s.index.Len())
	}
	if bytes != s.used {
		return fmt.Errorf("cluster: held blocks sum to %d bytes, used is %d", bytes, s.used)
	}
	free := 0
	for i := s.free; i != nilSlot; i = s.slots[i].next {
		if free++; free > len(s.slots) {
			return fmt.Errorf("cluster: free list cycles")
		}
		if s.slots[i].data != nil {
			return fmt.Errorf("cluster: free slot %d still references its data", i)
		}
	}
	if held+free != len(s.slots) {
		return fmt.Errorf("cluster: %d held and %d free slots in a table of %d", held, free, len(s.slots))
	}
	return nil
}
