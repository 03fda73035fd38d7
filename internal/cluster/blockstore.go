// Package cluster simulates the worker side of the paper's 50-server
// testbed: executors with bounded task slots and capacity-bounded LRU block
// caches, plus a cluster-wide block directory (the BlockManagerMaster
// analogue). Transformations execute for real on in-process data; this
// package only decides *where* blocks live and what evictions occur, which
// is the state the paper's mechanisms manipulate.
package cluster

import (
	"container/list"
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

type blockEntry struct {
	id    BlockID
	data  []record.Record
	bytes int64
	elem  *list.Element
}

// BlockStore is a per-executor cache of partition blocks, measured in
// simulated bytes, with a pluggable eviction policy (LRU baseline). A
// MemPressure fault can shrink the effective capacity by a factor in
// (0, 1]; Capacity reports the shrunk bound so every consumer
// (GC model, put path) sees the same squeezed world.
type BlockStore struct {
	capacity int64
	used     int64
	blocks   map[BlockKey]*blockEntry
	lru      list.List // front = most recently used
	policy   EvictionPolicy
	// shrink is the mem-pressure capacity factor in (0, 1]; 1 = no
	// pressure. Effective capacity = capacity * shrink.
	shrink float64
}

// NewBlockStore returns a store with the given capacity in simulated bytes.
func NewBlockStore(capacity int64) *BlockStore {
	return &BlockStore{
		capacity: capacity,
		blocks:   make(map[BlockKey]*blockEntry),
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
func (s *BlockStore) Len() int { return len(s.blocks) }

// Contains reports whether the block is cached, without touching LRU order.
func (s *BlockStore) Contains(id BlockID) bool {
	_, ok := s.blocks[id.Key()]
	return ok
}

// Get returns the cached data and marks the block most recently used.
//
//starklint:hotpath
func (s *BlockStore) Get(id BlockID) ([]record.Record, bool) {
	e, ok := s.blocks[id.Key()]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return e.data, true
}

// Peek returns the cached data without touching LRU order. The parallel
// data plane reads through Peek so concurrent lookups never mutate the
// store; recency updates are replayed later, in deterministic dispatch
// order, via Get.
//
//starklint:hotpath
func (s *BlockStore) Peek(id BlockID) ([]record.Record, bool) {
	e, ok := s.blocks[id.Key()]
	if !ok {
		return nil, false
	}
	return e.data, true
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
	if e, exists := s.blocks[key]; exists {
		current = e.bytes
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
			if e, ok := s.blocks[vid.Key()]; ok && vid != id {
				s.removeEntry(e)
				//starklint:ignore hotalloc only a put that must make room evicts, and the victim list is what it returns
				evicted = append(evicted, vid)
			}
		}
	}
	if e, exists := s.blocks[key]; exists {
		s.used += bytes - e.bytes
		e.data, e.bytes = data, bytes
		s.lru.MoveToFront(e.elem)
		return evicted, PutStored
	}
	e := &blockEntry{id: id, data: data, bytes: bytes}
	//starklint:ignore hotalloc a newly cached block needs its LRU element, one per block stored; the *blockEntry is pointer-shaped and boxes without allocating
	e.elem = s.lru.PushFront(e)
	s.blocks[key] = e
	s.used += bytes
	return evicted, PutStored
}

// Remove drops a block if present, reporting whether it was cached.
func (s *BlockStore) Remove(id BlockID) bool {
	e, ok := s.blocks[id.Key()]
	if !ok {
		return false
	}
	s.removeEntry(e)
	return true
}

func (s *BlockStore) removeEntry(e *blockEntry) {
	s.lru.Remove(e.elem)
	delete(s.blocks, e.id.Key())
	s.used -= e.bytes
}

// Blocks returns the cached block ids, most recently used first.
func (s *BlockStore) Blocks() []BlockID {
	out := make([]BlockID, 0, len(s.blocks))
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*blockEntry).id)
	}
	return out
}

// Clear drops every block (executor failure).
func (s *BlockStore) Clear() []BlockID {
	ids := s.Blocks()
	s.blocks = make(map[BlockKey]*blockEntry)
	s.lru.Init()
	s.used = 0
	return ids
}
