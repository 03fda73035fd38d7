package cluster

import (
	"math/bits"
	"slices"
)

// blockDirectory maps each cached block to the set of executors holding a
// replica, as a bitset of words uint64s per block. The bitsets are
// slots carved from one slab: index (a KeyTable) maps a block to its slot,
// keys names each held slot's block, and a slot whose last holder leaves
// goes on a free list the next new block reuses, so recording a replica
// allocates nothing once the slab has grown. A held slot is never all zero and a free slot
// always is. Holders iterate in ascending executor order.
type blockDirectory struct {
	words int
	index KeyTable
	keys  []BlockKey
	bits  []uint64
	free  []int32
}

func newBlockDirectory(executors int) blockDirectory {
	return blockDirectory{words: max(1, (executors+63)/64)}
}

// slot returns slot s's holder words.
func (d *blockDirectory) slot(s int32) []uint64 {
	off := int(s) * d.words
	return d.bits[off : off+d.words : off+d.words]
}

// holders returns a block's holder words; nil when it is cached nowhere.
func (d *blockDirectory) holders(key BlockKey) []uint64 {
	s, ok := d.index.Get(key)
	if !ok {
		return nil
	}
	return d.slot(s)
}

// has reports whether exec holds a replica of the block.
func (d *blockDirectory) has(key BlockKey, exec int) bool {
	h := d.holders(key)
	return h != nil && h[exec/64]&(1<<(exec%64)) != 0
}

// add records a replica on exec, reporting false if it was already listed.
func (d *blockDirectory) add(key BlockKey, exec int) bool {
	s, ok := d.index.Get(key)
	if !ok {
		s = d.alloc(key)
		d.index.Put(key, s)
	}
	w, bit := &d.slot(s)[exec/64], uint64(1)<<(exec%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// remove forgets a replica on exec, freeing the block's slot when it was
// the last one.
func (d *blockDirectory) remove(key BlockKey, exec int) {
	s, ok := d.index.Get(key)
	if !ok {
		return
	}
	h := d.slot(s)
	h[exec/64] &^= 1 << (exec % 64)
	if !isEmpty(h) {
		return
	}
	d.index.Delete(key)
	d.free = append(d.free, s)
}

// alloc takes a free slot for key, growing the slab when none is free.
func (d *blockDirectory) alloc(key BlockKey) int32 {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		d.keys[s] = key
		return s
	}
	d.keys = append(d.keys, key)
	d.bits = append(d.bits, make([]uint64, d.words)...)
	return int32(len(d.keys) - 1)
}

// appendHolders appends the executors holding a block, ascending, to dst,
// growing it at most once.
func (d *blockDirectory) appendHolders(dst []int, key BlockKey) []int {
	h := d.holders(key)
	n := 0
	for _, w := range h {
		n += bits.OnesCount64(w)
	}
	dst = slices.Grow(dst, n)
	for i, w := range h {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i*64+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// nextHolder returns the lowest executor at or above from in h, or -1.
func nextHolder(h []uint64, from int) int {
	for w := from / 64; w < len(h); w++ {
		word := h[w]
		if w == from/64 {
			word &^= 1<<(from%64) - 1
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func isEmpty(h []uint64) bool {
	for _, w := range h {
		if w != 0 {
			return false
		}
	}
	return true
}
