package cluster

import (
	"fmt"
	"math/bits"
)

// KeyTable maps packed block keys to int32 values: the index of every
// per-block table (a store's slots, the directory's holder sets, the
// engine's record of evicted blocks). It is open-addressed and pointer-free:
// one power-of-two array of {key, value} cells, a key's home cell taken
// from one multiplicative hash of the key, collisions resolved by linear
// probing, and deletion by backward shift, so a remove leaves no tombstone
// and every probe chain stays as short as the live keys make it. The array
// doubles only when the live count passes three quarters of it, so its
// memory is bounded by the most keys it has held at once, never by the
// size of an id, and a lookup, insert or delete allocates nothing once it
// has grown. The zero KeyTable is empty and ready to use.
type KeyTable struct {
	cells []keyCell
	n     int
	// shift turns the 64-bit hash into a cell index: 64 - log2(len(cells)).
	shift uint
}

// keyCell holds key+1 (0 marks an empty cell; a packed key is below 2^63,
// so key+1 never wraps) and the key's value.
type keyCell struct {
	k uint64
	v int32
}

// minCells is the size a table takes at its first insert.
const minCells = 16

// hashKey is the table's one hash: a multiply by 2^64/φ, whose top bits
// pick the home cell.
func hashKey(key BlockKey) uint64 { return uint64(key) * 0x9e3779b97f4a7c15 }

// home returns key's home cell.
func (t *KeyTable) home(key BlockKey) int { return int(hashKey(key) >> t.shift) }

// find returns the cell holding key, or -1.
func (t *KeyTable) find(key BlockKey) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.cells) - 1
	k := uint64(key) + 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.cells[i].k {
		case k:
			return i
		case 0:
			return -1
		}
	}
}

// Len reports the number of keys held.
func (t *KeyTable) Len() int { return t.n }

// Get returns key's value.
func (t *KeyTable) Get(key BlockKey) (int32, bool) {
	if i := t.find(key); i >= 0 {
		return t.cells[i].v, true
	}
	return 0, false
}

// Has reports whether key is held.
func (t *KeyTable) Has(key BlockKey) bool { return t.find(key) >= 0 }

// Put sets key's value, inserting the key if it is new.
func (t *KeyTable) Put(key BlockKey, v int32) {
	if (t.n+1)*4 > len(t.cells)*3 {
		t.grow()
	}
	mask := len(t.cells) - 1
	k := uint64(key) + 1
	i := t.home(key)
	for ; t.cells[i].k != 0; i = (i + 1) & mask {
		if t.cells[i].k == k {
			t.cells[i].v = v
			return
		}
	}
	t.cells[i] = keyCell{k: k, v: v}
	t.n++
}

// Delete removes key, reporting whether it was held. Each later cell of
// the probe chain whose home does not lie between the hole and itself
// shifts back into the hole, so no key becomes unreachable.
func (t *KeyTable) Delete(key BlockKey) bool {
	i := t.find(key)
	if i < 0 {
		return false
	}
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; t.cells[j].k != 0; j = (j + 1) & mask {
		if h := t.home(BlockKey(t.cells[j].k - 1)); (j-h)&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = keyCell{}
	t.n--
	return true
}

// Clear removes every key, keeping the array.
func (t *KeyTable) Clear() {
	clear(t.cells)
	t.n = 0
}

// grow doubles the array (or makes the first one) and re-inserts the keys.
func (t *KeyTable) grow() {
	old := t.cells
	size := max(minCells, 2*len(old))
	t.cells = make([]keyCell, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, c := range old {
		if c.k != 0 {
			t.Put(BlockKey(c.k-1), c.v)
		}
	}
}

// check verifies the table against itself: the live count matches the
// occupied cells, and every key is found from its home cell, so no cell
// sits behind an empty one on its probe chain.
func (t *KeyTable) check() error {
	n := 0
	for i, c := range t.cells {
		if c.k == 0 {
			continue
		}
		n++
		if got := t.find(BlockKey(c.k - 1)); got != i {
			return fmt.Errorf("cluster: key table cell %d holds %v, which a lookup finds at %d", i, BlockKey(c.k-1).ID(), got)
		}
	}
	if n != t.n {
		return fmt.Errorf("cluster: key table counts %d keys in %d occupied cells", t.n, n)
	}
	return nil
}
