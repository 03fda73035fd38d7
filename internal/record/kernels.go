package record

import (
	"cmp"
	"slices"
	"sync"

	"stark/internal/arena"
)

// groupScratch is the per-call transient state of the co-group kernel: the
// open-addressing hash table, the per-record and per-group index columns and
// the sort entries, all pointer-free and carved from arenas so a
// steady-state pass allocates only its escaping outputs.
type groupScratch struct {
	i32 arena.Pool[int32]
	u64 arena.Pool[uint64]
	ent arena.Pool[keyEntry]
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

func getScratch() *groupScratch { return groupScratchPool.Get().(*groupScratch) }

func (sc *groupScratch) release() {
	sc.i32.Reset()
	sc.u64.Reset()
	sc.ent.Reset()
	//starklint:ignore hotalloc sync.Pool.Put takes any but *groupScratch is a pointer, so the conversion stores the pointer in the interface word without allocating
	groupScratchPool.Put(sc)
}

// keyEntry stands for one key in a sort: the key's first 8 bytes as a
// big-endian integer (zero-padded, so integer order never contradicts string
// order) and the index of whatever carries the full key. Sorting these moves
// 16 pointer-free bytes per swap and reads a key only to break a prefix tie.
type keyEntry struct {
	prefix uint64
	idx    int32
}

func keyPrefix(k string) uint64 {
	var p uint64
	for i := 0; i < len(k) && i < 8; i++ {
		p |= uint64(k[i]) << (56 - 8*uint(i))
	}
	return p
}

// sortKeyEntries orders es by the keys they stand for, ascending; entries
// with equal keys keep ascending idx, which makes the sort stable for
// callers that number their input in order.
func sortKeyEntries(es []keyEntry, key func(idx int32) string) {
	slices.SortFunc(es, func(a, b keyEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := cmp.Compare(key(a.idx), key(b.idx)); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// coGrouping is the result of the kernel's hash pass over one or more input
// sides: every distinct key is a group, numbered in first-seen order (sides
// in order, records in order). Records are addressed by their index in the
// concatenation of the sides.
type coGrouping struct {
	sc      *groupScratch
	sides   [][]Record
	ngroups int
	gidOf   []int32 // per record: its group
	first   []int32 // per group: the first record carrying its key
	counts  []int32 // [g*len(sides)+s]: records of side s in group g
}

// group runs the hash pass. Keys are FNV-hashed once into a table whose
// slots hold hash and group id together, so a probe touches a record only
// when the full hash matches.
func (sc *groupScratch) group(sides [][]Record) coGrouping {
	n := 0
	for _, side := range sides {
		n += len(side)
	}
	tsize := 1
	for tsize < 2*n {
		tsize <<= 1
	}
	mask := uint64(tsize - 1)
	table := sc.u64.Take(tsize) // 0 = empty, else hash<<32 | group id + 1
	gidOf, first := sc.i32.Take(n), sc.i32.Take(n)
	ngroups := int32(0)
	base := 0 // records in the sides before the current one
	for _, side := range sides {
		for j := range side {
			key := side[j].Key
			h := Hash32(key)
			slot := uint64(h) & mask
			for {
				e := table[slot]
				if e == 0 {
					table[slot] = uint64(h)<<32 | uint64(ngroups+1)
					first[ngroups] = int32(base + j)
					gidOf[base+j] = ngroups
					ngroups++
					break
				}
				if g := int32(uint32(e)) - 1; uint32(e>>32) == h && keyAt(sides, int(first[g])) == key {
					gidOf[base+j] = g
					break
				}
				slot = (slot + 1) & mask
			}
		}
		base += len(side)
	}
	ns := len(sides)
	counts := sc.i32.Take(int(ngroups) * ns)
	base = 0
	for s, side := range sides {
		for j := range side {
			counts[int(gidOf[base+j])*ns+s]++
		}
		base += len(side)
	}
	return coGrouping{sc: sc, sides: sides, ngroups: int(ngroups), gidOf: gidOf, first: first, counts: counts}
}

// keyAt returns the key of record i of the sides' concatenation.
func keyAt(sides [][]Record, i int) string {
	for _, side := range sides {
		if i < len(side) {
			return side[i].Key
		}
		i -= len(side)
	}
	panic("record: index past the last side")
}

// key returns group g's key.
func (cg *coGrouping) key(g int32) string { return keyAt(cg.sides, int(cg.first[g])) }

// ids returns every group id, in first-seen order.
func (cg *coGrouping) ids() []int32 {
	ids := cg.sc.i32.Take(cg.ngroups)
	for g := range ids {
		ids[g] = int32(g)
	}
	return ids
}

// sortByKey reorders the group ids into ascending key order.
func (cg *coGrouping) sortByKey(ids []int32) {
	es := cg.sc.ent.Take(len(ids))
	for i, g := range ids {
		es[i] = keyEntry{prefix: keyPrefix(cg.key(g)), idx: g}
	}
	sortKeyEntries(es, cg.key)
	for i := range es {
		ids[i] = es[i].idx
	}
}

// carve copies the values of the listed groups into one backing array —
// groups in the listed order, a group's sides in side order, a side's values
// in input order — and returns it with, per (group, side), the end of that
// run. Values of groups not listed are not copied.
func (cg *coGrouping) carve(order []int32) (backing []any, ends []int32) {
	ns := len(cg.sides)
	pos := cg.sc.i32.Take(cg.ngroups * ns)
	for i := range pos {
		pos[i] = -1
	}
	off := int32(0)
	for _, g := range order {
		for k := int(g) * ns; k < (int(g)+1)*ns; k++ {
			pos[k] = off
			off += cg.counts[k]
		}
	}
	backing = make([]any, off)
	i := 0
	for s, side := range cg.sides {
		for j := range side {
			if p := &pos[int(cg.gidOf[i])*ns+s]; *p >= 0 {
				backing[*p] = side[j].Value
				*p++
			}
			i++
		}
	}
	return backing, pos
}

// run returns side s of group g as carved: a cap-limited view of the
// backing array, nil when the side has no record with the key. Consumers
// must treat it as read-only (appending to one run would clobber its
// neighbor), which the engine's purity contract already demands.
func (cg *coGrouping) run(backing []any, ends []int32, g int32, s int) []any {
	k := int(g)*len(cg.sides) + s
	c := cg.counts[k]
	if c == 0 {
		return nil
	}
	return backing[ends[k]-c : ends[k] : ends[k]]
}

// GroupByKeySorted groups a record slice by key and returns the groups in
// ascending key order, every group's Values (input order) a view of one
// shared backing array — a partition groups in a handful of allocations
// regardless of key count. Input that already arrives in key order (the
// output of a join, a sort or another grouping) is grouped by a single pass
// of adjacent-key compares with no table and no sort.
//
//starklint:hotpath
func GroupByKeySorted(rs []Record) []Grouped {
	if len(rs) == 0 {
		return nil
	}
	if runs, ok := sortedRuns(rs); ok {
		return groupRuns(rs, runs)
	}
	sc := getScratch()
	sides := [1][]Record{rs}
	cg := sc.group(sides[:])
	order := cg.ids()
	cg.sortByKey(order)
	backing, ends := cg.carve(order)
	groups := make([]Grouped, len(order))
	for i, g := range order {
		groups[i] = Grouped{Key: cg.key(g), Values: cg.run(backing, ends, g, 0)}
	}
	sc.release()
	return groups
}

// sortedRuns reports whether rs is in non-decreasing key order and, if so,
// how many runs of equal keys it holds. Unsorted input fails at its first
// inversion, typically within a few records.
func sortedRuns(rs []Record) (runs int, ok bool) {
	runs = 1
	for i := 1; i < len(rs); i++ {
		if c := cmp.Compare(rs[i-1].Key, rs[i].Key); c > 0 {
			return 0, false
		} else if c < 0 {
			runs++
		}
	}
	return runs, true
}

func groupRuns(rs []Record, runs int) []Grouped {
	groups := make([]Grouped, 0, runs)
	backing := make([]any, len(rs))
	lo := 0
	for i := range rs {
		backing[i] = rs[i].Value
		if i+1 == len(rs) || rs[i+1].Key != rs[lo].Key {
			groups = append(groups, Grouped{Key: rs[lo].Key, Values: backing[lo : i+1 : i+1]})
			lo = i + 1
		}
	}
	return groups
}

// ReduceRecords folds each key's values with merge and returns one record
// per key, keys ascending: a key's first value in input order is the
// accumulator and the rest are merged into it in input order. Sorted input
// folds adjacent runs; otherwise one hash pass and a sort of the distinct
// keys place each group, and one pass over the input in input order folds
// it into its slot. No group's values are gathered, so the allocation is the
// exact-size output slice plus whatever merge allocates.
//
//starklint:hotpath
func ReduceRecords(rs []Record, merge func(acc, v any) any) []Record {
	if len(rs) == 0 {
		return []Record{}
	}
	if runs, ok := sortedRuns(rs); ok {
		out := make([]Record, 0, runs)
		for i := range rs {
			if i > 0 && rs[i].Key == rs[i-1].Key {
				last := &out[len(out)-1]
				last.Value = merge(last.Value, rs[i].Value)
			} else {
				out = append(out, rs[i])
			}
		}
		return out
	}
	sc := getScratch()
	sides := [1][]Record{rs}
	cg := sc.group(sides[:])
	order := cg.ids()
	cg.sortByKey(order)
	rank := sc.i32.Take(cg.ngroups) // per group: its slot in key order
	for i, g := range order {
		rank[g] = int32(i)
	}
	out := make([]Record, cg.ngroups)
	for i := range rs {
		g := cg.gidOf[i]
		slot := &out[rank[g]]
		if cg.first[g] == int32(i) {
			*slot = rs[i]
		} else {
			slot.Value = merge(slot.Value, rs[i].Value)
		}
	}
	sc.release()
	return out
}

// JoinRecords computes the inner join of two record slices: for every key
// present on both sides, the cross-product of left and right values as
// Joined pairs, keys ascending, left then right values in input order. One
// hash pass groups both sides together; only the keys present on both are
// sorted and only their values carved, so besides that one backing array the
// allocations are the exact-size output slice and one slab of pairs the
// Joined values point into.
//
//starklint:hotpath
func JoinRecords(left, right []Record) []Record {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	sc := getScratch()
	sides := [2][]Record{left, right}
	cg := sc.group(sides[:])
	matched := sc.i32.Take(cg.ngroups)
	m, total := 0, 0
	for g := 0; g < cg.ngroups; g++ {
		if l, r := cg.counts[2*g], cg.counts[2*g+1]; l > 0 && r > 0 {
			matched[m] = int32(g)
			m++
			total += int(l) * int(r)
		}
	}
	if total == 0 {
		sc.release()
		return nil
	}
	matched = matched[:m]
	cg.sortByKey(matched)
	backing, ends := cg.carve(matched)
	pairs := make([]JoinedPair, total)
	out := make([]Record, total)
	i := 0
	for _, g := range matched {
		key := cg.key(g)
		rvs := cg.run(backing, ends, g, 1)
		for _, lv := range cg.run(backing, ends, g, 0) {
			for _, rv := range rvs {
				pairs[i] = JoinedPair{Left: lv, Right: rv}
				out[i] = Record{Key: key, Value: &pairs[i]}
				i++
			}
		}
	}
	sc.release()
	return out
}

// CoGroupRecords groups the sides' values by key into CoGrouped values, one
// record per distinct key in first-seen order (sides in order, records in
// order); Groups[s] holds side s's values in input order and is nil when the
// side lacks the key. All value runs share one backing array, all Groups
// headers another and all CoGrouped values point into a third, so a call
// allocates the same handful of objects whatever its key count.
//
//starklint:hotpath
func CoGroupRecords(sides [][]Record) []Record {
	sc := getScratch()
	cg := sc.group(sides)
	order := cg.ids()
	backing, ends := cg.carve(order)
	ns := len(sides)
	headers := make([][]any, cg.ngroups*ns)
	slab := make([]CoGroupedSides, cg.ngroups)
	out := make([]Record, cg.ngroups)
	for _, g := range order {
		groups := headers[int(g)*ns : (int(g)+1)*ns : (int(g)+1)*ns]
		for s := range groups {
			groups[s] = cg.run(backing, ends, g, s)
		}
		slab[g] = CoGroupedSides{Groups: groups}
		out[g] = Record{Key: cg.key(g), Value: &slab[g]}
	}
	sc.release()
	return out
}

// SortedByKey returns the records in ascending key order, records with
// equal keys in input order, in a fresh slice; the input is not touched.
func SortedByKey(rs []Record) []Record {
	if len(rs) == 0 {
		return nil
	}
	sc := getScratch()
	es := sc.ent.Take(len(rs))
	for i := range rs {
		es[i] = keyEntry{prefix: keyPrefix(rs[i].Key), idx: int32(i)}
	}
	sortKeyEntries(es, func(i int32) string { return rs[i].Key })
	out := make([]Record, len(rs))
	for i, e := range es {
		out[i] = rs[e.idx]
	}
	sc.release()
	return out
}
