package record

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"stark/internal/arena"
)

// groupScratch is the per-call transient state of the co-group kernel: the
// open-addressing hash table, the per-record and per-group index columns and
// the sort entries with their radix buffer, all pointer-free and carved from
// arenas so a steady-state pass allocates only its escaping outputs.
type groupScratch struct {
	i32 arena.Pool[int32]
	u64 arena.Pool[uint64]
	ent arena.Pool[keyEntry]

	// vals is a filtered co-group's carve and view the value of the record
	// its keep predicate sees, view.Groups pointing into vals. Both hold the
	// caller's values, so the kernel clears them before release.
	vals []any
	view CoGroupedSides
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

func getScratch() *groupScratch { return groupScratchPool.Get().(*groupScratch) }

func (sc *groupScratch) release() {
	sc.i32.Reset()
	sc.u64.Reset()
	sc.ent.Reset()
	groupScratchPool.Put(sc)
}

// keyEntry stands for one key in a sort: 8 of the key's bytes as a
// big-endian integer (zero-padded, so integer order never contradicts string
// order), the index of the key in its keyList and the key's length. Sorting
// these moves 16 pointer-free bytes per entry and reads a key only to refine
// a run of equal prefixes that holds keys longer than the prefix.
type keyEntry struct {
	prefix uint64
	idx    int32
	klen   int32
}

// keyPrefix returns k's first 8 bytes as a big-endian integer, zero-padded.
func keyPrefix(k string) uint64 {
	if len(k) >= 8 {
		return uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
			uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
	}
	var p uint64
	shift := uint(56) // where the next byte's low bit goes
	if len(k) >= 4 {
		p = uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32
		k, shift = k[4:], 24
	}
	if len(k) >= 2 {
		p |= (uint64(k[0])<<8 | uint64(k[1])) << (shift - 8)
		k, shift = k[2:], shift-16
	}
	if len(k) == 1 {
		p |= uint64(k[0]) << shift
	}
	return p
}

// keyList is the keys a sort orders: key i is rs[i].Key, or rs[at[i]].Key
// when at is set.
type keyList struct {
	rs []Record
	at []int32
}

func (kl keyList) len() int {
	if kl.at != nil {
		return len(kl.at)
	}
	return len(kl.rs)
}

func (kl keyList) key(i int32) string {
	if kl.at != nil {
		i = kl.at[i]
	}
	return kl.rs[i].Key
}

// keyShape is what sorting the entries needs besides them: what building
// them learned about their keys, and the radix buffer. Their prefixes start
// past the bytes every key shares, so limit is that count plus 8: a key no
// longer than limit ends inside its prefix. exact reports that every key
// does and none ends in a zero byte, so equal prefixes mean equal keys.
type keyShape struct {
	limit int32
	exact bool
	buf   []keyEntry // as long as the longer list
}

// entries builds the sort entries of a's keys and b's (b may be empty) with
// one shared skip, so entries of the two lists compare. One pass derives
// every prefix from byte 0 and notes how the prefixes differ; only when some
// key is longer than 8 bytes do the keys' shared leading bytes matter, and
// then the prefixes are derived again past them. So short keys pay one pass,
// and keys that share their first 8 bytes, like "tenant-0042/day-17", do not
// tie on every prefix. The entries and the radix buffer are one arena take,
// so a scratch the pool had to make anew grows once.
func (sc *groupScratch) entries(a, b keyList) (ea, eb []keyEntry, ks keyShape) {
	na, nb := a.len(), b.len()
	all := sc.ent.Take(na + nb + max(na, nb))
	ea, eb, buf := all[:na:na], all[na:na+nb:na+nb], all[na+nb:]
	first := a.key(0)
	f := keyPrefix(first)
	var diff uint64
	minLen, maxLen, nulEnd := len(first), 0, false
	for _, side := range [2]struct {
		es []keyEntry
		kl keyList
	}{{ea, a}, {eb, b}} {
		for i := range side.es {
			k := side.kl.key(int32(i))
			p := keyPrefix(k)
			side.es[i] = keyEntry{prefix: p, idx: int32(i), klen: int32(len(k))}
			diff |= p ^ f
			minLen, maxLen = min(minLen, len(k)), max(maxLen, len(k))
			if len(k) > 0 && k[len(k)-1] == 0 {
				nulEnd = true
			}
		}
	}
	skip := 0
	if maxLen > 8 {
		skip = min(bits.LeadingZeros64(diff)/8, minLen)
		if skip == 8 { // every key starts with first's 8 bytes: find how many more they share
			skip = minLen
			for _, side := range [2]keyList{a, b} {
				for i := 0; i < side.len() && skip > 8; i++ {
					if k := side.key(int32(i)); k[:skip] != first[:skip] {
						skip = 8
						for k[skip] == first[skip] {
							skip++
						}
					}
				}
			}
		}
		if skip > 0 {
			rebase(ea, a, skip)
			rebase(eb, b, skip)
		}
	}
	return ea, eb, keyShape{limit: int32(skip + 8), exact: maxLen <= skip+8 && !nulEnd, buf: buf}
}

// rebase re-derives each entry's prefix from byte off of its key.
func rebase(es []keyEntry, kl keyList, off int) {
	for i := range es {
		k := kl.key(es[i].idx)
		es[i].prefix = keyPrefix(k[min(off, len(k)):])
	}
}

// cmpTied compares the keys a (of list ka) and b (of list kb) stand for,
// given equal prefixes. Those mean the keys agree up to limit, so a key that
// ends there orders by length; only two longer keys are read.
func cmpTied(a keyEntry, ka keyList, b keyEntry, kb keyList, limit int32) int {
	if min(a.klen, b.klen) <= limit {
		return cmp.Compare(a.klen, b.klen)
	}
	return strings.Compare(ka.key(a.idx), kb.key(b.idx))
}

// sameKey reports whether a and b, entries of one list, stand for the same
// key.
func sameKey(a, b keyEntry, kl keyList, limit int32) bool {
	return a.prefix == b.prefix && a.klen == b.klen && (a.klen <= limit || kl.key(a.idx) == kl.key(b.idx))
}

// radixMin is the entry count below which a sort compares instead of
// counting: BenchmarkSortKeyEntries' crossover.
const radixMin = 96

// sortKeyEntries orders es, built by entries over kl, by the keys they stand
// for, ascending; entries with equal keys keep ascending idx, so the sort is
// stable. It is an LSD radix sort over the prefix bytes that vary, then a
// refinement of the runs of equal prefixes when ks says a prefix can stand
// for more than one key.
func sortKeyEntries(es []keyEntry, kl keyList, ks keyShape) {
	if len(es) < radixMin {
		compareSort(es, kl, ks.limit)
		return
	}
	radixSort(es, ks.buf[:len(es)])
	if !ks.exact {
		refine(es, kl, ks.limit)
	}
}

// compareSort orders es like sortKeyEntries, by comparison: a handful of
// entries, or a run refine cannot order by length. Their prefixes are the
// keys' bytes below limit.
func compareSort(es []keyEntry, kl keyList, limit int32) {
	slices.SortFunc(es, func(a, b keyEntry) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := cmpTied(a, kl, b, kl, limit); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// radixSort stably orders es by prefix with one counting pass per byte that
// varies across them, least significant first, through tmp.
func radixSort(es, tmp []keyEntry) {
	and, or := ^uint64(0), uint64(0)
	for i := range es {
		and &= es[i].prefix
		or |= es[i].prefix
	}
	vary := and ^ or
	src, dst := es, tmp
	for shift := uint(0); shift < 64; shift += 8 {
		if vary>>shift&0xff == 0 {
			continue
		}
		var starts [257]int32
		for i := range src {
			starts[src[i].prefix>>shift&0xff+1]++
		}
		for d := 1; d < 256; d++ {
			starts[d] += starts[d-1]
		}
		for i := range src {
			d := src[i].prefix >> shift & 0xff
			dst[starts[d]] = src[i]
			starts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

// refine orders every run of equal prefixes in es, whose prefixes are the
// keys' bytes below limit. A run whose keys all end by limit and already
// ascend by length is in order: a shorter key is then a zero-padded prefix
// of a longer one ("ab" < "ab\x00"), and equal lengths are equal keys,
// already in idx order. Any other run is compared.
func refine(es []keyEntry, kl keyList, limit int32) {
	for lo := 0; lo < len(es); {
		hi, byLen := lo+1, true
		for ; hi < len(es) && es[hi].prefix == es[lo].prefix; hi++ {
			byLen = byLen && es[hi].klen >= es[hi-1].klen && es[hi].klen <= limit
		}
		if !byLen {
			compareSort(es[lo:hi], kl, limit)
		}
		lo = hi
	}
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

// group runs the hash pass. Keys are hashed once, a word at a time by
// KeySum64's fold (any hash serves: the output is in first-seen order), into
// a table whose slots hold hash and group id together, so a probe touches a
// record only when the full hash matches. A key's home slot folds the
// hash's high half into its low half, so a small table reads all its bits.
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
			m := mixKey(sumSeed, key)
			h := uint32(m ^ m>>32)
			slot := uint64(h^h>>16) & mask
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

// sortedIDs returns every group id in ascending key order. The grouping
// must have one side, whose records first indexes.
func (cg *coGrouping) sortedIDs() []int32 {
	kl := keyList{rs: cg.sides[0], at: cg.first[:cg.ngroups]}
	es, _, ks := cg.sc.entries(kl, keyList{})
	sortKeyEntries(es, kl, ks)
	ids := cg.sc.i32.Take(cg.ngroups)
	for i := range es {
		ids[i] = es[i].idx
	}
	return ids
}

// carve copies every group's values into backing, which must hold every
// record of the sides — groups in the given order, a permutation of the
// group ids; a group's sides in side order; a side's values in input order
// — and returns, per (group, side), the end of that run.
func (cg *coGrouping) carve(order []int32, backing []any) (ends []int32) {
	ns := len(cg.sides)
	pos := cg.sc.i32.Take(cg.ngroups * ns)
	off := int32(0)
	for _, g := range order {
		for k := int(g) * ns; k < (int(g)+1)*ns; k++ {
			pos[k] = off
			off += cg.counts[k]
		}
	}
	i := 0
	for s, side := range cg.sides {
		for j := range side {
			p := &pos[int(cg.gidOf[i])*ns+s]
			backing[*p] = side[j].Value
			*p++
			i++
		}
	}
	return pos
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
	order := cg.sortedIDs()
	backing := make([]any, len(rs))
	ends := cg.carve(order, backing)
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
	order := cg.sortedIDs()
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
// Joined pairs, keys ascending, left then right values in input order. It
// is a sort-merge join: each side's keys are radix-sorted as pointer-free
// entries in scratch, the two sorted runs are merged, and every matched
// key's pairs are read straight from the input rows. So the allocations are
// the exact-size output slice and one slab of pairs the Joined values point
// into.
//
//starklint:hotpath
func JoinRecords(left, right []Record) []Record {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	sc := getScratch()
	lk, rk := keyList{rs: left}, keyList{rs: right}
	le, re, ks := sc.entries(lk, rk)
	sortKeyEntries(le, lk, ks)
	sortKeyEntries(re, rk, ks)
	// Each matched key leaves its run on both sides: [lo, hi) of le, then of re.
	runs := sc.i32.Take(4 * min(len(le), len(re)))
	m, total := 0, 0
	for i, j := 0, 0; i < len(le) && j < len(re); {
		c := cmp.Compare(le[i].prefix, re[j].prefix)
		if c == 0 {
			c = cmpTied(le[i], lk, re[j], rk, ks.limit)
		}
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i2, j2 := i+1, j+1
			for i2 < len(le) && sameKey(le[i2], le[i], lk, ks.limit) {
				i2++
			}
			for j2 < len(re) && sameKey(re[j2], re[j], rk, ks.limit) {
				j2++
			}
			runs[m], runs[m+1], runs[m+2], runs[m+3] = int32(i), int32(i2), int32(j), int32(j2)
			m += 4
			total += (i2 - i) * (j2 - j)
			i, j = i2, j2
		}
	}
	if total == 0 {
		sc.release()
		return nil
	}
	pairs := make([]JoinedPair, total)
	out := make([]Record, total)
	k := 0
	for r := 0; r < m; r += 4 {
		lefts, rights := le[runs[r]:runs[r+1]], re[runs[r+2]:runs[r+3]]
		// The first left value's pairs read the right rows; the others copy
		// the right values from those pairs, which are still in cache.
		first := pairs[k : k+len(rights)]
		for x, e := range rights {
			first[x].Right = right[e.idx].Value
		}
		key := left[lefts[0].idx].Key
		for _, l := range lefts {
			lv := left[l.idx].Value
			for x := range first {
				pairs[k] = JoinedPair{Left: lv, Right: first[x].Right}
				out[k] = Record{Key: key, Value: &pairs[k]}
				k++
			}
		}
	}
	sc.release()
	return out
}

// CoGroupRecords groups the sides' values by key into CoGrouped values, one
// record per distinct key in first-seen order (sides in order, records in
// order); Groups[s] holds side s's values in input order and is nil when the
// side lacks the key. A nil keep keeps every group; otherwise the output
// holds only the groups keep accepts, in the same order, as if the full
// output had been filtered by it. When measure is set, raw is SizeOfSlice of
// the full, unfiltered output.
//
// Every group escapes when keep is nil, so the values are carved straight
// into the output's backing array. Otherwise they are carved into pooled
// scratch first, and keep runs once per group, in output order, on a record
// whose value views that scratch: keep must not retain it (under
// STARK_CHECK_COW=1 the view is poisoned after every call). Only then is the
// output allocated. Either way it is one backing array for the value runs,
// one for their Groups headers, one slab the CoGrouped values point into and
// the records, so a call allocates the same handful of objects whatever its
// key count, and none when keep accepts no group (it returns nil then).
//
//starklint:hotpath
func CoGroupRecords(sides [][]Record, keep func(Record) bool, measure bool) (out []Record, raw int64) {
	sc := getScratch()
	cg := sc.group(sides)
	if measure {
		raw = cg.rawSize()
	}
	ids := cg.ids()
	n := len(cg.gidOf)
	if keep == nil {
		backing := make([]any, n)
		out = cg.build(ids, backing, cg.carve(ids, backing), nil)
	} else {
		if cap(sc.vals) < n {
			sc.vals = make([]any, max(n, 2*cap(sc.vals)))
		}
		carved := sc.vals[:n]
		ends := cg.carve(ids, carved)
		if kept, nvals := cg.choose(carved, ends, keep); len(kept) > 0 {
			out = cg.build(kept, make([]any, nvals), ends, carved)
		}
		sc.dropValues(carved)
	}
	sc.release()
	return out, raw
}

// rawSize is SizeOfSlice of the co-group's full output, summed from the
// grouping without building it: per group a record with its key and a
// CoGrouped of len(sides) value runs, plus every value once.
func (cg *coGrouping) rawSize() int64 {
	ns := int64(len(cg.sides))
	s := int64(sliceOverhead)
	for g := int32(0); g < int32(cg.ngroups); g++ {
		s += recordOverhead + stringOverhead + int64(len(cg.key(g))) + (1+ns)*sliceOverhead
	}
	for _, side := range cg.sides {
		for j := range side {
			s += 8 + SizeOf(side[j].Value)
		}
	}
	return s
}

// groupSpan returns where group g's values lie in a carve in id order: its
// sides' runs back to back.
func (cg *coGrouping) groupSpan(ends []int32, g int32) (lo, hi int32) {
	ns := len(cg.sides)
	k := int(g) * ns
	return ends[k] - cg.counts[k], ends[k+ns-1]
}

// choose runs keep on every group of a carve in id order and returns the
// ids of the groups it accepts, ascending, with their value count. The
// record keep sees views the carve through sc.view; under STARK_CHECK_COW=1
// its runs are replaced by poisonRun when keep returns.
func (cg *coGrouping) choose(backing []any, ends []int32, keep func(Record) bool) (kept []int32, nvals int) {
	sc := cg.sc
	ns := len(cg.sides)
	hdr := sc.view.Groups
	if cap(hdr) < ns {
		hdr = make([][]any, ns)
	}
	hdr = hdr[:ns]
	sc.view.Groups = hdr
	cow := CowCheckEnabled()
	kept = sc.i32.Take(cg.ngroups)
	m := 0
	for g := int32(0); g < int32(cg.ngroups); g++ {
		for s := range hdr {
			hdr[s] = cg.run(backing, ends, g, s)
		}
		ok := keep(Record{Key: cg.key(g), Value: &sc.view})
		if cow {
			for s := range hdr {
				hdr[s] = poisonRun
			}
		}
		if ok {
			kept[m] = g
			m++
			lo, hi := cg.groupSpan(ends, g)
			nvals += int(hi - lo)
		}
	}
	return kept[:m], nvals
}

// build returns the output of the kept groups (ascending ids) of a carve
// in id order, their value runs in backing: the carve itself, or, when
// carved is set, a backing sized for the kept groups' values, which build
// moves there from carved.
func (cg *coGrouping) build(kept []int32, backing []any, ends []int32, carved []any) []Record {
	ns := len(cg.sides)
	headers := make([][]any, len(kept)*ns)
	slab := make([]CoGroupedSides, len(kept))
	out := make([]Record, len(kept))
	off := int32(0)
	for i, g := range kept {
		if carved != nil {
			lo, hi := cg.groupSpan(ends, g)
			copy(backing[off:], carved[lo:hi])
			for k := int(g) * ns; k < (int(g)+1)*ns; k++ {
				ends[k] += off - lo // the run now ends there in backing
			}
			off += hi - lo
		}
		groups := headers[i*ns : (i+1)*ns : (i+1)*ns]
		for s := range groups {
			groups[s] = cg.run(backing, ends, g, s)
		}
		slab[i] = CoGroupedSides{Groups: groups}
		out[i] = Record{Key: cg.key(g), Value: &slab[i]}
	}
	return out
}

// cowPoisoned is what a keep predicate's view holds once keep has returned,
// under STARK_CHECK_COW=1: a predicate that kept its argument reads it.
type cowPoisoned struct{}

func (cowPoisoned) String() string {
	return "record: co-group view read after its keep predicate returned"
}

var poisonRun = []any{cowPoisoned{}}

// dropValues clears the carve and the view's headers, so the pooled scratch
// pins none of the caller's values; under STARK_CHECK_COW=1 the carve is
// poisoned instead, so a run keep retained reads poisonRun's value too.
func (sc *groupScratch) dropValues(carved []any) {
	if CowCheckEnabled() {
		for i := range carved {
			carved[i] = poisonRun[0]
		}
		return // choose left the view's headers on poisonRun
	}
	clear(carved)
	clear(sc.view.Groups)
}

// SortedByKey returns the records in ascending key order, records with
// equal keys in input order, in a fresh slice; the input is not touched.
func SortedByKey(rs []Record) []Record {
	if len(rs) == 0 {
		return nil
	}
	sc := getScratch()
	kl := keyList{rs: rs}
	es, _, ks := sc.entries(kl, keyList{})
	sortKeyEntries(es, kl, ks)
	out := make([]Record, len(rs))
	for i, e := range es {
		out[i] = rs[e.idx]
	}
	sc.release()
	return out
}
