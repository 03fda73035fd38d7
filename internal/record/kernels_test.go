package record_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stark/internal/record"
)

// The co-group kernel is checked against naive references that share no code
// with it: record.GroupByKey (map of slices, sort.Strings), the map-based
// record.CoGroupNaive, a join built from the two, and sort.SliceStable.
// Equality is exact — keys, key order, value order, nil for an absent side.

func naiveJoin(left, right []record.Record) []record.Record {
	lm, lkeys := record.GroupByKey(left)
	rm, _ := record.GroupByKey(right)
	var want []record.Record
	for _, k := range lkeys {
		for _, lv := range lm[k] {
			for _, rv := range rm[k] {
				want = append(want, record.Record{Key: k, Value: &record.JoinedPair{Left: lv, Right: rv}})
			}
		}
	}
	return want
}

// checkKernels holds every entry point of the kernel to its reference on the
// given sides: CoGroupRecords over all of them, JoinRecords over each
// adjacent pair, GroupByKeySorted and SortedByKey over each side.
func checkKernels(t *testing.T, sides [][]record.Record) {
	t.Helper()
	snapshot := make([][]record.Record, len(sides))
	for s := range sides {
		snapshot[s] = append([]record.Record(nil), sides[s]...)
	}

	got, want := record.CoGroupRecords(sides), record.CoGroupNaive(sides)
	if len(got) != len(want) {
		t.Fatalf("cogroup: %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("cogroup: record %d = %#v, want %#v", i, got[i], want[i])
		}
	}

	for s := 0; s+1 < len(sides); s++ {
		got, want := record.JoinRecords(sides[s], sides[s+1]), naiveJoin(sides[s], sides[s+1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("join of sides %d,%d: got %d records %v, want %d %v", s, s+1, len(got), got, len(want), want)
		}
	}

	for s, side := range sides {
		groups := record.GroupByKeySorted(side)
		m, keys := record.GroupByKey(side)
		if len(groups) != len(keys) {
			t.Fatalf("side %d: %d groups, want %d", s, len(groups), len(keys))
		}
		for i, k := range keys {
			if groups[i].Key != k || !reflect.DeepEqual(groups[i].Values, m[k]) {
				t.Fatalf("side %d: group %d = %q %v, want %q %v", s, i, groups[i].Key, groups[i].Values, k, m[k])
			}
			if cap(groups[i].Values) != len(groups[i].Values) {
				t.Fatalf("side %d: group %q can be appended into its neighbour", s, k)
			}
		}

		sorted := record.SortedByKey(side)
		ref := append([]record.Record(nil), side...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Key < ref[j].Key })
		if len(sorted) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(sorted, ref)) {
			t.Fatalf("side %d: SortedByKey = %v, want %v", s, sorted, ref)
		}
	}

	for s := range sides {
		if len(sides[s]) != len(snapshot[s]) || (len(sides[s]) > 0 && !reflect.DeepEqual(sides[s], snapshot[s])) {
			t.Fatalf("a kernel mutated side %d", s)
		}
	}
}

// kernelKeys are the key populations the sort and the table must get right:
// shorter than the 8-byte prefix, sharing it, differing only past it or only
// by trailing zero bytes, and carrying the extreme bytes.
var kernelKeys = [][]string{
	{"", "a", "b", "ab", "abc", "b0", "zzzzzzz"},
	{"prefix__", "prefix__a", "prefix__b", "prefix__ab", "prefix_", "prefix__\x00", "prefix__\xff"},
	{"ab", "ab\x00", "ab\x00\x00", "ab\x00\x00\x00\x00\x00\x00", "ab\x00\x00\x00\x00\x00\x00\x00", "ab\x01"},
	{"\x00", "\x00\x00", "\xff", "\xff\xff", "\xff\x00", "\x00\xff", "k\xffz", "k\x00z"},
}

func genSide(rng *rand.Rand, side int) []record.Record {
	var n int
	switch rng.Intn(5) {
	case 0:
		n = 0
	case 1:
		n = 1
	case 2:
		n = 1 + rng.Intn(8)
	default:
		n = rng.Intn(400)
	}
	var keys []string
	if pop := rng.Intn(len(kernelKeys) + 2); pop < len(kernelKeys) {
		keys = kernelKeys[pop]
	} else {
		// Numbered keys: a handful (heavy duplication) or about one per record.
		space := 1 + rng.Intn(12)
		if pop == len(kernelKeys) {
			space = 1 + rng.Intn(2*n+1)
		}
		width := []int{1, 3, 9, 12}[rng.Intn(4)]
		for k := 0; k < space; k++ {
			keys = append(keys, fmt.Sprintf("%0*d", width, k))
		}
	}
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{Key: keys[rng.Intn(len(keys))], Value: side*1_000_000 + i}
	}
	switch rng.Intn(5) {
	case 0: // already sorted
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Key < rs[j].Key })
	case 1: // reverse sorted
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Key > rs[j].Key })
	case 2: // nearly sorted
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Key < rs[j].Key })
		for k := 0; k < 1+n/50 && n > 1; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			rs[i], rs[j] = rs[j], rs[i]
		}
	}
	return rs
}

func TestCoGroupKernelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			sides := make([][]record.Record, 1+rng.Intn(4))
			allEmpty := rng.Intn(10) == 0
			for s := range sides {
				if !allEmpty {
					sides[s] = genSide(rng, s)
				}
			}
			checkKernels(t, sides)
			if t.Failed() {
				t.Fatalf("seed %d trial %d", seed, trial)
			}
		}
	}
}

// FuzzCoGroupKernel decodes arbitrary bytes into 1–4 sides and holds the
// kernel to the references. Byte 0 picks the side count; after it every
// record is a header byte (side, key length 0–15) followed by the key bytes.
func FuzzCoGroupKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x10, 'a', 0x10, 'a', 0x00})
	f.Add([]byte{3, 0x21, 'a', 'b', 0x31, 'a', 'b', 0, 0x22, 'a', 'b', 0x90, 'p', 'r', 'e', 'f', 'i', 'x', '_', '_', 'x'})
	f.Add([]byte{2, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 0x81, 1, 2, 3, 4, 5, 6, 7, 8, 0x90, 1, 2, 3, 4, 5, 6, 7, 8, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkKernels(t, [][]record.Record{nil})
			return
		}
		sides := make([][]record.Record, 1+int(data[0])%4)
		data = data[1:]
		for i := 0; len(data) > 0; i++ {
			s, klen := int(data[0]&0x0f)%len(sides), int(data[0]>>4)
			data = data[1:]
			if klen > len(data) {
				klen = len(data)
			}
			sides[s] = append(sides[s], record.Record{Key: string(data[:klen]), Value: i})
			data = data[klen:]
		}
		checkKernels(t, sides)
	})
}

// reduceReference is the grouping-then-fold ReduceRecords replaced: group by
// key, then fold each group's values in order, the first the accumulator.
func reduceReference(rs []record.Record, merge func(acc, v any) any) []record.Record {
	groups := record.GroupByKeySorted(rs)
	out := make([]record.Record, 0, len(groups))
	for _, g := range groups {
		acc := g.Values[0]
		for _, v := range g.Values[1:] {
			acc = merge(acc, v)
		}
		out = append(out, record.Record{Key: g.Key, Value: acc})
	}
	return out
}

// TestReduceRecordsMatchesReference holds ReduceRecords to reduceReference
// with a non-commutative merge, so a fold out of input order shows, on
// sorted and unsorted inputs of every key population genSide draws plus the
// edge shapes named below. Equality is exact, including the non-nil empty
// result of an empty input.
func TestReduceRecordsMatchesReference(t *testing.T) {
	concat := func(acc, v any) any { return acc.(string) + "+" + v.(string) }
	check := func(name string, rs []record.Record) {
		t.Helper()
		snapshot := append([]record.Record(nil), rs...)
		got, want := record.ReduceRecords(rs, concat), reduceReference(rs, concat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ReduceRecords = %v, want %v", name, got, want)
		}
		if len(rs) > 0 && !reflect.DeepEqual(rs, snapshot) {
			t.Fatalf("%s: ReduceRecords wrote into its input", name)
		}
	}
	recs := func(keys ...string) []record.Record {
		rs := make([]record.Record, len(keys))
		for i, k := range keys {
			rs[i] = record.Record{Key: k, Value: fmt.Sprint(i)}
		}
		return rs
	}
	check("empty", nil)
	check("empty non-nil", []record.Record{})
	check("one record", recs("k"))
	check("single key", recs("k", "k", "k", "k"))
	check("all distinct, sorted", recs("a", "b", "c", "d"))
	check("all distinct, unsorted", recs("d", "b", "a", "c"))
	check("sorted runs", recs("a", "a", "b", "c", "c", "c"))
	check("unsorted", recs("c", "a", "c", "b", "a", "c"))
	check("prefix ties, sorted", recs("prefix__a", "prefix__a", "prefix__b", "prefix__b\x00", "prefix__c"))
	check("prefix ties, unsorted", recs("prefix__b", "prefix__a", "prefix__b\x00", "prefix__a", "prefix__b", "prefix__"))

	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			rs := genSide(rng, 0)
			for i := range rs {
				rs[i].Value = fmt.Sprint(rs[i].Value)
			}
			check(fmt.Sprintf("seed %d trial %d", seed, trial), rs)
		}
	}
}

// TestCoGroupAllocCeilings gates what the kernel removed from cogroup: the
// per-key &CoGrouped, make([][]any, n) and append-growth allocations, and
// the per-key box the values took before they pointed into one slab. The
// constant covers the output slice, the two backing arrays, the slab and a
// scratch arena regrown after a GC emptied the pool, at any key count.
func TestCoGroupAllocCeilings(t *testing.T) {
	mk := func(sides, perSide, keys int) [][]record.Record {
		out := make([][]record.Record, sides)
		for s := range out {
			for i := 0; i < perSide; i++ {
				out[s] = append(out[s], record.Record{Key: fmt.Sprintf("key-%05d", (i*7+s)%keys), Value: int64(i)})
			}
		}
		return out
	}
	const ceiling = 16
	for _, shape := range []struct{ perSide, keys int }{{6000, 1500}, {100_000, 100_000}} {
		big := mk(3, shape.perSide, shape.keys)
		if got := testing.AllocsPerRun(5, func() { record.CoGroupRecords(big) }); got > ceiling {
			t.Errorf("3x%d records over %d keys: %.0f allocs/op, ceiling %d at any key count", shape.perSide, shape.keys, got, ceiling)
		}
	}
	// The taxi-window shape: a handful of records a side. The arenas and the
	// pool must not cost a tiny call more than the map cost it.
	tiny := mk(4, 8, 12)
	kernel := testing.AllocsPerRun(50, func() { record.CoGroupRecords(tiny) })
	naive := testing.AllocsPerRun(50, func() { record.CoGroupNaive(tiny) })
	if kernel > naive {
		t.Errorf("4x8 records: kernel %.0f allocs/op, the map version %.0f", kernel, naive)
	}
}
