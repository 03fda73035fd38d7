package record

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchData(n, keys int) []Record {
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = Pair(fmt.Sprintf("key-%05d", i%keys), int64(i))
	}
	return rs
}

func BenchmarkGroupByKey(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, keys := GroupByKey(data)
		for _, k := range keys {
			if len(m[k]) == 0 {
				b.Fatal("empty group")
			}
		}
	}
}

func BenchmarkGroupByKeySorted(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range GroupByKeySorted(data) {
			if len(g.Values) == 0 {
				b.Fatal("empty group")
			}
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	left := benchData(8000, 1200)
	right := benchData(8000, 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(JoinRecords(left, right)) == 0 {
			b.Fatal("empty join")
		}
	}
}

func BenchmarkFromRecords(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FromRecords(data).Len() != len(data) {
			b.Fatal("length mismatch")
		}
	}
}

func BenchmarkPartitionStable(b *testing.B) {
	data := benchData(20000, 20000)
	const parts = 64
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt := FromRecords(data)
		idx := scr.I32.Take(bt.Len())
		for j := range idx {
			idx[j] = int32(bt.Hash32(j) % parts)
		}
		if pb := bt.PartitionStable(idx, parts, &scr); len(pb.Spans) == 0 {
			b.Fatal("no spans")
		}
		scr.Reset()
	}
}

// wideMapTask is wide-shuffle's map task: 64 rows keyed "u<40-bit id>",
// hash-routed over 8000 partitions.
func wideMapTask() ([]Record, []int32) {
	const n, parts = 64, 8000
	rng := rand.New(rand.NewSource(1))
	rs := make([]Record, n)
	idx := make([]int32, n)
	for i := range rs {
		rs[i] = Pair(fmt.Sprintf("u%d", rng.Int63n(1<<40)), int64(i))
		idx[i] = int32(Hash32(rs[i].Key) % parts)
	}
	return rs, idx
}

func BenchmarkPartitionRowsWide(b *testing.B) {
	rs, idx := wideMapTask()
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pb := PartitionRows(rs, idx, 8000, &scr); len(pb.Spans) == 0 {
			b.Fatal("no spans")
		}
		scr.Reset()
	}
}

// BenchmarkKeySum64 sums one batch-join source chunk (25 000 rows keyed
// "j<id>", up to 7 bytes) and one wide-shuffle map task (64 rows keyed
// "u<40-bit id>", up to 14 bytes).
func BenchmarkKeySum64(b *testing.B) {
	join := make([]Record, 25000)
	rng := rand.New(rand.NewSource(1))
	for i := range join {
		join[i] = Pair(fmt.Sprintf("j%d", rng.Intn(400_000)), int64(i))
	}
	wide, _ := wideMapTask()
	for _, shape := range []struct {
		name string
		rs   []Record
	}{{"join", join}, {"wide", wide}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkSum += KeySum64(shape.rs)
			}
		})
	}
}

var sinkSum uint64

func BenchmarkFingerprint(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(data)
	}
}

func BenchmarkSizeOfSlice(b *testing.B) {
	data := benchData(20000, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SizeOfSlice(data)
	}
}

// TestKernelAllocCeilings is the allocation gate on the record kernels, at
// the shapes the benchmarks above use: sorted grouping measures ~5 allocs/op
// (the map-of-slices path it replaced took 7578), the join a handful for its
// ~53.3k output rows (one hash pass over both sides, one carved backing, the
// output and the slab of pairs its Joined values point into; it took one box
// per row before). The wide map task's partition kernel, with warm scratch,
// allocates exactly what escapes: the permutation, the span table and the
// header; its radix tables come from the scratch. A change that
// re-introduces per-record or per-group allocation fails here;
// TestCoGroupAllocCeilings holds the cogroup entry point the same way.
func TestKernelAllocCeilings(t *testing.T) {
	group := benchData(20000, 1500)
	left, right := benchData(8000, 1200), benchData(8000, 1200)
	wide, wideIdx := wideMapTask()
	var scr Scratch
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"GroupByKeySorted", 16, func() { GroupByKeySorted(group) }},
		{"JoinRecords", 16, func() { JoinRecords(left, right) }},
		{"PartitionRowsWide", 3, func() { PartitionRows(wide, wideIdx, 8000, &scr); scr.Reset() }},
	} {
		if got := testing.AllocsPerRun(5, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestReduceRecordsAllocCeilings holds ReduceRecords with a merge that
// allocates nothing to a constant: the output slice, plus on unsorted input
// the scratch arenas regrown after a GC emptied the pool. The ceiling is the
// same at 1k and 100k output rows, so no per-key or per-record cost hides in
// it.
func TestReduceRecordsAllocCeilings(t *testing.T) {
	const ceiling = 16
	keep := func(acc, _ any) any { return acc }
	for _, keys := range []int{1000, 100_000} {
		unsorted := benchData(4*keys, keys)
		sorted := SortedByKey(unsorted)
		for name, rs := range map[string][]Record{"sorted": sorted, "unsorted": unsorted} {
			if got := testing.AllocsPerRun(5, func() { ReduceRecords(rs, keep) }); got > ceiling {
				t.Errorf("%s, %d records over %d keys: %.0f allocs/op, ceiling %d at any key count", name, len(rs), keys, got, ceiling)
			}
		}
	}
}
