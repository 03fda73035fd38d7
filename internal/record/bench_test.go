package record

import (
	"fmt"
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
// per row before). A change that re-introduces per-record or per-group
// allocation fails here; TestCoGroupAllocCeilings holds the cogroup entry
// point the same way.
func TestKernelAllocCeilings(t *testing.T) {
	group := benchData(20000, 1500)
	left, right := benchData(8000, 1200), benchData(8000, 1200)
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"GroupByKeySorted", 16, func() { GroupByKeySorted(group) }},
		{"JoinRecords", 16, func() { JoinRecords(left, right) }},
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
