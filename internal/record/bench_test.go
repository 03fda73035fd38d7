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

// TestKernelAllocCeilings is the allocation gate on the two record kernels,
// at the shapes the benchmarks above use: sorted grouping measures ~5
// allocs/op (the map-of-slices path it replaced took 7578), the join ~53.6k
// (one Joined box per output row; the grouping under it is one hash pass
// over both sides and a handful of allocations). A change that re-introduces
// per-record or per-group allocation fails here; TestCoGroupAllocCeilings
// holds the cogroup entry point the same way.
func TestKernelAllocCeilings(t *testing.T) {
	group := benchData(20000, 1500)
	left, right := benchData(8000, 1200), benchData(8000, 1200)
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"GroupByKeySorted", 16, func() { GroupByKeySorted(group) }},
		{"JoinRecords", 56000, func() { JoinRecords(left, right) }},
	} {
		if got := testing.AllocsPerRun(5, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
