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

// joinPartition is one reduce partition of batch-join's join: 25 000 records
// a side, drawn at random from the keys "j<id>" (id < 400 000) that hash to
// partition 0 of 16, about 25 000 of them.
func joinPartition() (left, right []Record) {
	var keys []string
	for id := 0; id < 400_000; id++ {
		if k := fmt.Sprintf("j%d", id); Hash32(k)%16 == 0 {
			keys = append(keys, k)
		}
	}
	rng := rand.New(rand.NewSource(1))
	side := func() []Record {
		rs := make([]Record, 25_000)
		for i := range rs {
			rs[i] = Pair(keys[rng.Intn(len(keys))], int64(i))
		}
		return rs
	}
	return side(), side()
}

func BenchmarkJoinBatchShape(b *testing.B) {
	left, right := joinPartition()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(JoinRecords(left, right)) == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkJoinSharedPrefix joins keys that share their first 16 bytes, so
// no key differs from another within its first 8.
func BenchmarkJoinSharedPrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	side := func() []Record {
		rs := make([]Record, 8000)
		for i := range rs {
			rs[i] = Pair(fmt.Sprintf("tenant-0042/day-%d", rng.Intn(4000)), int64(i))
		}
		return rs
	}
	left, right := side(), side()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(JoinRecords(left, right)) == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkReduceRecordsHashPartition folds 20 000 unsorted records with
// distinct keys through the hash pass twice: keys that all hash-route to
// one partition of 16, as every key of one reduce partition does, and as
// many keys drawn without regard to their hash.
func BenchmarkReduceRecordsHashPartition(b *testing.B) {
	const n = 20_000
	var routed, plain []Record
	for id := 0; len(routed) < n; id++ {
		k := fmt.Sprintf("j%d", id)
		if Hash32(k)%16 == 0 {
			routed = append(routed, Pair(k, int64(id)))
		}
		if len(plain) < n {
			plain = append(plain, Pair(k, int64(id)))
		}
	}
	rng := rand.New(rand.NewSource(1))
	keep := func(acc, _ any) any { return acc }
	for _, shape := range []struct {
		name string
		rs   []Record
	}{{"partition", routed}, {"uncorrelated", plain}} {
		rng.Shuffle(n, func(i, j int) { shape.rs[i], shape.rs[j] = shape.rs[j], shape.rs[i] })
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(ReduceRecords(shape.rs, keep)) != n {
					b.Fatal("lost a key")
				}
			}
		})
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

// joinMapTask is one batch-join map task: 25 000 rows keyed "j<id>",
// hash-routed over 16 partitions, so every bucket is fat.
func joinMapTask() ([]Record, []int32) {
	const n, parts = 25_000, 16
	rng := rand.New(rand.NewSource(1))
	rs := make([]Record, n)
	idx := make([]int32, n)
	for i := range rs {
		rs[i] = Pair(fmt.Sprintf("j%d", rng.Intn(400_000)), int64(i))
		idx[i] = int32(Hash32(rs[i].Key) % parts)
	}
	return rs, idx
}

func BenchmarkPartitionRowsWide(b *testing.B) {
	rs, idx := wideMapTask()
	benchmarkPartitionRows(b, rs, idx, 8000)
}

func BenchmarkPartitionRowsJoin(b *testing.B) {
	rs, idx := joinMapTask()
	benchmarkPartitionRows(b, rs, idx, 16)
}

func benchmarkPartitionRows(b *testing.B, rs []Record, idx []int32, parts int) {
	var scr Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pb := PartitionRows(rs, idx, parts, &scr); len(pb.Spans) == 0 {
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
// (the map-of-slices path it replaced took 7578), and the join 2 at both its
// shapes, ~53.3k output rows from 1200 shared keys and batch-join's
// partition: the output and the slab of pairs its Joined values point into
// (it took one box per row before); its sort entries and radix buffer come
// from pooled scratch. The wide map task's partition kernel, with warm
// scratch, allocates exactly what escapes: the permutation, the key slab, the
// span table and the header; its radix tables come from the scratch. A change that
// re-introduces per-record or per-group allocation fails here;
// TestCoGroupAllocCeilings holds the cogroup entry point the same way.
func TestKernelAllocCeilings(t *testing.T) {
	group := benchData(20000, 1500)
	left, right := benchData(8000, 1200), benchData(8000, 1200)
	batchLeft, batchRight := joinPartition()
	wide, wideIdx := wideMapTask()
	var scr Scratch
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"GroupByKeySorted", 16, func() { GroupByKeySorted(group) }},
		{"JoinRecords", 16, func() { JoinRecords(left, right) }},
		{"JoinRecords batch shape", 4, func() { JoinRecords(batchLeft, batchRight) }},
		{"PartitionRowsWide", 4, func() { PartitionRows(wide, wideIdx, 8000, &scr); scr.Reset() }},
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

// BenchmarkSortKeyEntries times the radix sort against the comparison sort
// sortKeyEntries falls back to, at sizes around radixMin, on batch-join's
// "j<id>" keys.
func BenchmarkSortKeyEntries(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 64, 96, 128, 256} {
		rs := make([]Record, n)
		for i := range rs {
			rs[i] = Pair(fmt.Sprintf("j%d", rng.Intn(400_000)), int64(i))
		}
		kl := keyList{rs: rs}
		var sc groupScratch
		for _, sorter := range []struct {
			name string
			sort func([]keyEntry, keyShape)
		}{
			{"radix", func(es []keyEntry, ks keyShape) { radixSort(es, ks.buf) }},
			{"compare", func(es []keyEntry, ks keyShape) { compareSort(es, kl, ks.limit) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", sorter.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					es, _, ks := sc.entries(kl, keyList{})
					sorter.sort(es, ks)
					sc.ent.Reset()
				}
			})
		}
	}
}
