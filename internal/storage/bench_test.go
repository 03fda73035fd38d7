package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

// The shuffle round trip's shape: 8 map tasks of 10000 records each into 16
// reduce partitions.
const rwMaps, rwReduces, rwPerMap = 8, 16, 10000

func shuffleInput() [][]record.Record {
	mapData := make([][]record.Record, rwMaps)
	for m := range mapData {
		rs := make([]record.Record, rwPerMap)
		for i := range rs {
			rs[i] = record.Pair(fmt.Sprintf("key-%d-%05d", m, i), int64(i))
		}
		mapData[m] = rs
	}
	return mapData
}

// partitionByHash routes one map partition the way the engine's
// bucketMapOutput does — key hashes and routing index in scratch, then the
// one partition kernel — leaving every span priced at its raw size.
func partitionByHash(data []record.Record, p partition.Hash, scr *record.Scratch) *record.PartitionedBatch {
	idx := scr.I32.Take(len(data))
	for j, h := range record.HashKeys(data, scr) {
		idx[j] = int32(p.PartitionForHash(h))
	}
	return record.PartitionRows(data, idx, p.NumPartitions(), scr)
}

// shuffleRoundTrip runs the full store round trip on the production path:
// route each map output into a bucket-major permutation, key slab and summed
// spans, commit it with WriteMapOutputBatch (adopted, nothing copied), build
// the reduce-major index once over width workers (every bucket verified),
// then read every reduce partition back through ReadReduce (a view).
func shuffleRoundTrip(tb testing.TB, mapData [][]record.Record, reduces, width int, scr *record.Scratch) {
	p := partition.NewHash(reduces)
	s := NewStore()
	if err := s.RegisterShuffle(1, len(mapData), reduces); err != nil {
		tb.Fatal(err)
	}
	want := 0
	for m, data := range mapData {
		if err := s.WriteMapOutputBatch(1, m, partitionByHash(data, p, scr)); err != nil {
			tb.Fatal(err)
		}
		scr.Reset()
		want += len(data)
	}
	s.PrepareShuffleReads(width)
	got := 0
	for r := 0; r < reduces; r++ {
		rs, _, err := s.ReadReduce(1, r)
		if err != nil {
			tb.Fatal(err)
		}
		got += len(rs)
	}
	if got != want {
		tb.Fatalf("read %d records, want %d", got, want)
	}
}

// BenchmarkShuffleReadWrite measures shuffleRoundTrip at the fat shape;
// allocs/op is the headline number, held under a ceiling by
// TestShuffleReadWriteAllocs.
func BenchmarkShuffleReadWrite(b *testing.B) {
	mapData := shuffleInput()
	var scr record.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleRoundTrip(b, mapData, rwReduces, 1, &scr)
	}
}

// TestShuffleReadWriteAllocs is the allocation gate on the shuffle store at
// the fat shape. With a warm scratch arena (AllocsPerRun's warm-up call) a
// whole 8x16 round trip measures 38 allocations: the store and its shuffle
// table, four per partitioned batch (permutation, key slab, spans, header —
// the rows are the task's own, adopted), none per write, four for the index
// and its reduce-major transposition, none per read. The ceiling leaves
// ~25% headroom; the store that gathered a fresh slice per read over
// map-side key columns took 92, the boxed-bucket store before it 226, the
// per-record path before that 1512, so re-introducing per-record, per-bucket
// or per-read allocation fails here. Building the index over two workers
// costs three more (the range bounds, the join and the goroutine's closure),
// and its ceiling is three more.
func TestShuffleReadWriteAllocs(t *testing.T) {
	const ceiling = 50
	mapData := shuffleInput()
	var scr record.Scratch
	for width, ceiling := range map[int]float64{1: ceiling, 2: ceiling + 3} {
		got := testing.AllocsPerRun(5, func() { shuffleRoundTrip(t, mapData, rwReduces, width, &scr) })
		if got > ceiling {
			t.Errorf("shuffle write+read round trip, index built at width %d: %.0f allocs/op, ceiling %.0f", width, got, ceiling)
		}
	}
}

// The wide shape is the opposite regime (the partition-count sweep's, and
// bench/'s wide-shuffle): many map tasks of 64 records each routed over 8000
// reduce partitions, so nearly every bucket holds one record and the sparse
// partition path runs.
const wideMaps, wideReduces, widePerMap = 200, 8000, 64

func wideInput() [][]record.Record {
	rng := rand.New(rand.NewSource(1))
	mapData := make([][]record.Record, wideMaps)
	for m := range mapData {
		rs := make([]record.Record, widePerMap)
		for i := range rs {
			rs[i] = record.Pair(fmt.Sprintf("u%d", rng.Int63n(1<<40)), i)
		}
		mapData[m] = rs
	}
	return mapData
}

// BenchmarkShuffleWide is BenchmarkShuffleReadWrite at the wide shape.
func BenchmarkShuffleWide(b *testing.B) {
	mapData := wideInput()
	var scr record.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleRoundTrip(b, mapData, wideReduces, 1, &scr)
	}
}

// TestWideShuffleAllocs holds the four costs a wide shuffle multiplies by its
// task or read count. The partition kernel's escaping allocations are exactly
// the four pieces of its output it makes (the permutation, the key slab, the
// spans, the PartitionedBatch header; the rows are adopted) with every table
// in warm scratch; a write adopts them and allocates nothing whatever the
// span count (the boxed-bucket store took 46 at this shape); an index build
// with its transposition is four arrays whatever the shuffle holds
// (per-reduce starts, bytes and failed checks, rows; the per-partition
// fingerprints make five under STARK_CHECK_COW=1), and building it over two
// workers adds three (the range bounds, the join and the goroutine's
// closure); a read on a built index is a view and allocates nothing.
func TestWideShuffleAllocs(t *testing.T) {
	mapData := wideInput()
	p := partition.NewHash(wideReduces)
	var scr record.Scratch
	var pb *record.PartitionedBatch
	kernel := testing.AllocsPerRun(20, func() {
		pb = partitionByHash(mapData[0], p, &scr)
		scr.Reset()
	})
	if kernel > 4 {
		t.Errorf("partition kernel: %.0f allocs/op, want its 4 escaping outputs", kernel)
	}
	if len(pb.Spans) < widePerMap-2 {
		t.Fatalf("%d spans for %d rows: not the one-record-bucket shape", len(pb.Spans), widePerMap)
	}

	s := NewStore()
	if err := s.RegisterShuffle(1, wideMaps, wideReduces); err != nil {
		t.Fatal(err)
	}
	next := 0
	write := testing.AllocsPerRun(wideMaps-1, func() {
		if err := s.WriteMapOutputBatch(1, next, pb); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if write > 0 {
		t.Errorf("WriteMapOutputBatch: %.0f allocs/op, want 0", write)
	}
	if !s.ShuffleComplete(1) {
		t.Fatalf("%d writes left the shuffle incomplete", next)
	}
	buildCeiling := 4.0
	if record.CowCheckEnabled() {
		buildCeiling++
	}
	for width, ceiling := range map[int]float64{1: buildCeiling, 2: buildCeiling + 3} {
		rebuild := testing.AllocsPerRun(5, func() {
			// Two flips leave the rot word intact and the index stale.
			if !s.CorruptMapOutput(1, 0) || !s.CorruptMapOutput(1, 0) {
				t.Fatal("map output 0 missing")
			}
			s.PrepareShuffleReads(width)
		})
		if rebuild > ceiling {
			t.Errorf("index build over %d spans at width %d: %.0f allocs/op, ceiling %.0f", wideMaps*len(pb.Spans), width, rebuild, ceiling)
		}
	}
	read := testing.AllocsPerRun(5, func() {
		for _, sp := range pb.Spans {
			if rs, _, err := s.ReadReduce(1, int(sp.Part)); err != nil || len(rs) != wideMaps*int(sp.Hi-sp.Lo) {
				t.Fatalf("read %d: %d rows, %v", sp.Part, len(rs), err)
			}
		}
	})
	if read > 0 {
		t.Errorf("ReadReduce on a built index: %.0f allocs per %d reads, want 0", read, len(pb.Spans))
	}
}

// BenchmarkShuffleBuild measures the reduce-major index build alone, at
// widths 1 and 2, on two shapes: one side of bench/'s batch-join (16 map
// tasks of 25000 records into 16 reduce partitions, so every bucket is fat)
// and bench/'s wide-shuffle (8000 map tasks of 64 records into 8000, so
// nearly every bucket holds one record). Each iteration stales the index
// with two checksum flips, which cancel, and rebuilds it.
func BenchmarkShuffleBuild(b *testing.B) {
	for _, shape := range []struct {
		name                      string
		maps, reduces, perMap, nk int
	}{
		{"join", 16, 16, 25000, 1 << 20},
		{"wide", 8000, 8000, 64, 1 << 40},
	} {
		rng := rand.New(rand.NewSource(1))
		p := partition.NewHash(shape.reduces)
		s := NewStore()
		if err := s.RegisterShuffle(1, shape.maps, shape.reduces); err != nil {
			b.Fatal(err)
		}
		for m := 0; m < shape.maps; m++ {
			rs := make([]record.Record, shape.perMap)
			for i := range rs {
				rs[i] = record.Pair(fmt.Sprintf("u%d", rng.Int63n(int64(shape.nk))), i)
			}
			var scr record.Scratch
			if err := s.WriteMapOutputBatch(1, m, partitionByHash(rs, p, &scr)); err != nil {
				b.Fatal(err)
			}
		}
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/width=%d", shape.name, width), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.CorruptMapOutput(1, 0)
					s.CorruptMapOutput(1, 0)
					s.PrepareShuffleReads(width)
				}
			})
		}
	}
}
