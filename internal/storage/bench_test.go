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
// one partition kernel — and prices every span at its raw size.
func partitionByHash(data []record.Record, p partition.Hash, scr *record.Scratch) *record.PartitionedBatch {
	hash := record.HashKeys(data, scr)
	idx := scr.I32.Take(len(data))
	for j, h := range hash {
		idx[j] = int32(p.PartitionForHash(h))
	}
	pb := record.PartitionRows(data, hash, idx, p.NumPartitions(), scr)
	for si := range pb.Spans {
		pb.Spans[si].Bytes = pb.Spans[si].RawBytes
	}
	return pb
}

// shuffleRoundTrip runs the full store round trip on the production path:
// partition each map output into a span-view batch, commit it with
// WriteMapOutputBatch (slab-range checksums), build the per-reduce index
// once, then read every reduce partition back through ReadReduce (slab-range
// verify, exact-size concat).
func shuffleRoundTrip(tb testing.TB, mapData [][]record.Record, reduces int, scr *record.Scratch) {
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
	s.PrepareShuffleReads()
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
		shuffleRoundTrip(b, mapData, rwReduces, &scr)
	}
}

// TestShuffleReadWriteAllocs is the allocation gate on the shuffle store at
// the fat shape. With a warm scratch arena (AllocsPerRun's warm-up call) a
// whole 8x16 round trip measures 92 allocations: the store and its shuffle
// table, eight per partitioned batch (rows, slab, three columns, spans, two
// headers), one checksum slice per write, two for the index, one exact-size
// concat per reduce. The ceiling leaves ~25% headroom; the boxed-bucket
// store this replaced took 226 with five more per map task for a routing
// batch, the per-record path before it 1512, so re-introducing per-record or
// per-bucket allocation fails here.
func TestShuffleReadWriteAllocs(t *testing.T) {
	const ceiling = 115
	mapData := shuffleInput()
	var scr record.Scratch
	got := testing.AllocsPerRun(5, func() { shuffleRoundTrip(t, mapData, rwReduces, &scr) })
	if got > ceiling {
		t.Fatalf("shuffle write+read round trip: %.0f allocs/op, ceiling %d", got, ceiling)
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
		shuffleRoundTrip(b, mapData, wideReduces, &scr)
	}
}

// TestWideShuffleAllocs holds the three costs a wide shuffle multiplies by
// its task count. The partition kernel's escaping allocations are exactly
// the eight pieces of its output (rows, key slab, offsets, hashes, sizes,
// spans, the Batch and PartitionedBatch headers) with every table in warm
// scratch; a write adds one checksum slice whatever the span count (the
// boxed-bucket store took 46 at this shape); an index rebuild is two slices
// whatever the shuffle holds.
func TestWideShuffleAllocs(t *testing.T) {
	mapData := wideInput()
	p := partition.NewHash(wideReduces)
	var scr record.Scratch
	var pb *record.PartitionedBatch
	kernel := testing.AllocsPerRun(20, func() {
		pb = partitionByHash(mapData[0], p, &scr)
		scr.Reset()
	})
	if kernel > 8 {
		t.Errorf("partition kernel: %.0f allocs/op, want its 8 escaping outputs", kernel)
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
	if write > 2 {
		t.Errorf("WriteMapOutputBatch: %.0f allocs/op, ceiling 2", write)
	}
	if !s.ShuffleComplete(1) {
		t.Fatalf("%d writes left the shuffle incomplete", next)
	}
	rebuild := testing.AllocsPerRun(5, func() {
		if !s.CorruptMapOutput(1, 0) {
			t.Fatal("map output 0 missing")
		}
		s.PrepareShuffleReads()
	})
	if rebuild > 2 {
		t.Errorf("index rebuild over %d spans: %.0f allocs/op, ceiling 2", wideMaps*len(pb.Spans), rebuild)
	}
}
