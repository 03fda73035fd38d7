package storage

import (
	"fmt"
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

// shuffleRoundTrip runs the full store round trip on the production path:
// partition each map output into a span-view batch, commit it with
// WriteMapOutputBatch (slab-range checksums), then read every reduce
// partition back through ReadReduce (slab-range verify, exact-size concat).
func shuffleRoundTrip(tb testing.TB, mapData [][]record.Record, scr *record.Scratch) {
	p := partition.NewHash(rwReduces)
	s := NewStore()
	if err := s.RegisterShuffle(1, rwMaps, rwReduces); err != nil {
		tb.Fatal(err)
	}
	for m, data := range mapData {
		bt := record.FromRecords(data)
		idx := scr.I32.Take(bt.Len())
		for j := range idx {
			idx[j] = int32(p.PartitionForHash(bt.Hash32(j)))
		}
		pb := bt.PartitionStable(idx, rwReduces, scr)
		for si := range pb.Spans {
			pb.Spans[si].Bytes = pb.Spans[si].RawBytes
		}
		if err := s.WriteMapOutputBatch(1, m, pb); err != nil {
			tb.Fatal(err)
		}
		scr.Reset()
	}
	s.PrepareShuffleReads()
	got := 0
	for r := 0; r < rwReduces; r++ {
		rs, _, err := s.ReadReduce(1, r)
		if err != nil {
			tb.Fatal(err)
		}
		got += len(rs)
	}
	if got != rwMaps*rwPerMap {
		tb.Fatalf("read %d records, want %d", got, rwMaps*rwPerMap)
	}
}

// BenchmarkShuffleReadWrite measures shuffleRoundTrip; allocs/op is the
// headline number, held under a ceiling by TestShuffleReadWriteAllocs.
func BenchmarkShuffleReadWrite(b *testing.B) {
	mapData := shuffleInput()
	var scr record.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleRoundTrip(b, mapData, &scr)
	}
}

// TestShuffleReadWriteAllocs is the allocation gate on the shuffle store.
// With a warm scratch arena (AllocsPerRun's warm-up call) a whole 8x16 round
// trip through the store measures 226 allocations: the batches, one bucket
// map per map task, the per-reduce index's append growth, one exact-size
// concat per reduce. The ceiling leaves ~25% headroom; the per-record path
// this replaced took 1512, so re-introducing per-record or per-bucket
// allocation fails here.
func TestShuffleReadWriteAllocs(t *testing.T) {
	const ceiling = 280
	mapData := shuffleInput()
	var scr record.Scratch
	got := testing.AllocsPerRun(5, func() { shuffleRoundTrip(t, mapData, &scr) })
	if got > ceiling {
		t.Fatalf("shuffle write+read round trip: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}
