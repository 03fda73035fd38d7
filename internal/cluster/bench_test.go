package cluster

import (
	"strconv"
	"testing"

	"stark/internal/config"
)

func BenchmarkBlockStorePutGet(b *testing.B) {
	s := NewBlockStore(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := BlockID{RDD: i % 64, Partition: i % 16}
		s.Put(id, nil, 1024)
		s.Get(id)
	}
}

func BenchmarkDirectoryLocations(b *testing.B) {
	cfg := config.Default()
	cfg.NumExecutors = 8
	c := New(cfg)
	for i := 0; i < 1000; i++ {
		c.CachePut(i%8, BlockID{RDD: i % 50, Partition: i % 20}, nil, 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AppendLocations(nil, BlockID{RDD: i % 50, Partition: i % 20})
	}
}

// taxiShapeCluster is the taxi-window cache shape: 8 executors holding 96
// blocks each, four partitions to a collection unit.
func taxiShapeCluster() *Cluster {
	const execs, blocks = 8, 96
	cfg := config.Default()
	cfg.NumExecutors = execs
	c := New(cfg)
	c.SetUnitMapping(func(id BlockID) (UnitID, bool) { return UnitID{NS: 1, Unit: id.Partition / 4}, true })
	for e := 0; e < execs; e++ {
		for b := 0; b < blocks; b++ {
			c.CachePut(e, BlockID{RDD: b / 8, Partition: e*blocks + b}, nil, 1024)
		}
	}
	return c
}

// taxiBlocksCluster is the taxi-window query's cache: 15 window-step RDDs
// of 256 partitions each, partition p cached on executor p%8.
func taxiBlocksCluster() *Cluster {
	const execs, rdds, parts = 8, 15, 256
	cfg := config.Default()
	cfg.NumExecutors = execs
	c := New(cfg)
	for r := 0; r < rdds; r++ {
		for p := 0; p < parts; p++ {
			c.CachePut(p%execs, BlockID{RDD: 3 + 4*r, Partition: p}, nil, 1024)
		}
	}
	return c
}

var unitsSink int

// BenchmarkBlockStorePeekHit is the plane's cache-hit read: one packed-key
// lookup in an executor's store, over the taxi-window query's cache.
func BenchmarkBlockStorePeekHit(b *testing.B) {
	c := taxiBlocksCluster()
	s := c.Executor(3).Store
	ids := s.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Peek(ids[i%len(ids)]); ok {
			unitsSink++
		}
	}
}

// BenchmarkUnitsCached is the scheduler's MCF score: one indexed read.
func BenchmarkUnitsCached(b *testing.B) {
	c := taxiShapeCluster()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unitsSink += c.UnitsCached(i % 8)
	}
}

// BenchmarkUniqueKeysCached is the same score by the reference recount the
// scheduler used to run per offer: a walk of the executor's whole store.
func BenchmarkUniqueKeysCached(b *testing.B) {
	c := taxiShapeCluster()
	key := func(id BlockID) string { return "taxi/" + strconv.Itoa(id.Partition/4) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unitsSink += c.UniqueKeysCached(i%8, key)
	}
}
