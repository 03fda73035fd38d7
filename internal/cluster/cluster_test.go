package cluster

import (
	"testing"
	"testing/quick"

	"stark/internal/config"
	"stark/internal/record"
)

func rec(n int) []record.Record {
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Pair("k", int64(i))
	}
	return rs
}

func TestBlockStorePutGet(t *testing.T) {
	s := NewBlockStore(100)
	ev, ok := s.Put(BlockID{1, 0}, rec(1), 40)
	if !ok || len(ev) != 0 {
		t.Fatalf("put: ev=%v ok=%v", ev, ok)
	}
	if !s.Contains(BlockID{1, 0}) || s.Used() != 40 {
		t.Fatalf("contains=%v used=%d", s.Contains(BlockID{1, 0}), s.Used())
	}
	data, ok := s.Get(BlockID{1, 0})
	if !ok || len(data) != 1 {
		t.Fatalf("get: %v %v", data, ok)
	}
	if _, ok := s.Get(BlockID{2, 0}); ok {
		t.Fatal("got missing block")
	}
}

func TestBlockStoreLRUEviction(t *testing.T) {
	s := NewBlockStore(100)
	s.Put(BlockID{1, 0}, nil, 40)
	s.Put(BlockID{2, 0}, nil, 40)
	// Touch block 1 so block 2 is LRU.
	s.Get(BlockID{1, 0})
	ev, ok := s.Put(BlockID{3, 0}, nil, 40)
	if !ok || len(ev) != 1 || ev[0] != (BlockID{2, 0}) {
		t.Fatalf("evicted %v", ev)
	}
	if !s.Contains(BlockID{1, 0}) || s.Contains(BlockID{2, 0}) {
		t.Fatal("wrong block evicted")
	}
}

func TestBlockStoreOversized(t *testing.T) {
	s := NewBlockStore(100)
	s.Put(BlockID{1, 0}, nil, 50)
	if _, ok := s.Put(BlockID{2, 0}, nil, 101); ok {
		t.Fatal("oversized block cached")
	}
	if !s.Contains(BlockID{1, 0}) || s.Used() != 50 {
		t.Fatal("oversized put disturbed store")
	}
}

func TestBlockStoreReplace(t *testing.T) {
	s := NewBlockStore(100)
	s.Put(BlockID{1, 0}, rec(1), 30)
	s.Put(BlockID{1, 0}, rec(2), 60)
	if s.Used() != 60 || s.Len() != 1 {
		t.Fatalf("used=%d len=%d", s.Used(), s.Len())
	}
	data, _ := s.Get(BlockID{1, 0})
	if len(data) != 2 {
		t.Fatalf("data len = %d", len(data))
	}
}

func TestBlockStoreNeverEvictsJustPut(t *testing.T) {
	s := NewBlockStore(100)
	s.Put(BlockID{1, 0}, nil, 90)
	ev, ok := s.Put(BlockID{2, 0}, nil, 95)
	if !ok {
		t.Fatal("put failed")
	}
	if len(ev) != 1 || ev[0] != (BlockID{1, 0}) {
		t.Fatalf("evicted %v", ev)
	}
	if !s.Contains(BlockID{2, 0}) {
		t.Fatal("new block evicted itself")
	}
}

func TestBlockStoreCapacityInvariantQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewBlockStore(500)
		for i, op := range ops {
			id := BlockID{int(op % 7), 0}
			switch {
			case op%3 == 0:
				s.Remove(id)
			default:
				s.Put(id, nil, int64(op)*3)
			}
			if s.Used() > 500 && s.Len() > 1 {
				return false
			}
			_ = i
		}
		// Used must equal the sum of cached block sizes.
		var sum int64
		for _, id := range s.Blocks() {
			sum += s.blocks[id].bytes
		}
		return sum == s.Used()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newTestCluster() *Cluster {
	cfg := config.Default()
	cfg.NumExecutors = 3
	cfg.SlotsPerExecutor = 2
	cfg.MemoryPerExecutor = 1000
	return New(cfg)
}

func TestClusterDirectory(t *testing.T) {
	c := newTestCluster()
	id := BlockID{5, 1}
	c.CachePut(0, id, rec(1), 100)
	c.CachePut(2, id, rec(1), 100)
	locs := c.Locations(id)
	if len(locs) != 2 || locs[0] != 0 || locs[1] != 2 {
		t.Fatalf("locations = %v", locs)
	}
	if !c.Executor(0).Store.Contains(id) || c.Executor(1).Store.Contains(id) {
		t.Fatal("placement wrong")
	}
	c.DropBlock(0, id)
	if locs := c.Locations(id); len(locs) != 1 || locs[0] != 2 {
		t.Fatalf("locations after drop = %v", locs)
	}
}

func TestClusterEvictionUpdatesDirectory(t *testing.T) {
	c := newTestCluster()
	c.CachePut(0, BlockID{1, 0}, nil, 600)
	c.CachePut(0, BlockID{2, 0}, nil, 600) // evicts rdd1
	if locs := c.Locations(BlockID{1, 0}); locs != nil {
		t.Fatalf("evicted block still in directory: %v", locs)
	}
	if locs := c.Locations(BlockID{2, 0}); len(locs) != 1 {
		t.Fatalf("new block not in directory: %v", locs)
	}
}

func TestKillClearsBlocksAndSlots(t *testing.T) {
	c := newTestCluster()
	c.CachePut(1, BlockID{1, 0}, nil, 100)
	c.Executor(1).Acquire()
	c.Kill(1)
	if locs := c.Locations(BlockID{1, 0}); locs != nil {
		t.Fatalf("dead executor still in directory: %v", locs)
	}
	if c.Executor(1).FreeSlots() != 0 {
		t.Fatal("dead executor offers slots")
	}
	if got := c.AliveExecutors(); len(got) != 2 {
		t.Fatalf("alive = %v", got)
	}
	// Double-kill is a no-op; restart revives with empty cache.
	c.Kill(1)
	c.Restart(1)
	if c.Executor(1).FreeSlots() != 2 || c.Executor(1).Store.Len() != 0 {
		t.Fatal("restart wrong")
	}
	// Puts to dead executors are dropped.
	c.Kill(2)
	c.CachePut(2, BlockID{9, 0}, nil, 10)
	if c.Locations(BlockID{9, 0}) != nil {
		t.Fatal("put to dead executor registered")
	}
}

func TestSlotAccounting(t *testing.T) {
	c := newTestCluster()
	e := c.Executor(0)
	e.Acquire()
	e.Acquire()
	if e.FreeSlots() != 0 || e.Busy() != 2 {
		t.Fatalf("free=%d busy=%d", e.FreeSlots(), e.Busy())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-acquire did not panic")
			}
		}()
		e.Acquire()
	}()
	e.Release()
	e.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-release did not panic")
			}
		}()
		e.Release()
	}()
}

func TestUniqueKeysCached(t *testing.T) {
	c := newTestCluster()
	c.CachePut(0, BlockID{1, 0}, nil, 10)
	c.CachePut(0, BlockID{2, 0}, nil, 10)
	c.CachePut(0, BlockID{3, 5}, nil, 10)
	n := c.UniqueKeysCached(0, func(id BlockID) string {
		if id.RDD == 3 {
			return "" // not in any namespace
		}
		return "ns/0" // both map to collection partition 0
	})
	if n != 1 {
		t.Fatalf("unique keys = %d, want 1", n)
	}
}

func TestCheckConsistencyCleanAndAfterChurn(t *testing.T) {
	c := newTestCluster()
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.CachePut(i%3, BlockID{i % 7, i % 4}, nil, int64(50+i*13%400))
	}
	c.DropBlock(0, BlockID{1, 1})
	c.Kill(2)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	c.Restart(2)
	c.CachePut(2, BlockID{9, 0}, nil, 10)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyDetectsDrift(t *testing.T) {
	c := newTestCluster()
	c.CachePut(0, BlockID{1, 0}, nil, 10)
	// Tamper: remove from store behind the directory's back.
	c.Executor(0).Store.Remove(BlockID{1, 0})
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("tampered state passed consistency check")
	}
}
