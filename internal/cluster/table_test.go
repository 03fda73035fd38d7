package cluster

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"stark/internal/config"
	"stark/internal/record"
)

// refBlock is one block of the reference store.
type refBlock struct {
	id    BlockID
	bytes int64
	data  string
}

// refExec is the reference executor: its blocks in a plain slice, most
// recently used first.
type refExec struct {
	blocks []refBlock
	dead   bool
}

func (r *refExec) find(id BlockID) int {
	return slices.IndexFunc(r.blocks, func(b refBlock) bool { return b.id == id })
}

func (r *refExec) used() int64 {
	var n int64
	for _, b := range r.blocks {
		n += b.bytes
	}
	return n
}

func (r *refExec) touch(i int) {
	b := r.blocks[i]
	r.blocks = slices.Insert(slices.Delete(r.blocks, i, i+1), 0, b)
}

func (r *refExec) remove(id BlockID) bool {
	if i := r.find(id); i >= 0 {
		r.blocks = slices.Delete(r.blocks, i, i+1)
		return true
	}
	return false
}

// refModel is the reference cluster: the policies restated over the
// reference slices, and locations recounted from them.
type refModel struct {
	execs    []refExec
	capacity int64
	dag      bool
	refs     map[int]int
	group    func(BlockID) (UnitID, bool)
	unitOf   func(BlockID) (UnitID, bool)
}

// plan restates lruPolicy and DAGPolicy over the slice: victims in
// eviction order, whether they cover need, and whether pinned groups
// stood in the way.
func (m *refModel) plan(blocks []refBlock, need int64, keep BlockID) (victims []BlockID, ok, pinBlocked bool) {
	var freed int64
	chosen := map[BlockID]bool{}
	take := func(b refBlock) {
		if !chosen[b.id] {
			chosen[b.id] = true
			victims = append(victims, b.id)
			freed += b.bytes
		}
	}
	if !m.dag {
		for i := len(blocks) - 1; i >= 0 && freed < need; i-- {
			if blocks[i].id != keep {
				take(blocks[i])
			}
		}
		return victims, freed >= need, false
	}
	keepUnit, keepGrouped := m.group(keep)
	pinned := func(u UnitID) bool {
		if keepGrouped && u == keepUnit {
			return true
		}
		for _, b := range blocks {
			if g, ok := m.group(b.id); ok && g == u && m.refs[b.id.RDD] > 0 {
				return true
			}
		}
		return false
	}
	for i := len(blocks) - 1; i >= 0 && freed < need; i-- {
		b := blocks[i]
		if b.id == keep || chosen[b.id] {
			continue
		}
		if u, grouped := m.group(b.id); grouped {
			if pinned(u) {
				pinBlocked = true
				continue
			}
			for j := len(blocks) - 1; j >= 0; j-- {
				if g, ok := m.group(blocks[j].id); ok && g == u && blocks[j].id != keep {
					take(blocks[j])
				}
			}
			continue
		}
		if m.refs[b.id.RDD] == 0 {
			take(b)
		}
	}
	for i := len(blocks) - 1; i >= 0 && freed < need; i-- {
		b := blocks[i]
		if b.id == keep || chosen[b.id] {
			continue
		}
		if _, grouped := m.group(b.id); grouped {
			pinBlocked = true
			continue
		}
		take(b)
	}
	return victims, freed >= need, pinBlocked
}

func (m *refModel) put(exec int, id BlockID, data string, bytes int64) ([]BlockID, PutStatus) {
	r := &m.execs[exec]
	if r.dead {
		return nil, PutStored
	}
	if bytes > m.capacity {
		return nil, PutTooLarge
	}
	var current int64
	if i := r.find(id); i >= 0 {
		current = r.blocks[i].bytes
	}
	var evicted []BlockID
	if need := r.used() - current + bytes - m.capacity; need > 0 {
		victims, ok, pinBlocked := m.plan(r.blocks, need, id)
		if !ok {
			if pinBlocked {
				return nil, PutPinnedBlocked
			}
			return nil, PutTooLarge
		}
		for _, v := range victims {
			r.remove(v)
		}
		evicted = victims
	}
	if i := r.find(id); i >= 0 {
		r.blocks[i].bytes, r.blocks[i].data = bytes, data
		r.touch(i)
	} else {
		r.blocks = slices.Insert(r.blocks, 0, refBlock{id: id, bytes: bytes, data: data})
	}
	return evicted, PutStored
}

// read returns the block's data, moving it to the front unless peeking.
func (m *refModel) read(exec int, id BlockID, peek bool) (string, bool) {
	r := &m.execs[exec]
	i := r.find(id)
	if r.dead || i < 0 {
		return "", false
	}
	data := r.blocks[i].data
	if !peek {
		r.touch(i)
	}
	return data, true
}

func (m *refModel) locations(id BlockID) []int {
	var out []int
	for exec := range m.execs {
		if m.execs[exec].find(id) >= 0 {
			out = append(out, exec)
		}
	}
	return out
}

// tailIDs returns n ids of the RDD whose keys all hash to the last cell of
// every key table up to 256 cells: two of them held at once make a probe
// chain that wraps past the table's end to cell 0.
func tailIDs(rdd, n int) []BlockID {
	var out []BlockID
	for p := 0; len(out) < n; p++ {
		if id := (BlockID{RDD: rdd, Partition: p}); hashKey(id.Key())>>56 == 0xff {
			out = append(out, id)
		}
	}
	return out
}

// tableCoverage records which shapes the key tables went through, so a
// model test can require that it drove them.
type tableCoverage struct {
	grew, wrapped, midRemoved bool
}

// observe notes whether any of the cluster's key tables has grown past its
// first size or holds a chain that wraps past its end.
func (cv *tableCoverage) observe(c *Cluster) {
	tables := []*KeyTable{&c.directory.index}
	for _, e := range c.executors {
		tables = append(tables, &e.Store.index)
	}
	for _, t := range tables {
		cv.grew = cv.grew || len(t.cells) > minCells
		for i, cell := range t.cells {
			if cell.k != 0 && t.home(BlockKey(cell.k-1)) > i {
				cv.wrapped = true
			}
		}
	}
}

// removing notes, before key leaves t, whether the next cell holds a key
// away from its home: one the backward shift must move.
func (cv *tableCoverage) removing(t *KeyTable, key BlockKey) {
	i := t.find(key)
	if i < 0 {
		return
	}
	j := (i + 1) & (len(t.cells) - 1)
	if next := t.cells[j]; next.k != 0 && t.home(BlockKey(next.k-1)) != j {
		cv.midRemoved = true
	}
}

// require fails the test for every shape the tables never took.
func (cv *tableCoverage) require(t *testing.T) {
	t.Helper()
	if !cv.grew {
		t.Error("no key table grew past its load factor")
	}
	if !cv.wrapped {
		t.Error("no probe chain wrapped past a key table's end")
	}
	if !cv.midRemoved {
		t.Error("no remove from the middle of a probe chain")
	}
}

// TestBlockTableMatchesReference is the model-based test of the block
// tables: seeded random puts, re-puts, gets, peeks, removes, oversized and
// pin-blocked puts, Clear, Kill, Restart and DropUnit, under the LRU and
// the DAG policy, each step checked against the slice-ordered reference —
// every store's Blocks order and Used, the victims and PutStatus of a put,
// the data a read returns, every block's AppendLocations — and
// CheckConsistency, which checks every key table's chains. Besides a 6×6
// grid, the ids include blocks of two later RDDs (first seen in random
// order) whose keys collide at the key tables' last cell, so chains wrap
// past the end and removes shift keys back; the test requires that the
// tables grew past their load factor and took both shapes.
func TestBlockTableMatchesReference(t *testing.T) {
	const execs, capacity = 4, 1500
	var ids []BlockID
	for r := 0; r < 6; r++ {
		for p := 0; p < 6; p++ {
			ids = append(ids, BlockID{RDD: r, Partition: p})
		}
	}
	ids = append(ids, tailIDs(9, 4)...)
	ids = append(ids, tailIDs(7, 4)...)
	var cov tableCoverage
	statuses := map[PutStatus]int{}
	for _, dag := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := config.Default()
			cfg.NumExecutors = execs
			cfg.SlotsPerExecutor = 2
			cfg.MemoryPerExecutor = capacity
			c := New(cfg)
			m := &refModel{
				execs:    make([]refExec, execs),
				capacity: capacity,
				dag:      dag,
				refs:     map[int]int{},
				group:    func(id BlockID) (UnitID, bool) { return UnitID{NS: 1, Unit: id.Partition % 3}, id.RDD%2 == 0 },
				unitOf: func(id BlockID) (UnitID, bool) {
					return UnitID{NS: 1 + id.RDD%2, Unit: id.Partition % 4}, id.Partition != 5
				},
			}
			var pol *DAGPolicy
			if dag {
				pol = NewDAGPolicy()
				pol.SetGroupFn(m.group)
				c.SetPolicy(pol)
			}
			c.SetUnitMapping(m.unitOf)
			held := func(exec int) []refBlock { return m.execs[exec].blocks }
			for step := 0; step < 400; step++ {
				exec := rng.Intn(execs)
				id := ids[rng.Intn(len(ids))]
				var op string
				put := func(id BlockID, bytes int64) {
					data := strconv.Itoa(step)
					gotEv, gotSt := c.CachePutChecked(exec, id, []record.Record{{Key: data}}, bytes)
					wantEv, wantSt := m.put(exec, id, data, bytes)
					statuses[gotSt]++
					if gotSt != wantSt || !slices.Equal(gotEv, wantEv) {
						t.Fatalf("dag=%v seed %d step %d (%s %v on %d, %d bytes): got %v %v, reference %v %v",
							dag, seed, step, op, id, exec, bytes, gotSt, gotEv, wantSt, wantEv)
					}
				}
				switch k := rng.Intn(100); {
				case k < 35:
					op = "put"
					put(id, int64(50+rng.Intn(300)))
				case k < 45:
					op = "re-put"
					if b := held(exec); len(b) > 0 {
						put(b[rng.Intn(len(b))].id, int64(50+rng.Intn(500)))
					}
				case k < 48:
					op = "oversized put"
					put(id, capacity+1+int64(rng.Intn(100)))
				case k < 52:
					// Pin id's peer group, then put a block that needs a whole
					// store's worth of room.
					op = "pin-blocked put"
					if dag {
						pol.Charge(id.RDD, 1)
						m.refs[id.RDD]++
					}
					put(ids[rng.Intn(len(ids))], capacity-int64(rng.Intn(50)))
				case k < 56:
					op = "release"
					if dag && m.refs[id.RDD] > 0 {
						pol.Release(id.RDD, 1)
						if m.refs[id.RDD]--; m.refs[id.RDD] == 0 {
							delete(m.refs, id.RDD)
						}
					}
				case k < 68:
					op = "get"
					got, ok := c.CacheGet(exec, id)
					want, wantOK := m.read(exec, id, false)
					if ok != wantOK || ok && got[0].Key != want {
						t.Fatalf("dag=%v seed %d step %d: Get(%v) on %d = %v %v, reference %q %v", dag, seed, step, id, exec, got, ok, want, wantOK)
					}
				case k < 76:
					op = "peek"
					got, ok := c.CachePeek(exec, id)
					want, wantOK := m.read(exec, id, true)
					if ok != wantOK || ok && got[0].Key != want {
						t.Fatalf("dag=%v seed %d step %d: Peek(%v) on %d = %v %v, reference %q %v", dag, seed, step, id, exec, got, ok, want, wantOK)
					}
				case k < 84:
					op = "remove"
					cov.removing(&c.executors[exec].Store.index, id.Key())
					c.DropBlock(exec, id)
					m.execs[exec].remove(id)
				case k < 87:
					// An executor's cache lost wholesale while it stays up.
					op = "clear"
					want := make([]BlockID, 0, len(held(exec)))
					for _, b := range held(exec) {
						want = append(want, b.id)
					}
					got := c.executors[exec].Store.Clear()
					for _, id := range got {
						c.dropLocation(id, exec)
					}
					m.execs[exec].blocks = nil
					if !slices.Equal(got, want) {
						t.Fatalf("dag=%v seed %d step %d: Clear on %d = %v, reference %v", dag, seed, step, exec, got, want)
					}
				case k < 90:
					op = "kill"
					c.Kill(exec)
					m.execs[exec] = refExec{dead: true}
				case k < 94:
					op = "restart"
					if c.Executor(exec).Dead() {
						c.Restart(exec)
						m.execs[exec].dead = false
					}
				default:
					op = "drop unit"
					u := UnitID{NS: 1 + rng.Intn(2), Unit: rng.Intn(4)}
					c.DropUnit(exec, u)
					m.execs[exec].blocks = slices.DeleteFunc(m.execs[exec].blocks, func(b refBlock) bool {
						got, ok := m.unitOf(b.id)
						return ok && got == u
					})
					if c.UnitCached(exec, u) {
						t.Fatalf("dag=%v seed %d step %d: %v still cached on %d after DropUnit", dag, seed, step, u, exec)
					}
				}
				for e := 0; e < execs; e++ {
					var want []BlockID
					for _, b := range held(e) {
						want = append(want, b.id)
					}
					st := c.Executor(e).Store
					if got := st.Blocks(); !slices.Equal(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("dag=%v seed %d step %d (%s): executor %d holds %v, reference %v", dag, seed, step, op, e, got, want)
					}
					if got, want := st.Used(), m.execs[e].used(); got != want {
						t.Fatalf("dag=%v seed %d step %d (%s): executor %d uses %d, reference %d", dag, seed, step, op, e, got, want)
					}
				}
				for _, id := range ids {
					if got, want := c.AppendLocations(nil, id), m.locations(id); !slices.Equal(got, want) {
						t.Fatalf("dag=%v seed %d step %d (%s): AppendLocations(%v) = %v, reference %v", dag, seed, step, op, id, got, want)
					}
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatalf("dag=%v seed %d step %d (%s): %v", dag, seed, step, op, err)
				}
				cov.observe(c)
			}
		}
	}
	cov.require(t)
	for _, st := range []PutStatus{PutStored, PutTooLarge, PutPinnedBlocked} {
		if statuses[st] == 0 {
			t.Errorf("no put ended %v: the sequences miss a path", st)
		}
	}
}

// TestCachePutAllocs: once the tables have grown, caching a new block in a
// store with a free slot, and recording a block's first or second replica
// in the directory, allocate nothing.
func TestCachePutAllocs(t *testing.T) {
	cfg := config.Default()
	cfg.NumExecutors = 3
	cfg.MemoryPerExecutor = 1 << 20
	c := New(cfg)
	c.SetUnitMapping(func(id BlockID) (UnitID, bool) { return UnitID{NS: 1, Unit: id.Partition % 4}, true })
	for p := 0; p < 64; p++ {
		c.CachePut(2, BlockID{RDD: 1, Partition: p}, nil, 1024)
	}
	s := NewBlockStore(1 << 20)
	next := 0
	newID := func() BlockID { next++; return BlockID{RDD: 2, Partition: next} }
	for name, cycle := range map[string]func(){
		"store put into a free slot": func() {
			id := newID()
			s.Put(id, nil, 1024)
			s.Remove(id)
		},
		"first replica": func() {
			id := newID()
			c.CachePut(0, id, nil, 1024)
			c.DropBlock(0, id)
		},
		"second replica": func() {
			id := BlockID{RDD: 1, Partition: next % 64}
			next++
			c.CachePut(1, id, nil, 1024)
			c.DropBlock(1, id)
		},
	} {
		for i := 0; i < 1000; i++ { // grow the tables and the maps
			cycle()
		}
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Errorf("%s allocates %.2f per put and drop, want 0", name, avg)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheLookupAllocs is the runtime ceiling of the per-block reads: a
// plane's cache read (CachePeek → BlockStore.Peek), the join's replay
// (CacheGet → BlockStore.Get), Contains, and AppendLocations into a dst
// with room, over the taxi-window cache shape, hits and misses alike,
// allocate nothing.
func TestCacheLookupAllocs(t *testing.T) {
	c := taxiBlocksCluster()
	st := c.Executor(3).Store
	ids := st.Blocks()
	for _, id := range ids[:len(ids)/2] {
		ids = append(ids, BlockID{RDD: id.RDD + 100, Partition: id.Partition})
	}
	dst := make([]int, 0, c.NumExecutors())
	hits := 0
	for name, read := range map[string]func(BlockID) bool{
		"BlockStore.Peek":         func(id BlockID) bool { _, ok := st.Peek(id); return ok },
		"BlockStore.Get":          func(id BlockID) bool { _, ok := st.Get(id); return ok },
		"BlockStore.Contains":     st.Contains,
		"Cluster.CachePeek":       func(id BlockID) bool { _, ok := c.CachePeek(3, id); return ok },
		"Cluster.CacheGet":        func(id BlockID) bool { _, ok := c.CacheGet(3, id); return ok },
		"Cluster.AppendLocations": func(id BlockID) bool { return len(c.AppendLocations(dst[:0], id)) > 0 },
	} {
		if avg := testing.AllocsPerRun(100, func() {
			for _, id := range ids {
				if read(id) {
					hits++
				}
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.1f per sweep of hits and misses, want 0", name, avg)
		}
	}
	if hits == 0 {
		t.Fatal("no read hit")
	}
}
