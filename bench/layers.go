package main

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"stark"
	"stark/internal/checkpoint"
	"stark/internal/cluster"
	"stark/internal/config"
	"stark/internal/group"
	"stark/internal/journal"
	"stark/internal/locality"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/sched"
	"stark/internal/storage"
	"stark/internal/vtime"
)

// Layer drivers: direct timed calls into one exported function each, on
// inputs cut from the workloads (a wide-shuffle source partition, one hash
// partition of each batch-join side, the taxi-window cluster shape). Each
// reports the median over batches of the mean cost of a fixed number of
// calls, and where it matters the exact allocations per call. They tell a
// later change which layer moved; the end-to-end metrics tell it whether that
// mattered.

// driverBench times batches of ops calls.
type driverBench struct {
	batches int
	out     []metric
}

// time reports the median over batches of (time for ops calls of f) / ops,
// in unit ("ns" or "us"). setup, when non-nil, runs untimed before each
// batch.
func (d *driverBench) time(name, unit string, ops int, setup func(), f func(i int)) {
	per := make([]float64, d.batches)
	for b := range per {
		if setup != nil {
			setup()
		}
		t0 := now()
		for i := 0; i < ops; i++ {
			f(i)
		}
		per[b] = float64(now()-t0) / float64(ops)
	}
	v := median(per)
	if unit == "us" {
		v /= 1000
	}
	d.out = append(d.out, metric{name, v, unit})
}

// allocs reports the exact heap allocations of one call of f.
func (d *driverBench) allocs(name string, f func()) {
	d.out = append(d.out, metric{name, testing.AllocsPerRun(3, f), "count"})
}

// sink keeps driver results alive so calls are not optimised away.
var sink int

func layerDrivers(o options) []metric {
	d := &driverBench{batches: 11}
	quick := o.quick
	rng := rand.New(rand.NewSource(o.seed))
	wide, join := shuffleFull, joinFull
	if quick {
		d.batches = 1
		wide, join = shuffleQuick, joinQuick
	}

	// Inputs cut from the workloads.
	widePart := genWidePart(rng, wide.perPart)
	// One hash partition of each join side holds 1/parts of the records over
	// 1/parts of the key space; drawing that directly keeps the records-per-key
	// fan-out without generating the other fifteen sixteenths.
	joinLeft := genJoinSide(rng, join.records/join.parts, join.keys/join.parts)
	joinRight := genJoinSide(rng, join.records/join.parts, join.keys/join.parts)
	joinChunk := genJoinSide(rng, join.records/join.parts, join.keys) // one unpartitioned source chunk

	recordDrivers(d, widePart, joinLeft, joinRight, joinChunk, wide.parts, join.parts)
	storageDrivers(d, widePart, joinChunk, wide.parts, join.parts, quick)
	clusterDrivers(d)
	controlDrivers(d, quick)
	return d.out
}

func routeIndex(b *record.Batch, p partition.Hash) []int32 {
	idx := make([]int32, b.Len())
	for i := range idx {
		idx[i] = int32(p.PartitionForHash(b.Hash32(i)))
	}
	return idx
}

func recordDrivers(d *driverBench, widePart, joinLeft, joinRight, joinChunk []stark.Record, wideParts, joinParts int) {
	d.time("record.group_sorted_ns_op", "ns", 2, nil, func(int) { sink += len(record.GroupByKeySorted(joinLeft)) })
	d.allocs("record.group_sorted_allocs_op", func() { sink += len(record.GroupByKeySorted(joinLeft)) })
	d.time("record.join_ns_op", "ns", 1, nil, func(int) { sink += len(record.JoinRecords(joinLeft, joinRight)) })
	d.allocs("record.join_allocs_op", func() { sink += len(record.JoinRecords(joinLeft, joinRight)) })

	d.time("record.from_records_ns_op", "ns", 2000, nil, func(int) { sink += record.FromRecords(widePart).Len() })

	var scr record.Scratch
	wb := record.FromRecords(widePart)
	widx := routeIndex(wb, partition.NewHash(wideParts))
	d.time("record.partition_stable_wide_ns_op", "ns", 1000, nil, func(int) {
		scr.Reset()
		sink += len(wb.PartitionStable(widx, wideParts, &scr).Spans)
	})
	jb := record.FromRecords(joinChunk)
	jidx := routeIndex(jb, partition.NewHash(joinParts))
	d.time("record.partition_stable_join_ns_op", "ns", 4, nil, func(int) {
		scr.Reset()
		sink += len(jb.PartitionStable(jidx, joinParts, &scr).Spans)
	})
	d.time("record.keysum_ns_op", "ns", 20, nil, func(int) { sink += int(jb.KeySumRange(0, jb.Len())) })
}

func storageDrivers(d *driverBench, widePart, joinChunk []stark.Record, wideParts, joinParts int, quick bool) {
	var scr record.Scratch
	partitioned := func(recs []stark.Record, parts int) *record.PartitionedBatch {
		b := record.FromRecords(recs)
		return b.PartitionStable(routeIndex(b, partition.NewHash(parts)), parts, &scr)
	}
	wideMaps := 2000
	if quick {
		wideMaps = 50
	}
	for _, shape := range []struct {
		name         string
		pb           *record.PartitionedBatch
		maps, parts  int
		writes, read int // ops per batch
	}{
		{"wide", partitioned(widePart, wideParts), wideMaps, wideParts, wideMaps, wideParts},
		{"join", partitioned(joinChunk, joinParts), joinParts, joinParts, joinParts, joinParts},
	} {
		var st *storage.Store
		fresh := func() {
			st = storage.NewStore()
			if err := st.RegisterShuffle(0, shape.maps, shape.parts); err != nil {
				panic(err)
			}
		}
		write := func(i int) {
			if err := st.WriteMapOutputBatch(0, i%shape.maps, shape.pb); err != nil {
				panic(err)
			}
		}
		d.time("storage.write_map_"+shape.name+"_ns_op", "ns", shape.writes, fresh, write)
		fresh()
		next := 0
		d.allocs("storage.write_map_"+shape.name+"_allocs_op", func() { write(next); next++ })

		// A complete shuffle to read back.
		fresh()
		for m := 0; m < shape.maps; m++ {
			write(m)
		}
		read := func(i int) {
			recs, _, err := st.ReadReduce(0, i%shape.parts)
			if err != nil {
				panic(err)
			}
			sink += len(recs)
		}
		d.time("storage.read_reduce_"+shape.name+"_ns_op", "ns", shape.read, nil, read)
		next = 0
		d.allocs("storage.read_reduce_"+shape.name+"_allocs_op", func() { read(next); next++ })
	}
}

// clusterDrivers exercises the block directory in the taxi-window shape: 8
// executors holding 96 blocks each.
func clusterDrivers(d *driverBench) {
	const execs, blocks = 8, 96
	cfg := config.Default()
	cfg.NumExecutors = execs
	cl := cluster.New(cfg)
	for e := 0; e < execs; e++ {
		for b := 0; b < blocks; b++ {
			cl.CachePut(e, cluster.BlockID{RDD: b / 8, Partition: e*blocks + b}, nil, 1024)
		}
	}
	// The engine's MCF key function: namespace + "/" + unit.
	unitKey := func(id cluster.BlockID) string { return "taxi/" + strconv.Itoa(id.Partition/4) }
	d.time("cluster.unique_keys_us_op", "us", 200, nil, func(i int) { sink += cl.UniqueKeysCached(i%execs, unitKey) })

	// A full store: every put evicts one block under the policy.
	for _, pol := range []struct {
		name   string
		policy func() cluster.EvictionPolicy
	}{
		{"lru", cluster.NewLRUPolicy},
		{"dag", func() cluster.EvictionPolicy { return cluster.NewDAGPolicy() }},
	} {
		st := cluster.NewBlockStore(blocks * 1024)
		st.SetPolicy(pol.policy())
		for b := 0; b < blocks; b++ {
			st.Put(cluster.BlockID{RDD: 0, Partition: b}, nil, 1024)
		}
		next := blocks
		d.time("cluster.put_evict_"+pol.name+"_ns_op", "ns", 2000, nil, func(int) {
			st.Put(cluster.BlockID{RDD: 0, Partition: next}, nil, 1024)
			next++
		})
	}
	st := cl.Executor(0).Store
	ids := st.Blocks()
	d.time("cluster.get_ns_op", "ns", 20000, nil, func(i int) {
		if _, ok := st.Get(ids[i%len(ids)]); ok {
			sink++
		}
	})
}

// controlDrivers covers the control-plane packages in the taxi-window shape
// (512 fine partitions, 32 groups), the event loop, the journal and the
// checkpoint optimiser.
func controlDrivers(d *driverBench, quick bool) {
	const parts, groups = 512, 32
	gm := group.NewManager(group.Config{MaxBytes: 24 << 20, MinBytes: 4 << 20, Window: 8})
	if err := gm.Register("taxi", parts, groups); err != nil {
		panic(err)
	}
	d.time("group.groupof_ns_op", "ns", 20000, nil, func(i int) {
		g, _ := gm.GroupOf("taxi", i%parts)
		sink += g.ID
	})
	sizes := make([]int64, parts)
	d.time("group.report_rebalance_us_op", "us", 50, nil, func(i int) {
		// A hotspot that wanders across the key range, so reports both split
		// and merge groups.
		for p := range sizes {
			sizes[p] = 64 << 10
			if (p+i*16)%parts < 32 {
				sizes[p] = 4 << 20
			}
		}
		if err := gm.ReportRDD("taxi", sizes); err != nil {
			panic(err)
		}
		changes, _ := gm.Rebalance("taxi")
		sink += len(changes)
	})

	bounds := zGridBounds(4096, parts)
	rp := partition.NewStaticRange(bounds)
	hp := partition.NewHash(parts)
	keys := bounds // representative keys: one per partition boundary
	d.time("partition.range_for_ns_op", "ns", 20000, nil, func(i int) { sink += rp.PartitionFor(keys[i%len(keys)]) })
	d.time("partition.hash_for_ns_op", "ns", 20000, nil, func(i int) { sink += hp.PartitionFor(keys[i%len(keys)]) })

	lm := locality.NewManager()
	units := make([]int, groups)
	for i := range units {
		units[i] = i
	}
	if err := lm.Register("taxi", rp, units, []int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		panic(err)
	}
	d.time("locality.preferred_ns_op", "ns", 20000, nil, func(i int) { sink += len(lm.Preferred("taxi", i%groups)) })

	// A taxi-window query's lineage: five co-partitioned steps cogrouped and
	// filtered.
	g := rdd.NewGraph()
	var steps []*rdd.RDD
	for s := 0; s < 5; s++ {
		steps = append(steps, g.LocalityPartitionBy(g.Source("raw", make([][]record.Record, 8), false), "step", rp, "taxi"))
	}
	query := g.Filter(g.CoGroup("cogroup", rp, steps...), "filter", func(record.Record) bool { return true })
	d.time("sched.build_us_op", "us", 200, nil, func(int) { sink += sched.Build(query).NumTasks() })

	events := 1_000_000
	if quick {
		events = 10_000
	}
	var loop *vtime.Loop
	nop := func() {}
	d.time("vtime.event_ns_op", "ns", events, func() { loop = vtime.NewLoop() }, func(i int) {
		loop.At(time.Duration(i), nop)
		loop.Step()
	})
	loop = vtime.NewLoop()
	next := 0
	d.allocs("vtime.event_allocs_op", func() {
		loop.At(time.Duration(next), nop)
		loop.Step()
		next++
	})

	var log journal.Log
	rec := journal.Record{Kind: journal.KindMapOutput, A: 7, B: 123, C: 6000, D: 6000}
	d.time("journal.append_ns_op", "ns", 20000, func() { log.Reset() }, func(i int) {
		rec.B = int64(i)
		log.Append(rec)
	})
	start := now()
	replays := 0
	for ; replays < d.batches; replays++ {
		recs, _ := journal.Replay(log.Bytes())
		sink += len(recs)
	}
	mb := float64(log.Size()) * float64(replays) / (1 << 20)
	d.out = append(d.out, metric{"journal.replay_mb_per_s", mb / (now() - start).Seconds(), "MiB/s"})

	// A 200-node narrow chain whose recovery delay exceeds the bound many
	// times over: the optimiser must cut it.
	cg := rdd.NewGraph()
	node := cg.Source("src", nil, false)
	for i := 1; i < 200; i++ {
		node = cg.Filter(node, "f", func(record.Record) bool { return true })
	}
	stats := func(r *rdd.RDD) (time.Duration, int64) { return time.Second, int64(1+r.ID%7) << 20 }
	d.time("checkpoint.optimize_us_op", "us", 5, nil, func(int) {
		sink += len(checkpoint.Optimize(node, 20*time.Second, 1, stats).Select)
	})
}
