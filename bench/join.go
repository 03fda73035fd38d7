package main

import (
	"fmt"
	"math/rand"
	"time"

	"stark"
	"stark/internal/record"
)

// batch-join joins two large sources on a few fat partitions and reduces the
// pairs to one count per key: the record kernels (join replay, sorted
// grouping, sort) carry the time and the worker pool matters. It drives the
// same shuffle layer as wide-shuffle the opposite way, a few buckets of tens
// of thousands of records, so a gain for one shape that costs the other
// shows.

type joinSize struct {
	records   int // per side
	keys      int // key space both sides draw from
	rekeyed   int // records per side whose key --seed re-draws
	parts     int
	executors int
	slots     int
}

var (
	joinFull  = joinSize{records: 400_000, keys: 400_000, rekeyed: 32, parts: 16, executors: 8, slots: 4}
	joinQuick = joinSize{records: 4000, keys: 2000, rekeyed: 4, parts: 4, executors: 4, slots: 2}
)

type batchJoin struct {
	sz          joinSize
	left, right []stark.Record
	ref         []jobOut
	inSum       uint64
}

func newBatchJoin(seed int64, quick bool) scenario {
	sz := joinFull
	if quick {
		sz = joinQuick
	}
	// Which keys meet, and how often, is the workload: it is drawn from
	// baseSeed. --seed moves a few records of each side to another key, which
	// changes the join's result and leaves its shape alone.
	base := rand.New(rand.NewSource(baseSeed))
	s := &batchJoin{sz: sz, left: genJoinSide(base, sz.records, sz.keys), right: genJoinSide(base, sz.records, sz.keys)}
	rng := rand.New(rand.NewSource(seed))
	for _, side := range [][]stark.Record{s.left, s.right} {
		for n := 0; n < sz.rekeyed; n++ {
			side[rng.Intn(len(side))].Key = fmt.Sprintf("j%d", rng.Intn(sz.keys))
		}
	}
	h := newHasher()
	h.records(s.left)
	h.records(s.right)
	s.inSum = h.Sum64()
	keys, pairs := refJoin(s.left, s.right)
	s.ref = []jobOut{{n: keys, sum: pairs}}
	return s
}

// genJoinSide draws n records over a key space of the given size: about
// n/keys records a key, so the join fans out.
func genJoinSide(rng *rand.Rand, n, keys int) []stark.Record {
	recs := make([]stark.Record, n)
	for i := range recs {
		recs[i] = stark.Pair(fmt.Sprintf("j%d", rng.Intn(keys)), i)
	}
	return recs
}

func (s *batchJoin) inputDigest() uint64 { return s.inSum }
func (s *batchJoin) want() []jobOut      { return s.ref }

func (s *batchJoin) run(par int, tr *tracer) iteration {
	var it iteration
	sp := tr.begin("stark.new_context")
	ctx := stark.NewContext(
		stark.WithExecutors(s.sz.executors),
		stark.WithSlots(s.sz.slots),
		stark.WithSeed(1),
		stark.WithParallelism(par),
	)
	tr.attach(ctx)
	tr.end(sp)

	sp = tr.begin("stark.source_build")
	left := ctx.Parallelize("left", s.left, s.sz.parts)
	right := ctx.Parallelize("right", s.right, s.sz.parts)
	tr.end(sp)

	p := stark.NewHashPartitioner(s.sz.parts)
	pairsPerKey := left.Join(p, right).
		MapValues(func(r stark.Record) stark.Record { return stark.Pair(r.Key, 1) }).
		ReduceByKey(p, func(a, b any) any { return a.(int) + b.(int) })
	sp = tr.begin("engine.action")
	out, stats, err := pairsPerKey.Collect()
	tr.end(sp)

	it.jobs = 1
	if err != nil {
		it.failed++
	}
	got := jobOut{n: int64(len(out)), fp: record.Fingerprint(out)}
	for _, r := range out {
		got.sum += int64(r.Value.(int))
	}
	it.got = []jobOut{got}
	it.vdelays = []time.Duration{stats.Makespan()}
	it.vmakespan = ctx.Now()
	it.c.addContext(ctx)
	return it
}
