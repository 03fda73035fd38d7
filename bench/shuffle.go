package main

import (
	"fmt"
	"math/rand"
	"time"

	"stark"
)

// wide-shuffle repartitions many tiny source partitions across as many
// reduce partitions and counts: thousands of map tasks each route a few dozen
// records over thousands of buckets, so the shuffle store, the sparse
// partition kernel and the event loop are the whole cost and the record
// kernels do nothing.

type shuffleSize struct {
	parts     int // source partitions and reduce partitions
	perPart   int
	executors int
	slots     int
}

var (
	shuffleFull  = shuffleSize{parts: 8000, perPart: 64, executors: 8, slots: 4}
	shuffleQuick = shuffleSize{parts: 4200, perPart: 2, executors: 4, slots: 2}
)

type wideShuffle struct {
	sz    shuffleSize
	parts [][]stark.Record
	ref   []jobOut
	inSum uint64
}

func newWideShuffle(seed int64, quick bool) scenario {
	sz := shuffleFull
	if quick {
		sz = shuffleQuick
	}
	rng := rand.New(rand.NewSource(seed))
	s := &wideShuffle{sz: sz, parts: make([][]stark.Record, sz.parts)}
	h := newHasher()
	for p := range s.parts {
		s.parts[p] = genWidePart(rng, sz.perPart)
		h.records(s.parts[p])
	}
	s.ref = []jobOut{{n: refRecordCount(s.parts)}}
	s.inSum = h.Sum64()
	return s
}

// genWidePart draws one tiny source partition. Key width varies with the
// draw, so partition byte sizes, and with them virtual time, depend on the
// seed.
func genWidePart(rng *rand.Rand, n int) []stark.Record {
	recs := make([]stark.Record, n)
	for i := range recs {
		recs[i] = stark.Pair(fmt.Sprintf("u%d", rng.Int63n(1<<40)), i)
	}
	return recs
}

func (s *wideShuffle) inputDigest() uint64 { return s.inSum }
func (s *wideShuffle) want() []jobOut      { return s.ref }

func (s *wideShuffle) run(par int, tr *tracer) iteration {
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
	src := ctx.FromPartitions("wide", s.parts, false)
	tr.end(sp)

	sp = tr.begin("engine.action")
	n, stats, err := src.PartitionBy(stark.NewHashPartitioner(s.sz.parts)).Count()
	tr.end(sp)

	it.jobs = 1
	if err != nil {
		it.failed++
	}
	it.got = []jobOut{{n: n}}
	it.vdelays = []time.Duration{stats.Makespan()}
	it.vmakespan = ctx.Now()
	it.c.addContext(ctx)
	return it
}
