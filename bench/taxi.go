package main

import (
	"math/rand"
	"time"

	"stark"
	gen "stark/internal/workload"
	"stark/internal/zorder"
)

// taxi-window is the paper's headline (Fig. 20 shape): a Stark-E cluster
// holds a sliding window of merged taxi+tweet timesteps; every replayed step
// is ingested (partition, cache put, size report, window evict) and every
// third step an open-loop burst of cogroup-count queries over random
// sub-windows and random regions reads the collection back.

type taxiSize struct {
	events       int // taxi events per step before diurnal modulation; merged records are twice that
	window       int // steps pre-loaded and kept cached
	replay       int // steps ingested after the window is full
	burstEvery   int
	burstQueries int
	interarrival time.Duration
	executors    int
	slots        int
	fineParts    int
	groups       int
}

var (
	taxiFull  = taxiSize{events: 750, window: 8, replay: 7, burstEvery: 3, burstQueries: 15, interarrival: 50 * time.Millisecond, executors: 8, slots: 4, fineParts: 256, groups: 16}
	taxiQuick = taxiSize{events: 120, window: 3, replay: 3, burstEvery: 3, burstQueries: 4, interarrival: 50 * time.Millisecond, executors: 4, slots: 2, fineParts: 64, groups: 8}
)

// taxiQuery is one planned query: cogroup window[lo:lo+span], keep keys in
// [keyLo, keyHi], count.
type taxiQuery struct {
	lo, span     int
	keyLo, keyHi string
}

type taxiWindow struct {
	sz     taxiSize
	steps  [][]stark.Record // window steps first, then the replayed ones
	bursts [][]taxiQuery    // one plan per burst, in replay order
	ref    []jobOut
	inSum  uint64
	grid   stark.ZGrid
}

func newTaxiWindow(seed int64, quick bool) scenario {
	sz := taxiFull
	if quick {
		sz = taxiQuick
	}
	taxi := gen.DefaultTaxi()
	taxi.Seed = baseSeed
	taxi.EventsPerStep = sz.events
	taxi.StepsPerHour = 1 // one step an hour, so the replay crosses the diurnal curve and the morning hotspot shift
	tweets := gen.DefaultTwitter()

	s := &taxiWindow{sz: sz, grid: stark.NewZGrid(taxi.Grid.Side())}
	h := newHasher()
	texts := rand.New(rand.NewSource(seed))
	for st := 0; st < sz.window+sz.replay; st++ {
		recs := gen.MergedStep(taxi, tweets, st)
		// The trace is fixed; --seed re-draws one tweet text a step (tweets
		// sit at the odd indices). More moves a group across its split
		// threshold on some seeds and not on others; see README.md.
		recs[2*texts.Intn(len(recs)/2)+1].Value = tweets.Tweet(texts.Intn(1_000_000))
		s.steps = append(s.steps, recs)
		h.records(recs)
	}

	rng := rand.New(rand.NewSource(baseSeed))
	for r := 0; r < sz.replay; r += sz.burstEvery {
		plan := make([]taxiQuery, sz.burstQueries)
		for i := range plan {
			q := randomTaxiQuery(rng, s.grid, sz.window)
			plan[i] = q
			h.u64(uint64(q.lo))
			h.u64(uint64(q.span))
			h.str(q.keyLo)
			h.str(q.keyHi)
			// After replay step r the live window is steps r+1 .. r+window.
			s.ref = append(s.ref, jobOut{n: refDistinctInRange(s.steps[r+1+q.lo:r+1+q.lo+q.span], q.keyLo, q.keyHi)})
		}
		s.bursts = append(s.bursts, plan)
	}
	s.inSum = h.Sum64()
	return s
}

// randomTaxiQuery draws a sub-window of 2..5 steps and one of the sixteen
// depth-2 quadtree regions, the query shape of Sec. IV-E.
func randomTaxiQuery(rng *rand.Rand, grid stark.ZGrid, window int) taxiQuery {
	span := 2 + rng.Intn(4)
	if span > window {
		span = window
	}
	q := taxiQuery{lo: rng.Intn(window - span + 1), span: span}
	q.keyLo, q.keyHi = grid.RandomRegion(rng, 2)
	return q
}

// medianStepRecords is the size of a typical ingested step.
func (s *taxiWindow) medianStepRecords() float64 {
	sizes := make([]float64, len(s.steps))
	for i, recs := range s.steps {
		sizes[i] = float64(len(recs))
	}
	return median(sizes)
}

func (s *taxiWindow) inputDigest() uint64 { return s.inSum }
func (s *taxiWindow) want() []jobOut      { return s.ref }

func (s *taxiWindow) newContext(par int, tr *tracer) *stark.Context {
	sp := tr.begin("stark.new_context")
	defer tr.end(sp)
	cc := stark.DefaultClusterConfig()
	cc.NumExecutors = s.sz.executors
	cc.SlotsPerExecutor = s.sz.slots
	cc.MemoryPerExecutor = 448 << 20
	cc.SizeScale = 220
	// Fine partitions are cheap within a group task: per-partition set-up is
	// far below a full task launch (the Fig. 19/20 calibration).
	cc.GroupPartitionOverhead = 200 * time.Microsecond
	ctx := stark.NewContext(
		stark.WithExtendable(stark.GroupBounds(24<<20, 4<<20, s.sz.window)),
		stark.WithCoLocality(),
		stark.WithMCF(),
		stark.WithClusterConfig(cc),
		stark.WithLocalityWait(250*time.Millisecond),
		stark.WithSeed(1),
		stark.WithParallelism(par),
	)
	tr.attach(ctx)
	return ctx
}

// zGridBounds splits the grid's Z-code range into parts equal key ranges.
func zGridBounds(cells uint64, parts int) []string {
	bounds := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, zorder.Key(uint64(i)*cells/uint64(parts)))
	}
	return bounds
}

// openStream builds the context and the Stark-E stream and pre-loads the
// window, the state both the iteration and the rate sweep start from.
func (s *taxiWindow) openStream(par int, tr *tracer) (*stark.Context, *stark.Stream, stark.Partitioner) {
	ctx := s.newContext(par, tr)
	side := uint64(s.grid.Side())
	p := stark.NewStaticRangePartitioner(zGridBounds(side*side, s.sz.fineParts))
	stream, err := ctx.NewStream(stark.StreamConfig{
		Name:          "taxi",
		Partitioner:   p,
		Namespace:     "taxi",
		InitialGroups: s.sz.groups,
		Window:        s.sz.window,
		ReportSizes:   true,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail for the sizes above
	}
	for st := 0; st < s.sz.window; st++ {
		s.ingest(ctx, stream, st, tr)
	}
	return ctx, stream, p
}

func (s *taxiWindow) ingest(ctx *stark.Context, stream *stark.Stream, step int, tr *tracer) {
	sp := tr.begin("stream.ingest")
	stream.Ingest(step, s.steps[step])
	ctx.Drain()
	tr.end(sp)
}

// query builds one planned query against the current window.
func (s *taxiWindow) query(ctx *stark.Context, stream *stark.Stream, p stark.Partitioner, q taxiQuery) *stark.RDD {
	window := stream.Recent(s.sz.window)
	lo, hi := q.keyLo, q.keyHi
	return ctx.CoGroup(p, window[q.lo:q.lo+q.span]...).Filter(func(r stark.Record) bool {
		return r.Key >= lo && r.Key <= hi
	})
}

func (s *taxiWindow) run(par int, tr *tracer) iteration {
	var it iteration
	ctx, stream, p := s.openStream(par, tr)
	burst := 0
	for r := 0; r < s.sz.replay; r++ {
		s.ingest(ctx, stream, s.sz.window+r, tr)
		if r%s.sz.burstEvery != 0 {
			continue
		}
		plan := s.bursts[burst]
		burst++
		sp := tr.begin("engine.query_burst")
		results := ctx.OpenLoop(s.sz.interarrival, len(plan), func(i int) *stark.RDD {
			return s.query(ctx, stream, p, plan[i])
		})
		tr.end(sp)
		for _, res := range results {
			it.got = append(it.got, jobOut{n: res.Count})
			it.vdelays = append(it.vdelays, res.Delay)
		}
	}
	it.jobs = len(it.got)
	it.vmakespan = ctx.Now()
	it.c.addContext(ctx)
	return it
}

// rateAt800ms is Fig. 19 on this cluster: the highest offered rate whose
// mean virtual delay over 60 open-loop queries stays within the paper's
// 800 ms cap. Each rate starts from a freshly loaded window.
func (s *taxiWindow) rateAt800ms(seed int64) float64 {
	best := 0.0
	for _, rate := range []float64{20, 56, 100, 160} {
		ctx, stream, p := s.openStream(0, nil)
		rng := rand.New(rand.NewSource(seed + int64(rate)))
		results := ctx.OpenLoop(time.Duration(float64(time.Second)/rate), 60, func(int) *stark.RDD {
			return s.query(ctx, stream, p, randomTaxiQuery(rng, s.grid, s.sz.window))
		})
		if stark.MeanDelay(results) <= 800*time.Millisecond && rate > best {
			best = rate
		}
	}
	return best
}
