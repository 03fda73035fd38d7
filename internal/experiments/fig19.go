package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"stark"
	"stark/internal/metrics"
	"stark/internal/workload"
	"stark/internal/zorder"
)

// ThroughputConfig drives the system-level experiments (Sec. IV-E): the
// merged NYC-taxi + Twitter trace streamed as 5-minute timesteps into a
// 40-worker cluster, queried by cogroup jobs over random time ranges and
// random geographic regions.
type ThroughputConfig struct {
	Executors     int
	Slots         int
	MemoryPerExec int64
	SizeScale     float64

	EventsPerStep int
	WindowSteps   int

	CoarseParts   int // Spark-R / Spark-H / Stark-H
	FineParts     int // Stark-E
	InitialGroups int
	MaxGroupBytes int64
	MinGroupBytes int64

	QueriesPerRate int
	Rates          []float64 // jobs per second
	DelayCap       time.Duration

	// LocalityWait is the delay-scheduling bound. Sub-second interactive
	// queries need it well below Spark's 3 s default, or hotspot executors
	// queue instead of spilling to replicas (the paper's contention-aware
	// replication depends on these remote launches happening).
	LocalityWait time.Duration

	// Systems restricts the sweep; nil means all four compared systems.
	Systems []System

	// Parallelism sets the engine's data-plane worker-pool size; 0 uses
	// GOMAXPROCS. Virtual-time results are identical for every value — the
	// knob only changes wall-clock time (see DESIGN.md section 10).
	Parallelism int

	Seed int64
}

// DefaultThroughput stands in for the paper's 40-node cluster; each step is
// ~30 MB simulated.
func DefaultThroughput() ThroughputConfig {
	return ThroughputConfig{
		Executors:      40,
		Slots:          16, // dual 8-core Xeons on the paper's R620 workers
		MemoryPerExec:  448 << 20,
		SizeScale:      220,
		EventsPerStep:  2000,
		WindowSteps:    36, // 3 hours of 5-minute steps
		CoarseParts:    40,
		FineParts:      512,
		InitialGroups:  32,
		MaxGroupBytes:  96 << 20,
		MinGroupBytes:  24 << 20,
		QueriesPerRate: 200,
		Rates:          []float64{5, 9, 20, 56, 100, 160, 220, 300},
		DelayCap:       800 * time.Millisecond,
		LocalityWait:   250 * time.Millisecond,
		Seed:           1,
	}
}

// Quick is Fig. 19's -quick profile: three rates, one per paper anchor
// (Spark-R's 9, Spark-H's 56, Stark-H's 220 jobs/s), 60 queries each.
func (c ThroughputConfig) Quick() ThroughputConfig {
	c.QueriesPerRate = 60
	c.Rates = []float64{9, 56, 220}
	return c
}

// throughputSetup ingests the window of timesteps under a system's
// discipline and returns the context, live step RDDs, the query
// partitioner, and the Z-grid used for regions.
type throughputSetup struct {
	ctx    *stark.Context
	stream *stark.Stream
	steps  []*stark.RDD
	queryP stark.Partitioner
	grid   zorder.Grid
	sys    System
	cfg    ThroughputConfig
}

// ingest feeds one more timestep and refreshes the queryable window.
func (ts *throughputSetup) ingest(step int, recs []stark.Record) {
	ts.stream.Ingest(step, recs)
	ts.steps = ts.stream.Recent(ts.cfg.WindowSteps)
}

// throughputWindow builds the merged taxi + Twitter records of the
// WindowSteps timesteps a set-up ingests, stepVolume(step) taxi events each
// (nil: EventsPerStep). The steps depend only on cfg and stepVolume, so a
// sweep builds them once and hands the same slices to every set-up:
// Stream.Ingest adopts them without copying or writing.
func throughputWindow(cfg ThroughputConfig, stepVolume func(step int) int) [][]stark.Record {
	taxi := workload.DefaultTaxi()
	taxi.Seed = cfg.Seed
	taxi.EventsPerStep = cfg.EventsPerStep
	tw := workload.DefaultTwitter()
	window := make([][]stark.Record, cfg.WindowSteps)
	for st := range window {
		if stepVolume != nil {
			taxi.EventsPerStep = stepVolume(st)
		}
		window[st] = workload.MergedStep(taxi, tw, st)
	}
	return window
}

// setupThroughput ingests window, one timestep per slice (see
// throughputWindow), under a system's discipline.
func setupThroughput(cfg ThroughputConfig, sys System, window [][]stark.Record) (*throughputSetup, error) {
	cc := stark.DefaultClusterConfig()
	cc.NumExecutors = cfg.Executors
	cc.SlotsPerExecutor = cfg.Slots
	cc.MemoryPerExecutor = cfg.MemoryPerExec
	cc.SizeScale = cfg.SizeScale
	// Fine partitions are cheap within a group task: per-partition setup is
	// far below a full task launch.
	cc.GroupPartitionOverhead = 200 * time.Microsecond
	wait := cfg.LocalityWait
	if wait == 0 {
		wait = 250 * time.Millisecond
	}
	ctx := stark.NewContext(contextOptions(sys,
		stark.WithExtendable(stark.GroupBounds(cfg.MaxGroupBytes, cfg.MinGroupBytes, cfg.WindowSteps)),
		stark.WithClusterConfig(cc),
		stark.WithLocalityWait(wait),
		stark.WithSeed(cfg.Seed),
		stark.WithParallelism(cfg.Parallelism),
	)...)

	grid := zorder.NewGrid(64)
	// Spark-H and Stark-H share the default hash partitioner (paper
	// Sec. IV-A), which also spreads the taxi hotspots' Z-cells evenly.
	// Stark-E uses the static range partitioner over the grid's Z-code
	// range — contiguous fine partitions are what make its groups spatially
	// meaningful — and relies on elasticity to absorb the hotspot skew.
	var shared stark.Partitioner
	if sys == StarkE {
		shared = stark.NewStaticRangePartitioner(zGridBounds(grid, cfg.FineParts))
	} else {
		shared = stark.NewHashPartitioner(cfg.CoarseParts)
	}

	scfg := stark.StreamConfig{
		Name:        fmt.Sprintf("taxi-%s", sys),
		Partitioner: shared,
		Window:      cfg.WindowSteps,
	}
	switch sys {
	case SparkR:
		scfg.SingleNodeIngest = true
		scfg.StepPartitioner = func(step int, recs []stark.Record) stark.Partitioner {
			return stark.NewRangePartitioner(sampleKeys(recs, 512), cfg.CoarseParts)
		}
	case SparkH:
		scfg.SingleNodeIngest = true
	case StarkH:
		scfg.Namespace = "taxi"
		scfg.InitialGroups = 1
	case StarkE:
		scfg.Namespace = "taxi"
		scfg.InitialGroups = cfg.InitialGroups
		scfg.ReportSizes = true
	}
	s, err := ctx.NewStream(scfg)
	if err != nil {
		return nil, err
	}
	var steps []*stark.RDD
	for st, recs := range window {
		steps = append(steps, s.Ingest(st, recs))
		ctx.Drain()
	}
	return &throughputSetup{
		ctx: ctx, stream: s, steps: steps, queryP: shared,
		grid: grid, sys: sys, cfg: cfg,
	}, nil
}

// zGridBounds returns parts-1 boundaries splitting the grid's Z-code range
// evenly.
func zGridBounds(g zorder.Grid, parts int) []string {
	bounds := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, zorder.Key(uint64(i)*g.Cells()/uint64(parts)))
	}
	return bounds
}

// makeQuery builds one random-window random-region cogroup-count job.
func (ts *throughputSetup) makeQuery(rng *rand.Rand) *stark.RDD {
	n := len(ts.steps)
	span := 2 + rng.Intn(4) // 2..5 timesteps
	if span > n {
		span = n
	}
	lo := rng.Intn(n - span + 1)
	window := ts.steps[lo : lo+span]
	var p stark.Partitioner
	switch ts.sys {
	case SparkR:
		// Spark-R fits yet another RangePartitioner for the query itself.
		p = stark.NewRangePartitioner(zGridBounds(ts.grid, ts.cfg.CoarseParts*4), ts.cfg.CoarseParts)
	default:
		p = ts.queryP
	}
	cg := ts.ctx.CoGroup(p, window...)
	keyLo, keyHi := workload.RandomRegion(rng, ts.grid, 2)
	return cg.Filter(func(r stark.Record) bool {
		return r.Key >= keyLo && r.Key <= keyHi
	})
}

// Fig19Point is one (rate, mean delay) measurement.
type Fig19Point struct {
	Rate      float64
	MeanDelay time.Duration
	P95Delay  time.Duration
}

// Fig19Result holds the delay-vs-load curves per system plus the derived
// throughput at the 800 ms cap.
type Fig19Result struct {
	Systems    []System
	Curves     map[System][]Fig19Point
	Throughput map[System]float64
}

// RunFig19 sweeps arrival rates for the four compared systems.
func RunFig19(cfg ThroughputConfig) (Fig19Result, error) {
	systems := cfg.Systems
	if len(systems) == 0 {
		systems = []System{SparkR, SparkH, StarkE, StarkH}
	}
	res := Fig19Result{
		Systems:    systems,
		Curves:     make(map[System][]Fig19Point),
		Throughput: make(map[System]float64),
	}
	window := throughputWindow(cfg, nil)
	for _, sys := range res.Systems {
		for _, rate := range cfg.Rates {
			ts, err := setupThroughput(cfg, sys, window)
			if err != nil {
				return res, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rate*7)))
			// Warm the cache layout with sequential queries so measurements
			// reflect steady state, not post-ingest convergence.
			for q := 0; q < 40; q++ {
				if _, _, err := ts.makeQuery(rng).Count(); err != nil {
					return res, err
				}
			}
			inter := time.Duration(float64(time.Second) / rate)
			results := ts.ctx.OpenLoop(inter, cfg.QueriesPerRate, func(i int) *stark.RDD {
				return ts.makeQuery(rng)
			})
			var ds []time.Duration
			for _, r := range results {
				ds = append(ds, r.Delay)
			}
			sum := metrics.Summarize(ds)
			point := Fig19Point{
				Rate:      rate,
				MeanDelay: sum.Mean,
				P95Delay:  sum.P95,
			}
			res.Curves[sys] = append(res.Curves[sys], point)
			if point.MeanDelay <= cfg.DelayCap {
				if rate > res.Throughput[sys] {
					res.Throughput[sys] = rate
				}
			}
		}
	}
	return res, nil
}

// Print emits the curves and the throughput row.
func (r Fig19Result) Print(w io.Writer) {
	fprintf(w, "Fig 19: delay vs offered load (paper: Spark-R 630ms@9/s; Spark-H 405ms@56/s; Stark-H 109ms@220/s; Stark-E slightly above Stark-H)\n")
	for _, sys := range r.Systems {
		fprintf(w, "  %s\n", sys)
		for _, pt := range r.Curves[sys] {
			fprintf(w, "    %6.0f jobs/s  mean %s  p95 %s\n", pt.Rate, fmtMs(pt.MeanDelay), fmtMs(pt.P95Delay))
		}
	}
	fprintf(w, "  throughput at %v cap:\n", 800*time.Millisecond)
	for _, sys := range r.Systems {
		fprintf(w, "    %-8s %6.0f jobs/s\n", sys, r.Throughput[sys])
	}
}
