package experiments

import (
	"io"
	"sort"
	"time"

	"stark"
	"stark/internal/trending"
	"stark/internal/workload"
)

// CheckpointConfig drives the failure-recovery experiments (Sec. IV-D):
// the Fig. 16 trending application over Wikipedia data for Steps steps
// (twelve in DefaultCheckpoint).
type CheckpointConfig struct {
	Steps          int
	RecordsPerStep int
	SizeScale      float64
	Partitions     int
	// Bound is the recovery delay bound r; Relax values select Stark-1 /
	// Stark-3.
	Bound time.Duration
	Seed  int64
}

// DefaultCheckpoint sizes steps at ~250 MB simulated.
func DefaultCheckpoint() CheckpointConfig {
	return CheckpointConfig{
		Steps:          12,
		RecordsPerStep: 12000,
		SizeScale:      420,
		Partitions:     8,
		Bound:          3200 * time.Millisecond,
		Seed:           1,
	}
}

// trendingInput derives step input from the Wikipedia generator, keyed by a
// fixed-length URL prefix as in the paper.
func trendingInput(cfg CheckpointConfig, step int) []stark.Record {
	w := workload.DefaultWikipedia()
	w.Seed = cfg.Seed
	w.RequestsPerHour = cfg.RecordsPerStep
	w.ZipfS = 1.05
	recs := w.Hour(step)
	out := make([]stark.Record, len(recs))
	for i, r := range recs {
		// A fixed-length URL prefix is the key (paper Sec. IV-D); 17 chars
		// of "/wiki/article-NNNNN" keep the leading three digits, i.e. a
		// few hundred distinct trend keys.
		prefix := r.Key
		if len(prefix) > 17 {
			prefix = prefix[:17]
		}
		out[i] = stark.Pair(prefix, r.Value)
	}
	return out
}

// Fig17Result compares cached RDD size against checkpoint size per Fig. 16
// RDD name (the paper's constant serialization ratio).
type Fig17Result struct {
	Names           []string
	CachedBytes     map[string]int64
	CheckpointBytes map[string]int64
	Ratio           float64
}

// runTrending runs the trending app of the checkpoint experiments for
// cfg.Steps steps on a fresh co-located context, with extra engine options
// appended, handing every step's output to each (when non-nil).
func runTrending(cfg CheckpointConfig, each func(ctx *stark.Context, step int, out trending.StepRDDs),
	extra ...stark.Option) (*stark.Context, error) {
	opts := []stark.Option{
		stark.WithCoLocality(),
		stark.WithExecutors(8), stark.WithSlots(4),
		stark.WithSizeScale(cfg.SizeScale),
		stark.WithSeed(cfg.Seed),
	}
	opts = append(opts, extra...)
	ctx := stark.NewContext(opts...)
	p := stark.NewHashPartitioner(cfg.Partitions)
	if err := ctx.RegisterNamespace("trend", p, 1); err != nil {
		return nil, err
	}
	tcfg := trending.DefaultConfig(p)
	tcfg.KeepContents = 16
	tcfg.PopularThreshold = 2
	tcfg.Namespace = "trend"
	app := trending.New(ctx, tcfg)
	for s := 0; s < cfg.Steps; s++ {
		out, err := app.Step(trendingInput(cfg, s))
		if err != nil {
			return nil, err
		}
		if each != nil {
			each(ctx, s, out)
		}
	}
	return ctx, nil
}

// RunFig17 runs the app with co-locality and measures one mid-run step.
func RunFig17(cfg CheckpointConfig) (Fig17Result, error) {
	res := Fig17Result{
		CachedBytes:     make(map[string]int64),
		CheckpointBytes: make(map[string]int64),
	}
	var mid trending.StepRDDs
	ctx, err := runTrending(cfg, func(_ *stark.Context, s int, out trending.StepRDDs) {
		if s == cfg.Steps/2 {
			mid = out
		}
	})
	if err != nil {
		return res, err
	}
	named := mid.Named()
	for name := range named {
		res.Names = append(res.Names, name)
	}
	sort.Strings(res.Names)
	// Checkpoint each measured RDD explicitly to observe its serialized
	// size; the engine's serialization ratio is the constant under test.
	before := ctx.TotalCheckpointBytes()
	for _, name := range res.Names {
		r := named[name]
		sizes := r.PartitionSizes()
		var cached int64
		for _, b := range sizes {
			cached += b
		}
		res.CachedBytes[name] = cached
		r.Checkpoint()
		after := ctx.TotalCheckpointBytes()
		res.CheckpointBytes[name] = after - before
		before = after
	}
	var num, den float64
	for _, name := range res.Names {
		num += float64(res.CheckpointBytes[name])
		den += float64(res.CachedBytes[name])
	}
	if den > 0 {
		res.Ratio = num / den
	}
	return res, nil
}

// Print emits the per-RDD size pairs.
func (r Fig17Result) Print(w io.Writer) {
	fprintf(w, "Fig 17: cached vs checkpoint size per Fig-16 RDD (paper: constant ratio across RDDs)\n")
	fprintf(w, "  %-6s %14s %14s %8s\n", "rdd", "cached", "checkpoint", "ratio")
	for _, name := range r.Names {
		c, cp := r.CachedBytes[name], r.CheckpointBytes[name]
		ratio := 0.0
		if c > 0 {
			ratio = float64(cp) / float64(c)
		}
		fprintf(w, "  %-6s %12dKB %12dKB %8.2f\n", name, c>>10, cp>>10, ratio)
	}
	fprintf(w, "  overall ratio %.2f\n", r.Ratio)
}

// Fig18Result tracks cumulative checkpointed bytes per step for Stark-1,
// Stark-3, and the Tachyon Edge baseline.
type Fig18Result struct {
	Steps   int
	Stark1  []int64
	Stark3  []int64
	Tachyon []int64
}

// RunFig18 runs the app under the three checkpointing policies.
func RunFig18(cfg CheckpointConfig) (Fig18Result, error) {
	res := Fig18Result{Steps: cfg.Steps}
	run := func(opt stark.Option) (series []int64, err error) {
		_, err = runTrending(cfg, func(ctx *stark.Context, _ int, _ trending.StepRDDs) {
			series = append(series, ctx.TotalCheckpointBytes())
		}, opt)
		return series, err
	}
	var err error
	if res.Stark1, err = run(stark.WithCheckpointing(cfg.Bound, 1)); err != nil {
		return res, err
	}
	if res.Stark3, err = run(stark.WithCheckpointing(cfg.Bound, 3)); err != nil {
		return res, err
	}
	if res.Tachyon, err = run(stark.WithEdgeCheckpointing(cfg.Bound)); err != nil {
		return res, err
	}
	return res, nil
}

// Print emits the three series.
func (r Fig18Result) Print(w io.Writer) {
	fprintf(w, "Fig 18: cumulative checkpointed data per step (paper: Stark-1 best early, Stark-3 wins later, both far below Tachyon Edge)\n")
	fprintf(w, "  %4s %12s %12s %12s\n", "step", "Stark-1", "Stark-3", "Tachyon")
	for i := 0; i < r.Steps; i++ {
		fprintf(w, "  %4d %10dMB %10dMB %10dMB\n", i+1, r.Stark1[i]>>20, r.Stark3[i]>>20, r.Tachyon[i]>>20)
	}
}
