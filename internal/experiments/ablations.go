package experiments

import (
	"fmt"
	"io"
	"time"

	"stark"
)

// Ablations beyond the paper's own figures, exercising the design choices
// DESIGN.md calls out: MCF scheduling, group-threshold hysteresis, the
// delay-scheduling wait bound, the checkpoint relaxation factor, and task
// placement.

// AblationsResult holds every ablation sweep at the values starkbench
// reports.
type AblationsResult struct {
	MCF        AblationMCFResult
	Hysteresis []AblationHysteresisPoint
	Wait       []AblationWaitPoint
	Relax      []AblationRelaxPoint
	Placement  []AblationPlacementPoint
}

// RunAblations runs the five ablations in print order.
func RunAblations() (AblationsResult, error) {
	var r AblationsResult
	var err error
	if r.MCF, err = RunAblationMCF(); err != nil {
		return r, err
	}
	if r.Hysteresis, err = RunAblationHysteresis([]float64{1.5, 2, 4, 8, 16}); err != nil {
		return r, err
	}
	if r.Wait, err = RunAblationLocalityWait([]time.Duration{
		0, 50 * time.Millisecond, 250 * time.Millisecond, time.Second, 3 * time.Second,
	}); err != nil {
		return r, err
	}
	if r.Relax, err = RunAblationRelax([]float64{1, 2, 3, 4, 8}); err != nil {
		return r, err
	}
	r.Placement, err = RunAblationPlacement()
	return r, err
}

// Print emits the five ablations.
func (r AblationsResult) Print(w io.Writer) {
	fprintf(w, "Ablation: MCF scheduling under hotspot load\n")
	fprintf(w, "  delay scheduling only: %s\n", fmtMs(r.MCF.WithoutMCF))
	fprintf(w, "  with MCF:              %s\n", fmtMs(r.MCF.WithMCF))

	fprintf(w, "Ablation: group threshold hysteresis (band = max/min bytes) vs churn under drift\n")
	fprintf(w, "  %6s %8s %10s\n", "band", "changes", "imbalance")
	for _, pt := range r.Hysteresis {
		fprintf(w, "  %6.1f %8d %9.2fx\n", pt.Band, pt.Changes, pt.Imbalance)
	}

	fprintf(w, "Ablation: delay-scheduling wait bound vs locality and delay under contention\n")
	fprintf(w, "  %10s %9s %10s\n", "wait", "locality", "mean")
	for _, pt := range r.Wait {
		fprintf(w, "  %10v %8.0f%% %s\n", pt.Wait, pt.Locality*100, fmtMs(pt.Mean))
	}

	fprintf(w, "Ablation: checkpoint relaxation factor f\n")
	fprintf(w, "  %6s %10s %9s\n", "f", "total", "selected")
	for _, pt := range r.Relax {
		fprintf(w, "  %6.1f %8dMB %9d\n", pt.Relax, pt.Total>>20, pt.Selected)
	}

	fprintf(w, "Ablation: task placement extremes (paper Fig. 9) under bursty hotspot load\n")
	fprintf(w, "  %-10s %10s %9s %9s\n", "policy", "mean", "cacheHit", "locality")
	for _, pt := range r.Placement {
		fprintf(w, "  %-10s %s %8.0f%% %8.0f%%\n", pt.Policy, fmtMs(pt.Mean), pt.HitRate*100, pt.Locality*100)
	}
}

// loadLogCollection loads the four 10k-line log datasets d0..d3 the MCF and
// placement ablations query, under sys's discipline over a 16-way hash
// partitioner.
func loadLogCollection(ctx *stark.Context, sys System) (*collection, error) {
	c, err := newCollection(ctx, sys, "ns", stark.NewHashPartitioner(16), 1)
	for i := 0; err == nil && i < 4; i++ {
		_, err = c.load(fmt.Sprintf("d%d", i), makeLogFile(int64(i), 10000), 8)
	}
	return c, err
}

// AblationMCFResult compares hotspot query delay with and without
// Minimum-Contention-First scheduling.
type AblationMCFResult struct {
	WithMCF    time.Duration
	WithoutMCF time.Duration
}

// RunAblationMCF loads a namespace whose collection partitions compete for
// a few executors, then measures mean query delay under concurrent load
// with plain delay scheduling vs MCF.
func RunAblationMCF() (AblationMCFResult, error) {
	run := func(mcf bool) (time.Duration, error) {
		opts := []stark.Option{
			stark.WithCoLocality(),
			stark.WithExecutors(8), stark.WithSlots(2),
			stark.WithSizeScale(420),
			stark.WithLocalityWait(100 * time.Millisecond),
			stark.WithSeed(3),
		}
		if mcf {
			opts = append(opts, stark.WithMCF())
		}
		ctx := stark.NewContext(opts...)
		c, err := loadLogCollection(ctx, StarkH)
		if err != nil {
			return 0, err
		}
		results := ctx.OpenLoop(5*time.Millisecond, 60, func(i int) *stark.RDD {
			return ctx.CoGroup(c.p, c.rdds...)
		})
		return stark.MeanDelay(results), nil
	}
	var res AblationMCFResult
	var err error
	if res.WithoutMCF, err = run(false); err != nil {
		return res, err
	}
	if res.WithMCF, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// AblationHysteresisPoint is one (band, churn) measurement.
type AblationHysteresisPoint struct {
	// Band is MaxBytes/MinBytes.
	Band float64
	// Changes counts split/merge operations over the run.
	Changes int
	// Imbalance is the final max/mean group size ratio.
	Imbalance float64
}

// RunAblationHysteresis sweeps the split/merge threshold band width and
// measures rebalance churn vs achieved balance on a drifting workload.
func RunAblationHysteresis(bands []float64) ([]AblationHysteresisPoint, error) {
	var out []AblationHysteresisPoint
	for _, band := range bands {
		maxBytes := int64(400 << 20)
		minBytes := int64(float64(maxBytes) / band)
		ctx := stark.NewContext(
			stark.WithExtendable(stark.GroupBounds(maxBytes, minBytes, 2)),
			stark.WithExecutors(8), stark.WithSlots(4),
			stark.WithSizeScale(420),
			stark.WithSeed(5),
		)
		c, err := newCollection(ctx, StarkE, "ns", stark.NewStaticRangePartitioner(uniformSkewBounds(4096, 32)), 8)
		if err != nil {
			return nil, err
		}
		// The hot window drifts across the key space over 8 datasets.
		for i := 0; i < 8; i++ {
			recs := makeSkewedRDD(int64(i), 20000, 4096, 0.6, 512, i*512)
			if _, err := c.load(fmt.Sprintf("d%d", i), recs, 8); err != nil {
				return nil, err
			}
		}
		sizes, err := ctx.GroupSizes("ns")
		if err != nil {
			return nil, err
		}
		var max, sum int64
		for _, b := range sizes {
			sum += b
			if b > max {
				max = b
			}
		}
		imb := 0.0
		if sum > 0 && len(sizes) > 0 {
			imb = float64(max) / (float64(sum) / float64(len(sizes)))
		}
		out = append(out, AblationHysteresisPoint{Band: band, Changes: c.changes, Imbalance: imb})
	}
	return out, nil
}

// AblationWaitPoint is one (wait, locality, delay) measurement.
type AblationWaitPoint struct {
	Wait     time.Duration
	Locality float64
	Mean     time.Duration
}

// RunAblationLocalityWait sweeps the delay-scheduling bound and measures
// NODE_LOCAL rate and mean delay under contention.
func RunAblationLocalityWait(waits []time.Duration) ([]AblationWaitPoint, error) {
	var out []AblationWaitPoint
	for _, wait := range waits {
		ctx := stark.NewContext(
			stark.WithCoLocality(),
			stark.WithExecutors(4), stark.WithSlots(2),
			stark.WithSizeScale(420),
			stark.WithLocalityWait(wait),
			stark.WithSeed(9),
		)
		c, err := newCollection(ctx, StarkH, "ns", stark.NewHashPartitioner(8), 1)
		if err != nil {
			return nil, err
		}
		base, err := c.load("d", makeLogFile(1, 20000), 4)
		if err != nil {
			return nil, err
		}
		results := ctx.OpenLoop(2*time.Millisecond, 50, func(i int) *stark.RDD {
			return base.Filter(func(stark.Record) bool { return true })
		})
		out = append(out, AblationWaitPoint{Wait: wait, Locality: taskLocality(results), Mean: stark.MeanDelay(results)})
	}
	return out, nil
}

// AblationRelaxPoint is one (f, checkpoint bytes, triggers) measurement.
type AblationRelaxPoint struct {
	Relax    float64
	Total    int64
	Selected int
}

// RunAblationRelax sweeps the checkpoint relaxation factor on the trending
// app and reports total checkpointed bytes and RDDs selected.
func RunAblationRelax(fs []float64) ([]AblationRelaxPoint, error) {
	cfg := DefaultCheckpoint()
	var out []AblationRelaxPoint
	for _, f := range fs {
		ctx, err := runTrending(cfg, nil, stark.WithCheckpointing(cfg.Bound, f))
		if err != nil {
			return nil, err
		}
		selected := 0
		for _, r := range ctx.Engine().Graph().RDDs() {
			if r.Checkpointed {
				selected++
			}
		}
		out = append(out, AblationRelaxPoint{Relax: f, Total: ctx.TotalCheckpointBytes(), Selected: selected})
	}
	return out, nil
}

// AblationPlacementPoint is one scheduling-policy measurement of the
// Fig. 9 trade-off: dedicating executors to collection partitions wastes
// CPU; blindly using any executor thrashes the cache; bounded-wait delay
// scheduling with MCF sits between.
type AblationPlacementPoint struct {
	Policy   string
	Mean     time.Duration
	HitRate  float64
	Locality float64
}

// RunAblationPlacement loads a co-located collection on a small cluster and
// replays a steady query load under three placement policies:
//
//	dedicated — effectively infinite locality wait (tasks only run local)
//	blind     — no locality management at all: random placement (Fig. 9b)
//	delay+mcf — bounded wait with Minimum-Contention-First (Stark)
func RunAblationPlacement() ([]AblationPlacementPoint, error) {
	run := func(policy string, useNS bool, wait time.Duration, mcf bool) (AblationPlacementPoint, error) {
		opts := []stark.Option{
			stark.WithExecutors(8), stark.WithSlots(2),
			stark.WithSizeScale(420),
			stark.WithMemory(2 << 30),
			stark.WithLocalityWait(wait),
			stark.WithSeed(11),
		}
		if useNS {
			opts = append(opts, stark.WithCoLocality())
		}
		if mcf {
			opts = append(opts, stark.WithMCF())
		}
		ctx := stark.NewContext(opts...)
		sys := SparkH // blind placement loads like Spark-H, the others like Stark-H
		if useNS {
			sys = StarkH
		}
		c, err := loadLogCollection(ctx, sys)
		if err != nil {
			return AblationPlacementPoint{}, err
		}
		results := ctx.OpenLoop(900*time.Millisecond, 40, func(i int) *stark.RDD {
			return ctx.CoGroup(c.p, c.rdds...)
		})
		return AblationPlacementPoint{
			Policy:   policy,
			Mean:     stark.MeanDelay(results),
			HitRate:  ctx.Stats().CacheHitRate(),
			Locality: taskLocality(results),
		}, nil
	}
	var out []AblationPlacementPoint
	for _, c := range []struct {
		name string
		ns   bool
		wait time.Duration
		mcf  bool
	}{
		{"dedicated", true, time.Hour, false},
		{"blind", false, 50 * time.Millisecond, false},
		{"delay+mcf", true, 150 * time.Millisecond, true},
	} {
		pt, err := run(c.name, c.ns, c.wait, c.mcf)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// taskLocality is the NODE_LOCAL share of every task the jobs ran.
func taskLocality(results []stark.QueryResult) float64 {
	var local, total float64
	for _, r := range results {
		total += float64(len(r.Metrics.Tasks))
		local += r.Metrics.LocalityFraction() * float64(len(r.Metrics.Tasks))
	}
	if total == 0 {
		return 0
	}
	return local / total
}
