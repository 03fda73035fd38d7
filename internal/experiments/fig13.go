package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"stark"
)

// SkewConfig drives the extendable-partitioning suite (Figs. 13, 14, 15):
// three collections of three hourly RDDs each — uniform keys (RDDs 1-3),
// a skewed hot region (4-6), and a stronger, shifted hot region (7-9) —
// compared across Spark-R, Stark-S and Stark-E.
type SkewConfig struct {
	RecordsPerRDD int
	SizeScale     float64
	KeySpace      int
	// CoarseParts is Spark-R's and Stark-S's partition count; FineParts and
	// InitialGroups configure Stark-E's Group Tree.
	CoarseParts   int
	FineParts     int
	InitialGroups int
	// MaxGroupBytes / MinGroupBytes are Stark-E's split/merge thresholds.
	MaxGroupBytes int64
	MinGroupBytes int64
	NetBandwidth  int64
	DiskBandwidth int64
	Seed          int64
}

// DefaultSkew stands in for the paper's consecutive Wikipedia hourly logs
// (~800 MB per RDD).
func DefaultSkew() SkewConfig {
	return SkewConfig{
		RecordsPerRDD: 20000,
		SizeScale:     420,
		KeySpace:      4096,
		CoarseParts:   8,
		FineParts:     32,
		InitialGroups: 8,
		// Collections aggregate 3 RDDs of ~800 MB over 8 groups: ~300 MB
		// per group when balanced; split above 450 MB, merge under 120 MB.
		MaxGroupBytes: 450 << 20,
		MinGroupBytes: 120 << 20,
		NetBandwidth:  45 << 20, // shared 1 GbE under reducer contention
		DiskBandwidth: 110 << 20,
		Seed:          1,
	}
}

// skewKey renders an ordered key.
func skewKey(i int) string { return fmt.Sprintf("%06d", i) }

// makeSkewedRDD generates records over an ordered key space with a hot
// *region*: with probability hotFrac a key falls uniformly inside the
// window [offset, offset+window), otherwise anywhere. A contiguous hot
// region (like the taxi hotspots of Fig. 6 or a trending article prefix)
// overloads the range partitions covering it, yet splits cleanly into
// finer partitions — exactly the skew extendable groups exist for.
func makeSkewedRDD(seed int64, n, keySpace int, hotFrac float64, window, offset int) []stark.Record {
	rng := rand.New(rand.NewSource(seed))
	if window < 1 {
		window = 1
	}
	out := make([]stark.Record, n)
	for i := range out {
		var k int
		if rng.Float64() < hotFrac {
			k = (offset + rng.Intn(window)) % keySpace
		} else {
			k = rng.Intn(keySpace)
		}
		out[i] = stark.Pair(skewKey(k), fmt.Sprintf("entry-%06d payload=%08d", i, rng.Intn(1e8)))
	}
	return out
}

// collectionSpec names one row of Fig. 13.
type collectionSpec struct {
	Name    string
	HotFrac float64
	Window  int
	Offset  int
}

func skewCollections(keySpace int) []collectionSpec {
	return []collectionSpec{
		{Name: "RDD 1-3", HotFrac: 0}, // uniform
		{Name: "RDD 4-6", HotFrac: 0.55, Window: keySpace / 8, Offset: keySpace * 45 / 100}, // hot middle
		{Name: "RDD 7-9", HotFrac: 0.7, Window: keySpace / 12, Offset: keySpace / 10},       // hotter, shifted
	}
}

// SkewJob captures one job's delays for Fig. 14/15.
type SkewJob struct {
	First  time.Duration
	Second time.Duration
	// SecondStats keeps the steady-state job's task metrics (Fig. 15).
	SecondStats stark.JobStats
}

// SkewResult aggregates the suite.
type SkewResult struct {
	Collections []string
	// InputSizes[system][collection] lists per-task input bytes (partition
	// or group sums) — Fig. 13's cell shades.
	InputSizes map[System]map[string][]int64
	// Jobs[system][collection] holds the 1st/2nd job delays — Fig. 14.
	Jobs map[System]map[string]SkewJob
	// Order preserves the compared systems.
	Systems []System
}

// RunSkew executes Figs. 13-15 for Stark-E, Stark-S, and Spark-R.
func RunSkew(cfg SkewConfig) (SkewResult, error) {
	specs := skewCollections(cfg.KeySpace)
	res := SkewResult{
		InputSizes: make(map[System]map[string][]int64),
		Jobs:       make(map[System]map[string]SkewJob),
		Systems:    []System{StarkE, StarkS, SparkR},
	}
	for _, sp := range specs {
		res.Collections = append(res.Collections, sp.Name)
	}

	// Static bounds fitted to the *uniform* distribution — the misfit under
	// drifting skew is the phenomenon under test. Spark-R fits its own
	// ranges, with Stark-S's partition count.
	coarse := stark.NewStaticRangePartitioner(uniformSkewBounds(cfg.KeySpace, cfg.CoarseParts))
	fine := stark.NewStaticRangePartitioner(uniformSkewBounds(cfg.KeySpace, cfg.FineParts))

	for _, sys := range res.Systems {
		res.InputSizes[sys] = make(map[string][]int64)
		res.Jobs[sys] = make(map[string]SkewJob)

		cc := stark.DefaultClusterConfig()
		cc.NumExecutors = 8
		cc.SlotsPerExecutor = 4
		cc.NetBandwidth = cfg.NetBandwidth
		cc.DiskBandwidth = cfg.DiskBandwidth
		cc.SizeScale = cfg.SizeScale
		ctx := stark.NewContext(contextOptions(sys,
			stark.WithExtendable(stark.GroupBounds(cfg.MaxGroupBytes, cfg.MinGroupBytes, 3)),
			stark.WithClusterConfig(cc),
			stark.WithSeed(cfg.Seed),
		)...)

		for ci, sp := range specs {
			ns := fmt.Sprintf("skew-%d", ci)
			p, groups := coarse, 1
			if sys == StarkE {
				p, groups = fine, cfg.InitialGroups
			}
			c, err := newCollection(ctx, sys, ns, p, groups)
			if err != nil {
				return res, err
			}
			for h := 0; h < 3; h++ {
				recs := makeSkewedRDD(cfg.Seed+int64(ci*100+h), cfg.RecordsPerRDD, cfg.KeySpace, sp.HotFrac, sp.Window, sp.Offset)
				if _, err := c.load(fmt.Sprintf("%s-h%d", ns, h), recs, 8); err != nil {
					return res, err
				}
			}

			// Fig. 13 cell sizes.
			res.InputSizes[sys][sp.Name] = taskInputSizes(ctx, sys, ns, c.rdds)

			// Fig. 14: first and second job after the rebalance, each the
			// repeated interactive job of Sec. IV-C — cogroup the collection
			// and count keys.
			var jm [2]stark.JobStats
			for i := range jm {
				if _, jm[i], err = ctx.CoGroup(c.queryP, c.rdds...).Count(); err != nil {
					return res, err
				}
			}
			res.Jobs[sys][sp.Name] = SkewJob{
				First:       jm[0].Makespan(),
				Second:      jm[1].Makespan(),
				SecondStats: jm[1],
			}
		}
	}
	return res, nil
}

// taskInputSizes returns per-task input bytes: group sums for Stark-E,
// partition sums otherwise.
func taskInputSizes(ctx *stark.Context, sys System, ns string, rdds []*stark.RDD) []int64 {
	if sys == StarkE {
		sizes, err := ctx.GroupSizes(ns)
		if err != nil {
			return nil
		}
		ids := make([]int, 0, len(sizes))
		for id := range sizes {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		out := make([]int64, 0, len(ids))
		for _, id := range ids {
			out = append(out, sizes[id])
		}
		return out
	}
	parts := rdds[0].NumPartitions()
	out := make([]int64, parts)
	for _, r := range rdds {
		for p, b := range r.PartitionSizes() {
			out[p] += b
		}
	}
	return out
}

func uniformSkewBounds(keySpace, parts int) []string {
	bounds := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, skewKey(i*keySpace/parts))
	}
	return bounds
}

// Print emits Fig. 13 as normalized shade digits (0 = empty, 9 = heaviest
// cell of the row's system).
func (r SkewResult) Print(w io.Writer) {
	fprintf(w, "Fig 13: task input sizes (0-9 shades; paper: Stark-S skewed, Stark-E and Spark-R balanced)\n")
	for _, sys := range r.Systems {
		fprintf(w, "  %s\n", sys)
		for _, col := range r.Collections {
			sizes := r.InputSizes[sys][col]
			var max int64
			for _, s := range sizes {
				if s > max {
					max = s
				}
			}
			fprintf(w, "    %-8s ", col)
			for _, s := range sizes {
				shade := 0
				if max > 0 {
					shade = int(float64(s) / float64(max) * 9)
				}
				fprintf(w, "%d", shade)
			}
			fprintf(w, "   (tasks=%d, max=%dMB)\n", len(sizes), max>>20)
		}
	}
	fprintf(w, "\nFig 14: job delay under skew, 1st vs 2nd job (paper: Spark-R >10s always; Stark-S <=4s but skew-sensitive; Stark-E slow 1st, fast 2nd)\n")
	fprintf(w, "  %-8s %-9s %10s %10s\n", "system", "RDDs", "1st", "2nd")
	for _, sys := range r.Systems {
		for _, col := range r.Collections {
			j := r.Jobs[sys][col]
			fprintf(w, "  %-8s %-9s %s %s\n", sys, col, fmtSec(j.First), fmtSec(j.Second))
		}
	}
	fprintf(w, "\nFig 15: task delay min/mid/max with shuffle share, skewed collection (paper: Spark-R shuffle-dominated; Stark-S imbalanced; Stark-E balanced)\n")
	for _, sys := range r.Systems {
		for _, col := range []string{r.Collections[0], r.Collections[2]} {
			j := r.Jobs[sys][col]
			mn, md, mx, shuffle := taskSpread(j.SecondStats)
			fprintf(w, "  %-8s %-9s min %s  mid %s  max %s  shuffle %4.1f%%\n",
				sys, col, fmtSec(mn), fmtSec(md), fmtSec(mx), shuffle*100)
		}
	}
}

// taskSpread summarizes a job's task durations and the shuffle-read share
// of total task time.
func taskSpread(jm stark.JobStats) (min, mid, max time.Duration, shuffleShare float64) {
	if len(jm.Tasks) == 0 {
		return 0, 0, 0, 0
	}
	ds := make([]time.Duration, 0, len(jm.Tasks))
	var total, shuffle time.Duration
	for _, t := range jm.Tasks {
		ds = append(ds, t.Duration())
		total += t.Duration()
		shuffle += t.ShuffleRead
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	share := 0.0
	if total > 0 {
		share = float64(shuffle) / float64(total)
	}
	return ds[0], ds[len(ds)/2], ds[len(ds)-1], share
}
