package experiments

import (
	"fmt"
	"io"
	"time"

	"stark"
)

// Fig11Config sizes the co-locality experiment (Sec. IV-B): hourly
// Wikipedia log files of ~800 MB each on an 8-server cluster with 8
// partitions, queried by cogroup-and-count-keyword jobs.
type Fig11Config struct {
	RecordsPerFile int
	SizeScale      float64
	NumFiles       int
	CoGroupKs      []int
	QueriesPerK    int
	MemoryPerExec  int64
	NetBandwidth   int64
	DiskBandwidth  int64
	GCKnee         float64
	GCMax          float64
	GCPower        float64
	Seed           int64
}

// DefaultFig11 stands in for the paper's setup: 20k in-process records *
// ~95 B * 420 ~= 800 MB per hourly file; 2 GB executor caches reproduce the
// replication-driven eviction churn that keeps Spark-H slow.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		RecordsPerFile: 20000,
		SizeScale:      420,
		NumFiles:       8,
		CoGroupKs:      []int{1, 2, 3, 4, 5, 6},
		QueriesPerK:    3,
		MemoryPerExec:  3 << 30,
		NetBandwidth:   45 << 20, // shared 1 GbE under reducer contention
		DiskBandwidth:  110 << 20,
		GCKnee:         0.65,
		GCMax:          6,
		GCPower:        2,
		Seed:           1,
	}
}

// Quick is the -quick profile: one query per cogroup width.
func (c Fig11Config) Quick() Fig11Config {
	c.QueriesPerK = 1
	return c
}

// Fig11Result holds mean job delay per cogrouped-RDD count for Spark-H and
// Stark-H (Fig. 11), plus the per-task metrics of the last query at each k
// for the task-level breakdown (Fig. 12).
type Fig11Result struct {
	Ks     []int
	SparkH []time.Duration
	StarkH []time.Duration

	// TasksSpark[k] / TasksStark[k] hold the last query's job stats.
	TasksSpark map[int]stark.JobStats
	TasksStark map[int]stark.JobStats
}

// RunFig11 executes both systems across the cogroup range.
func RunFig11(cfg Fig11Config) (Fig11Result, error) {
	res := Fig11Result{
		Ks:         cfg.CoGroupKs,
		TasksSpark: make(map[int]stark.JobStats),
		TasksStark: make(map[int]stark.JobStats),
	}
	hours := make([][]stark.Record, cfg.NumFiles)
	for h := range hours {
		hours[h] = makeLogFile(cfg.Seed+int64(h)*977, cfg.RecordsPerFile)
	}
	keywords := []string{"article-001", "article-02", "latency=1", "article-1", "request-0", "latency=33"}

	run := func(sys System) ([]time.Duration, map[int]stark.JobStats, error) {
		cc := stark.DefaultClusterConfig()
		cc.NumExecutors = 8
		cc.SlotsPerExecutor = 4
		cc.MemoryPerExecutor = cfg.MemoryPerExec
		cc.NetBandwidth = cfg.NetBandwidth
		cc.DiskBandwidth = cfg.DiskBandwidth
		cc.SizeScale = cfg.SizeScale
		ctx := stark.NewContext(contextOptions(sys, nil,
			stark.WithClusterConfig(cc),
			stark.WithGC(cfg.GCKnee, cfg.GCMax, cfg.GCPower),
			stark.WithSeed(cfg.Seed),
		)...)
		c, err := newCollection(ctx, sys, "wiki", stark.NewHashPartitioner(8), 1)
		if err != nil {
			return nil, nil, err
		}
		for h, recs := range hours {
			if _, err := c.load(fmt.Sprintf("wiki-hour%d", h), recs, ctx.NumExecutors()); err != nil {
				return nil, nil, err
			}
		}
		var delays []time.Duration
		lastJob := make(map[int]stark.JobStats)
		for _, k := range cfg.CoGroupKs {
			var total time.Duration
			var jm stark.JobStats
			for q := 0; q < cfg.QueriesPerK; q++ {
				// Each query cogroups a sliding range of k trace RDDs with a
				// random keyword, like the paper's log-mining queries.
				lo := q % (len(c.rdds) - k + 1)
				job := keywordCountJob(ctx, c.queryP, c.rdds[lo:lo+k], keywords[(k+q)%len(keywords)])
				_, jm, err = job.Count()
				if err != nil {
					return nil, nil, err
				}
				total += jm.Makespan()
			}
			delays = append(delays, total/time.Duration(cfg.QueriesPerK))
			lastJob[k] = jm
		}
		return delays, lastJob, nil
	}

	var err error
	res.SparkH, res.TasksSpark, err = run(SparkH)
	if err != nil {
		return res, err
	}
	res.StarkH, res.TasksStark, err = run(StarkH)
	if err != nil {
		return res, err
	}
	return res, nil
}

// Print emits the Fig. 11 series.
func (r Fig11Result) Print(w io.Writer) {
	fprintf(w, "Fig 11: co-locality job delay (paper: Stark-H flat ~5-9s; Spark-H grows to ~46s at k=5; gap narrows at k=6 from GC)\n")
	fprintf(w, "  %8s  %10s  %10s  %6s\n", "cogroup", "Spark-H", "Stark-H", "ratio")
	for i, k := range r.Ks {
		ratio := float64(r.SparkH[i]) / float64(r.StarkH[i])
		fprintf(w, "  %8d  %s  %s  %5.1fx\n", k, fmtSec(r.SparkH[i]), fmtSec(r.StarkH[i]), ratio)
	}
}

// Fig12Result is the task-level view of a Fig. 11 run (Fig. 12) at the
// cogroup widths the paper plots, 2, 4 and 6.
type Fig12Result struct{ Fig11 Fig11Result }

// RunFig12 runs Fig. 11 for its per-task metrics.
func RunFig12(cfg Fig11Config) (Fig12Result, error) {
	r, err := RunFig11(cfg)
	return Fig12Result{r}, err
}

// Print emits each width's tasks sorted by delay with their GC share.
func (r Fig12Result) Print(w io.Writer) {
	fprintf(w, "Fig 12: per-task delay, sorted, with GC share (paper: GC explodes for cogroup-6)\n")
	for _, sys := range []struct {
		name string
		m    map[int]stark.JobStats
	}{{"Stark", r.Fig11.TasksStark}, {"Spark", r.Fig11.TasksSpark}} {
		for _, k := range []int{2, 4, 6} {
			jm, ok := sys.m[k]
			if !ok {
				continue
			}
			fprintf(w, "  %s cogroup %d RDDs:\n", sys.name, k)
			for i, tm := range jm.TasksSortedByDuration() {
				gcShare := 0.0
				if tm.Duration() > 0 {
					gcShare = float64(tm.GC) / float64(tm.Duration()) * 100
				}
				fprintf(w, "    task %d: %s (gc %4.1f%%, locality %s)\n",
					i+1, fmtSec(tm.Duration()), gcShare, tm.Locality)
			}
		}
	}
}
