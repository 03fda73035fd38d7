// Command starkbench reproduces the paper's evaluation figures on the
// simulated cluster and prints the measured rows/series next to the paper's
// reported shapes.
//
// Usage:
//
//	starkbench -experiment fig1       # one experiment
//	starkbench -experiment all        # everything (several minutes)
//	starkbench -list                  # enumerate experiments
//	starkbench -experiment fig19 -quick
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"stark/internal/experiments"
)

// Set from the command line before the table runs: -tsv emits
// machine-readable TSV where the figure has series data, -nightly deepens
// the chaos sweep for the scheduled CI profile, -seeds overrides a
// robustness sweep's seed count (0 keeps the profile's), and -dump-faults
// points dump at stdout so every armed fault schedule prints before its
// seed runs.
var (
	tsvOut  bool
	nightly bool
	seeds   int
	dump    io.Writer
)

// result is what every experiments.Run* returns. Figures with series data
// also have a WriteTSV(io.Writer) error method.
type result interface{ Print(io.Writer) }

// experiment is one row of the table: run executes it at its full or -quick
// profile.
type experiment struct {
	name, about string
	run         func(quick bool) (result, error)
}

var table = []experiment{
	{"fig1", "data locality benefits (C/D/D- bars)", func(bool) (result, error) {
		return figure(experiments.RunFig01(experiments.DefaultFig01()))
	}},
	{"fig7", "partition-count trade-off sweep", func(q bool) (result, error) {
		return figure(experiments.RunFig07(profile(q, experiments.DefaultFig07())))
	}},
	{"fig11", "co-locality cogroup delay (Spark-H vs Stark-H)", func(q bool) (result, error) {
		return figure(experiments.RunFig11(profile(q, experiments.DefaultFig11())))
	}},
	{"fig12", "per-task delay with GC share", func(q bool) (result, error) {
		return figure(experiments.RunFig12(profile(q, experiments.DefaultFig11())))
	}},
	{"fig13", "task input balance under skew (also figs 14, 15)", func(bool) (result, error) {
		return figure(experiments.RunSkew(experiments.DefaultSkew()))
	}},
	{"fig17", "cached vs checkpoint size per trending-app RDD", func(bool) (result, error) {
		return figure(experiments.RunFig17(experiments.DefaultCheckpoint()))
	}},
	{"fig18", "cumulative checkpoint volume: Stark-1/Stark-3/Tachyon", func(bool) (result, error) {
		return figure(experiments.RunFig18(experiments.DefaultCheckpoint()))
	}},
	{"fig19", "delay vs offered load and throughput at 800ms", func(q bool) (result, error) {
		return figure(experiments.RunFig19(profile(q, experiments.DefaultThroughput())))
	}},
	{"fig20", "delay over a 24h trace replay at 20 jobs/s", func(q bool) (result, error) {
		return figure(experiments.RunFig20(profile(q, experiments.DefaultFig20())))
	}},
	{"recovery", "post-failure job delay vs checkpoint bound (companion to Sec. III-D)", func(bool) (result, error) {
		return figure(experiments.RunRecovery(experiments.DefaultCheckpoint(), experiments.DefaultRecoveryBounds()))
	}},
	{"chaos", "randomized fault schedules vs fault-free oracle (recovery contract)", func(q bool) (result, error) {
		cfg := experiments.DefaultChaos()
		if nightly {
			cfg = experiments.NightlyChaos()
		}
		cfg = profile(q, cfg)
		cfg.Seeds, cfg.DumpFaults = seedsOr(cfg.Seeds), dump
		return experiments.RunChaos(cfg)
	}},
	{"multitenant", "multi-tenant overload oracle: admission control, DRR fairness, deadlines (robustness suite)", func(q bool) (result, error) {
		cfg := profile(q, experiments.DefaultMultitenant())
		cfg.Seeds, cfg.DumpFaults = seedsOr(cfg.Seeds), dump
		return experiments.RunMultitenant(cfg)
	}},
	{"cachepolicy", "LRU vs DAG-aware eviction A/B: recomputes-after-eviction under cache exhaustion (robustness suite)", func(q bool) (result, error) {
		cfg := profile(q, experiments.DefaultCachePolicy())
		cfg.Seeds = seedsOr(cfg.Seeds)
		return experiments.RunCachePolicy(cfg)
	}},
	{"churn", "dynamic load/evict collection under correlated queries (Sec. I scenario)", func(bool) (result, error) {
		return figure(experiments.RunChurn(experiments.DefaultChurn()))
	}},
	{"ablations", "design-choice sweeps beyond the paper (MCF, hysteresis, wait bound, relax factor)", func(bool) (result, error) {
		return figure(experiments.RunAblations())
	}},
}

// profile picks an experiment's -quick profile over its full one.
func profile[C interface{ Quick() C }](quick bool, cfg C) C {
	if quick {
		return cfg.Quick()
	}
	return cfg
}

// seedsOr applies -seeds to a robustness sweep's seed count n.
func seedsOr(n int) int {
	if seeds > 0 {
		return seeds
	}
	return n
}

// figure drops the partial result of a figure whose run failed. The
// robustness sweeps (chaos, multitenant, cachepolicy) return theirs as is,
// so a violated contract still prints.
func figure[R result](r R, err error) (result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// report runs e and prints its result, as TSV under -tsv when it has series
// data.
func report(e experiment, quick bool) error {
	r, err := e.run(quick)
	if r == nil {
		return err
	}
	if t, ok := r.(interface{ WriteTSV(io.Writer) error }); ok && tsvOut {
		if werr := t.WriteTSV(os.Stdout); werr != nil {
			return werr
		}
		return err
	}
	r.Print(os.Stdout)
	return err
}

func main() {
	var (
		name  = flag.String("experiment", "", "experiment to run (fig1, fig7, ... or 'all')")
		quick = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		list  = flag.Bool("list", false, "list available experiments")
		dumpF = flag.Bool("dump-faults", false, "print each chaos seed's armed fault schedule before it runs")
	)
	flag.BoolVar(&tsvOut, "tsv", false, "emit machine-readable TSV where the figure has series data")
	flag.BoolVar(&nightly, "nightly", false, "deepen the chaos sweep (scheduled CI profile)")
	flag.IntVar(&seeds, "seeds", 0, "override the chaos profile's fault-schedule count (0 keeps the profile default)")
	flag.Parse()
	if *dumpF {
		dump = os.Stdout
	}
	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, e := range table {
			fmt.Printf("  %-6s %s\n", e.name, e.about)
		}
		if *name == "" && !*list {
			fmt.Println("\nrun with -experiment <name> or -experiment all")
		}
		return
	}
	var failed bool
	for _, e := range table {
		if *name != "all" && !strings.EqualFold(*name, e.name) {
			continue
		}
		start := time.Now() //starklint:ignore wallclock experiment harness reports real elapsed time, not simulated time
		fmt.Printf("== %s: %s ==\n", e.name, e.about)
		if err := report(e, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			failed = true
		}
		//starklint:ignore wallclock experiment harness reports real elapsed time, not simulated time
		fmt.Printf("-- %s done in %v (wall)\n\n", e.name, time.Since(start).Round(time.Millisecond))
		if *name != "all" {
			if failed {
				os.Exit(1)
			}
			return
		}
	}
	if failed {
		os.Exit(1)
	}
	if *name != "all" {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *name)
		os.Exit(2)
	}
}
