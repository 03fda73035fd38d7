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
	"os"
	"strings"
	"time"

	"stark/internal/experiments"
)

type experiment struct {
	name  string
	about string
	run   func(quick bool) error
}

// tsvOut is set by the -tsv flag; experiments with series data emit
// machine-readable TSV instead of the human-readable table.
var tsvOut bool

// nightly (-nightly) deepens the chaos sweep for the scheduled CI profile;
// dumpFaults (-dump-faults) prints every armed fault schedule (kind,
// virtual time, target) before each chaos seed runs; chaosSeeds (-seeds)
// overrides the selected profile's fault-schedule count (0 keeps it).
var (
	nightly    bool
	dumpFaults bool
	chaosSeeds int
)

func experimentsList() []experiment {
	return []experiment{
		{"fig1", "data locality benefits (C/D/D- bars)", func(bool) error {
			r, err := experiments.RunFig01(experiments.DefaultFig01())
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig7", "partition-count trade-off sweep", func(quick bool) error {
			cfg := experiments.DefaultFig07()
			if quick {
				cfg.Partitions = []int{1, 16, 256, 4096, 65536}
			}
			r, err := experiments.RunFig07(cfg)
			if err != nil {
				return err
			}
			if tsvOut {
				return r.WriteTSV(os.Stdout)
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig11", "co-locality cogroup delay (Spark-H vs Stark-H)", func(quick bool) error {
			cfg := experiments.DefaultFig11()
			if quick {
				cfg.QueriesPerK = 1
			}
			r, err := experiments.RunFig11(cfg)
			if err != nil {
				return err
			}
			if tsvOut {
				return r.WriteTSV(os.Stdout)
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig12", "per-task delay with GC share", func(quick bool) error {
			cfg := experiments.DefaultFig11()
			if quick {
				cfg.QueriesPerK = 1
			}
			r, err := experiments.RunFig11(cfg)
			if err != nil {
				return err
			}
			r.PrintFig12(os.Stdout, []int{2, 4, 6})
			return nil
		}},
		{"fig13", "task input balance under skew (also figs 14, 15)", func(bool) error {
			r, err := experiments.RunSkew(experiments.DefaultSkew())
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig17", "cached vs checkpoint size per trending-app RDD", func(bool) error {
			r, err := experiments.RunFig17(experiments.DefaultCheckpoint())
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig18", "cumulative checkpoint volume: Stark-1/Stark-3/Tachyon", func(bool) error {
			r, err := experiments.RunFig18(experiments.DefaultCheckpoint())
			if err != nil {
				return err
			}
			if tsvOut {
				return r.WriteTSV(os.Stdout)
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig19", "delay vs offered load and throughput at 800ms", func(quick bool) error {
			cfg := experiments.DefaultThroughput()
			if quick {
				cfg.QueriesPerRate = 60
				cfg.Rates = []float64{9, 56, 220}
			}
			r, err := experiments.RunFig19(cfg)
			if err != nil {
				return err
			}
			if tsvOut {
				return r.WriteTSV(os.Stdout)
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"fig20", "delay over a 24h trace replay at 20 jobs/s", func(quick bool) error {
			cfg := experiments.DefaultFig20()
			if quick {
				cfg.Hours = 6
				cfg.BurstsPerHour = 1
			}
			r, err := experiments.RunFig20(cfg)
			if err != nil {
				return err
			}
			if tsvOut {
				return r.WriteTSV(os.Stdout)
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"recovery", "post-failure job delay vs checkpoint bound (companion to Sec. III-D)", func(bool) error {
			r, err := experiments.RunRecovery(experiments.DefaultCheckpoint(),
				[]time.Duration{time.Second, 3200 * time.Millisecond, 10 * time.Second})
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"chaos", "randomized fault schedules vs fault-free oracle (recovery contract)", func(quick bool) error {
			cfg := experiments.DefaultChaos()
			if nightly {
				cfg = experiments.NightlyChaos()
			}
			if quick {
				cfg.Seeds = 20
				cfg.Steps = 4
			}
			if chaosSeeds > 0 {
				cfg.Seeds = chaosSeeds
			}
			if dumpFaults {
				cfg.DumpFaults = os.Stdout
			}
			r, err := experiments.RunChaos(cfg)
			r.Print(os.Stdout)
			return err
		}},
		{"multitenant", "multi-tenant overload oracle: admission control, DRR fairness, deadlines (robustness suite)", func(quick bool) error {
			cfg := experiments.DefaultMultitenant()
			if quick {
				cfg.Seeds = 8
			}
			if chaosSeeds > 0 {
				cfg.Seeds = chaosSeeds
			}
			if dumpFaults {
				cfg.DumpFaults = os.Stdout
			}
			r, err := experiments.RunMultitenant(cfg)
			r.Print(os.Stdout)
			return err
		}},
		{"cachepolicy", "LRU vs DAG-aware eviction A/B: recomputes-after-eviction under cache exhaustion (robustness suite)", func(quick bool) error {
			cfg := experiments.DefaultCachePolicy()
			if quick {
				cfg.Seeds = 2
				cfg.Rounds = 6
			}
			if chaosSeeds > 0 {
				cfg.Seeds = chaosSeeds
			}
			r, err := experiments.RunCachePolicy(cfg)
			r.Print(os.Stdout)
			return err
		}},
		{"churn", "dynamic load/evict collection under correlated queries (Sec. I scenario)", func(bool) error {
			r, err := experiments.RunChurn(experiments.DefaultChurn())
			if err != nil {
				return err
			}
			r.Print(os.Stdout)
			return nil
		}},
		{"ablations", "design-choice sweeps beyond the paper (MCF, hysteresis, wait bound, relax factor)", func(bool) error {
			mcf, err := experiments.RunAblationMCF()
			if err != nil {
				return err
			}
			mcf.Print(os.Stdout)
			hyst, err := experiments.RunAblationHysteresis([]float64{1.5, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			experiments.PrintHysteresis(os.Stdout, hyst)
			waits, err := experiments.RunAblationLocalityWait([]time.Duration{
				0, 50 * time.Millisecond, 250 * time.Millisecond, time.Second, 3 * time.Second,
			})
			if err != nil {
				return err
			}
			experiments.PrintWait(os.Stdout, waits)
			relax, err := experiments.RunAblationRelax([]float64{1, 2, 3, 4, 8})
			if err != nil {
				return err
			}
			experiments.PrintRelax(os.Stdout, relax)
			place, err := experiments.RunAblationPlacement()
			if err != nil {
				return err
			}
			experiments.PrintPlacement(os.Stdout, place)
			return nil
		}},
	}
}

func main() {
	var (
		name  = flag.String("experiment", "", "experiment to run (fig1, fig7, ... or 'all')")
		quick = flag.Bool("quick", false, "smaller sweeps for a fast pass")
		list  = flag.Bool("list", false, "list available experiments")
		tsv   = flag.Bool("tsv", false, "emit machine-readable TSV where the figure has series data")
		night = flag.Bool("nightly", false, "deepen the chaos sweep (scheduled CI profile)")
		dumpF = flag.Bool("dump-faults", false, "print each chaos seed's armed fault schedule before it runs")
		seeds = flag.Int("seeds", 0, "override the chaos profile's fault-schedule count (0 keeps the profile default)")
	)
	flag.Parse()
	tsvOut = *tsv
	nightly = *night
	dumpFaults = *dumpF
	chaosSeeds = *seeds
	exps := experimentsList()
	if *list || *name == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-6s %s\n", e.name, e.about)
		}
		if *name == "" && !*list {
			fmt.Println("\nrun with -experiment <name> or -experiment all")
		}
		return
	}
	var failed bool
	for _, e := range exps {
		if *name != "all" && !strings.EqualFold(*name, e.name) {
			continue
		}
		start := time.Now() //starklint:ignore wallclock experiment harness reports real elapsed time, not simulated time
		fmt.Printf("== %s: %s ==\n", e.name, e.about)
		if err := e.run(*quick); err != nil {
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
