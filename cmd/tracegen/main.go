// Command tracegen emits the synthetic traces the experiments run on, in
// the repository's TSV trace format (`tag \t index \t key \t value`), so
// they can be inspected or fed to other tools.
//
// Usage:
//
//	tracegen -trace wikipedia -hours 3 > wiki.tsv
//	tracegen -trace taxi -steps 12 > taxi.tsv
//	tracegen -trace merged -steps 2 | head
package main

import (
	"flag"
	"fmt"
	"os"

	"stark"
	"stark/internal/record"
	"stark/internal/workload"
)

func run() error {
	var (
		trace = flag.String("trace", "wikipedia", "wikipedia | taxi | merged")
		hours = flag.Int("hours", 1, "hours to emit (wikipedia)")
		steps = flag.Int("steps", 1, "timesteps to emit (taxi, merged)")
		seed  = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	emit := func(tag string, i int, recs []record.Record) error {
		return workload.WriteTSV(os.Stdout, tag, i, recs)
	}

	switch *trace {
	case "wikipedia":
		g := stark.DefaultWikipediaTrace()
		g.Seed = *seed
		for h := 0; h < *hours; h++ {
			if err := emit("wiki", h, g.Hour(h)); err != nil {
				return err
			}
		}
	case "taxi":
		g := stark.DefaultTaxiTrace()
		g.Seed = *seed
		for s := 0; s < *steps; s++ {
			if err := emit("taxi", s, g.Step(s)); err != nil {
				return err
			}
		}
	case "merged":
		taxi := stark.DefaultTaxiTrace()
		taxi.Seed = *seed
		tw := stark.DefaultTwitterTrace()
		for s := 0; s < *steps; s++ {
			if err := emit("merged", s, stark.MergedTaxiTweets(taxi, tw, s)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown trace %q", *trace)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
