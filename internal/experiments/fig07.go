package experiments

import (
	"io"
	"time"

	"stark"
)

// Fig07Result reproduces Fig. 7: job delay of C.count as a function of the
// HashPartitioner's partition count — a U-shape where too few partitions
// starve parallelism and too many drown the scheduler in per-task overhead.
type Fig07Result struct {
	Partitions []int
	Delay      []time.Duration
}

// Fig07Config sizes the sweep.
type Fig07Config struct {
	Records    int
	SizeScale  float64
	Partitions []int
	Seed       int64
}

// DefaultFig07 sweeps the paper's 10^0..10^5 range.
func DefaultFig07() Fig07Config {
	return Fig07Config{
		Records:    40000,
		SizeScale:  175,
		Partitions: []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 100000},
		Seed:       1,
	}
}

// Quick is the -quick profile: one decade in four of the sweep.
func (c Fig07Config) Quick() Fig07Config {
	c.Partitions = []int{1, 16, 256, 4096, 65536}
	return c
}

// RunFig07 executes the sweep; each point uses a fresh cluster.
func RunFig07(cfg Fig07Config) (Fig07Result, error) {
	res := Fig07Result{Partitions: cfg.Partitions}
	lines := makeLogFile(cfg.Seed, cfg.Records)
	for _, n := range cfg.Partitions {
		ctx := stark.NewContext(
			stark.WithExecutors(8), stark.WithSlots(4),
			stark.WithSizeScale(cfg.SizeScale), stark.WithSeed(cfg.Seed),
		)
		a := ctx.TextFile("file", lines, 8)
		c := a.PartitionBy(stark.NewHashPartitioner(n)).Filter(isError).Cache()
		_, jm, err := c.Count()
		if err != nil {
			return res, err
		}
		res.Delay = append(res.Delay, jm.Makespan())
	}
	return res, nil
}

// Print emits the series.
func (r Fig07Result) Print(w io.Writer) {
	fprintf(w, "Fig 7: partition-count trade-off (paper: U-shape, min ~5s near 10^2-10^3, ~20s at 10^5)\n")
	fprintf(w, "  %10s  %s\n", "partitions", "delay")
	for i, n := range r.Partitions {
		fprintf(w, "  %10d  %s\n", n, fmtSec(r.Delay[i]))
	}
}

// Best returns the partition count with minimum delay.
func (r Fig07Result) Best() (int, time.Duration) {
	best, bd := 0, time.Duration(0)
	for i, n := range r.Partitions {
		if i == 0 || r.Delay[i] < bd {
			best, bd = n, r.Delay[i]
		}
	}
	return best, bd
}
