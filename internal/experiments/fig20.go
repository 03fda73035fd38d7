package experiments

import (
	"io"
	"math/rand"
	"time"

	"stark"
	"stark/internal/workload"
)

// Fig20Config replays the taxi trace at real (virtual) speed for a day:
// 5-minute timesteps with the diurnal volume curve, queries at a fixed 20
// jobs/s sampled in bursts, per Sec. IV-E's final experiment.
type Fig20Config struct {
	Throughput ThroughputConfig
	// Hours of trace to replay.
	Hours int
	// StepsPerHour fixes the timestep cadence (12 = 5-minute steps).
	StepsPerHour int
	// QueryRate is the offered load during measurement bursts.
	QueryRate float64
	// BurstQueries is how many queries each sampling burst issues.
	BurstQueries int
	// BurstsPerHour is the sampling frequency.
	BurstsPerHour int
}

// DefaultFig20 matches the paper's 24 h replay at 20 jobs/s.
func DefaultFig20() Fig20Config {
	tp := DefaultThroughput()
	return Fig20Config{
		Throughput:    tp,
		Hours:         24,
		StepsPerHour:  12,
		QueryRate:     20,
		BurstQueries:  20,
		BurstsPerHour: 2,
	}
}

// Quick is the -quick profile: six hours, one burst per hour.
func (c Fig20Config) Quick() Fig20Config {
	c.Hours = 6
	c.BurstsPerHour = 1
	return c
}

// Fig20Point is one sampled bucket.
type Fig20Point struct {
	Hour      float64
	MeanDelay time.Duration
}

// Fig20Result holds the delay-over-time series per system.
type Fig20Result struct {
	Systems []System
	Series  map[System][]Fig20Point
}

// RunFig20 replays the day per system. Spark-R is excluded as in the paper
// ("due to the unacceptably high response time and low throughput ... the
// experiment excludes the Spark-R baseline").
func RunFig20(cfg Fig20Config) (Fig20Result, error) {
	res := Fig20Result{
		Systems: []System{SparkH, StarkH, StarkE},
		Series:  make(map[System][]Fig20Point),
	}
	tp := cfg.Throughput
	taxi := workload.DefaultTaxi()
	taxi.Seed = tp.Seed
	taxi.EventsPerStep = tp.EventsPerStep
	taxi.StepsPerHour = cfg.StepsPerHour

	totalSteps := cfg.Hours * cfg.StepsPerHour
	// Every system warms the same full window at nadir volume, then replays
	// the day.
	warm := throughputWindow(tp, func(int) int { return taxi.StepVolume(0) })
	for _, sys := range res.Systems {
		ts, err := setupThroughput(tp, sys, warm)
		if err != nil {
			return res, err
		}
		rng := rand.New(rand.NewSource(tp.Seed + int64(sys)))
		stepsBetweenBursts := cfg.StepsPerHour / cfg.BurstsPerHour
		if stepsBetweenBursts < 1 {
			stepsBetweenBursts = 1
		}
		for step := 0; step < totalSteps; step++ {
			// Ingest the step at its diurnal volume (the stream evicts
			// beyond the window automatically).
			t2 := taxi
			t2.EventsPerStep = taxi.StepVolume(step)
			recs := workload.MergedStep(t2, workload.DefaultTwitter(), tp.WindowSteps+step)
			ts.ingest(tp.WindowSteps+step, recs)
			ts.ctx.Drain()

			if step%stepsBetweenBursts != 0 {
				continue
			}
			inter := time.Duration(float64(time.Second) / cfg.QueryRate)
			results := ts.ctx.OpenLoop(inter, cfg.BurstQueries, func(i int) *stark.RDD {
				return ts.makeQuery(rng)
			})
			res.Series[sys] = append(res.Series[sys], Fig20Point{
				Hour:      float64(step) / float64(cfg.StepsPerHour),
				MeanDelay: stark.MeanDelay(results),
			})
		}
	}
	return res, nil
}

// Print emits the series.
func (r Fig20Result) Print(w io.Writer) {
	fprintf(w, "Fig 20: delay over a 24h replay at 20 jobs/s (paper: Spark-H crosses 800ms at peaks; Stark-H <200ms; Stark-E flattest under growth)\n")
	fprintf(w, "  %6s", "hour")
	for _, sys := range r.Systems {
		fprintf(w, " %10s", sys)
	}
	fprintf(w, "\n")
	if len(r.Series[r.Systems[0]]) == 0 {
		return
	}
	for i := range r.Series[r.Systems[0]] {
		fprintf(w, "  %6.1f", r.Series[r.Systems[0]][i].Hour)
		for _, sys := range r.Systems {
			fprintf(w, " %s", fmtMs(r.Series[sys][i].MeanDelay))
		}
		fprintf(w, "\n")
	}
}
