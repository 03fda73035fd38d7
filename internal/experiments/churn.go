package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"stark"
	"stark/internal/workload"
)

// ChurnResult quantifies the Sec. I forensics scenario: a collection that
// continuously loads and evicts datasets while serving correlated queries.
// It compares co-locality on vs off on the same churn schedule — the
// "dynamic dataset collection" stressed end to end.
type ChurnResult struct {
	Cycles int
	// MeanDelay per configuration.
	WithCoLocality    time.Duration
	WithoutCoLocality time.Duration
	// HitRate per configuration (cache hits over cache-intended reads).
	HitWith    float64
	HitWithout float64
}

// ChurnConfig sizes the scenario.
type ChurnConfig struct {
	Cycles          int
	LiveDatasets    int
	QueriesPerCycle int
	Seed            int64
}

// DefaultChurn keeps eight datasets live across twelve load/evict cycles.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{Cycles: 12, LiveDatasets: 8, QueriesPerCycle: 3, Seed: 23}
}

// RunChurn drives the load→query→evict loop under both configurations.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	gen := workload.DefaultSyslog()
	gen.LinesPerDataset = 6000

	run := func(coloc bool) (time.Duration, float64, error) {
		opts := []stark.Option{
			stark.WithExecutors(8), stark.WithSlots(4),
			stark.WithSizeScale(420),
			stark.WithMemory(4 << 30),
			stark.WithLocalityWait(250 * time.Millisecond),
			stark.WithSeed(cfg.Seed),
		}
		if coloc {
			opts = append(opts, stark.WithCoLocality(), stark.WithMCF())
		}
		ctx := stark.NewContext(opts...)
		sys := SparkH // stock placement loads like Spark-H, co-locality like Stark-H
		if coloc {
			sys = StarkH
		}
		c, err := newCollection(ctx, sys, "churn", stark.NewHashPartitioner(16), 1)
		if err != nil {
			return 0, 0, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		loadOne := func(i int) error {
			service := gen.Services[i%len(gen.Services)]
			_, err := c.load(fmt.Sprintf("%s-%d", service, i), gen.Dataset(service, i), 8)
			return err
		}
		for i := 0; i < cfg.LiveDatasets; i++ {
			if err := loadOne(i); err != nil {
				return 0, 0, err
			}
		}
		var delays []time.Duration
		next := cfg.LiveDatasets
		for cycle := 0; cycle < cfg.Cycles; cycle++ {
			// Evict the oldest, load a fresh dataset.
			c.rdds[0].Unpersist()
			c.rdds = c.rdds[1:]
			if err := loadOne(next); err != nil {
				return 0, 0, err
			}
			next++
			for q := 0; q < cfg.QueriesPerCycle; q++ {
				k := 2 + rng.Intn(3)
				lo := rng.Intn(len(c.rdds) - k + 1)
				query := ctx.CoGroup(c.p, c.rdds[lo:lo+k]...)
				_, jm, err := query.Count()
				if err != nil {
					return 0, 0, err
				}
				delays = append(delays, jm.Makespan())
			}
		}
		var sum time.Duration
		for _, d := range delays {
			sum += d
		}
		st := ctx.Stats()
		return sum / time.Duration(len(delays)), st.CacheHitRate(), nil
	}

	res := ChurnResult{Cycles: cfg.Cycles}
	var err error
	if res.WithCoLocality, res.HitWith, err = run(true); err != nil {
		return res, err
	}
	if res.WithoutCoLocality, res.HitWithout, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// Print emits the comparison.
func (r ChurnResult) Print(w io.Writer) {
	fprintf(w, "Churn: dynamic load/evict collection with correlated queries (Sec. I forensics scenario)\n")
	fprintf(w, "  %-16s %10s %9s\n", "config", "mean", "cacheHit")
	fprintf(w, "  %-16s %s %8.0f%%\n", "co-locality", fmtMs(r.WithCoLocality), r.HitWith*100)
	fprintf(w, "  %-16s %s %8.0f%%\n", "stock placement", fmtMs(r.WithoutCoLocality), r.HitWithout*100)
}
