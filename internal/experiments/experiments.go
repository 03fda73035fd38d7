// Package experiments reproduces every measured figure of the paper's
// evaluation (Sec. IV) on the simulated cluster. Each RunFigNN function
// returns a structured result whose Print method emits the same rows or
// series the paper plots; cmd/starkbench and the repository's benchmarks
// are thin wrappers around these functions.
//
// Absolute times depend on the calibrated cost model and will not match the
// authors' testbed; the claims under reproduction are the *shapes*: who
// wins, by what rough factor, and where crossovers happen. EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"stark"
)

// System names one of the paper's compared configurations (Sec. IV-A).
type System int

// The five evaluated configurations.
const (
	SparkR System = iota + 1 // fresh RangePartitioner per RDD
	SparkH                   // shared HashPartitioner, no co-locality
	StarkH                   // shared HashPartitioner + co-locality
	StarkS                   // shared StaticRangePartitioner + co-locality
	StarkE                   // Stark-S + extendable groups + MCF
)

// String renders the paper's configuration names.
func (s System) String() string {
	switch s {
	case SparkR:
		return "Spark-R"
	case SparkH:
		return "Spark-H"
	case StarkH:
		return "Stark-H"
	case StarkS:
		return "Stark-S"
	case StarkE:
		return "Stark-E"
	default:
		return "unknown"
	}
}

// UsesCoLocality reports whether the configuration enables the
// LocalityManager.
func (s System) UsesCoLocality() bool { return s == StarkH || s == StarkS || s == StarkE }

// contextOptions builds the engine options for a system on top of shared
// cluster options.
func contextOptions(sys System, groupBounds stark.Option, base ...stark.Option) []stark.Option {
	opts := append([]stark.Option{}, base...)
	switch sys {
	case StarkH, StarkS:
		opts = append(opts, stark.WithCoLocality())
	case StarkE:
		if groupBounds != nil {
			opts = append(opts, groupBounds)
		}
		opts = append(opts, stark.WithCoLocality(), stark.WithMCF())
	}
	return opts
}

// logLine fabricates a Wikipedia-like log record. About one line in ten is
// an ERROR line, feeding the Fig. 1 filter chain.
func logLine(rng *rand.Rand, i int) stark.Record {
	sev := "INFO "
	if i%10 == 0 {
		sev = "ERROR"
	}
	key := fmt.Sprintf("%02d:%02d:%02d", rng.Intn(24), rng.Intn(60), rng.Intn(60))
	val := fmt.Sprintf("%s request-%06d /wiki/article-%04d latency=%dms", sev, i, rng.Intn(3000), rng.Intn(500))
	return stark.Pair(key, val)
}

// makeLogFile builds n log records (~90 bytes each in-process).
func makeLogFile(seed int64, n int) []stark.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stark.Record, n)
	for i := range out {
		out[i] = logLine(rng, i)
	}
	return out
}

func isError(r stark.Record) bool {
	s, ok := r.Value.(string)
	return ok && strings.HasPrefix(s, "ERROR")
}

func fmtSec(d time.Duration) string { return fmt.Sprintf("%6.2fs", d.Seconds()) }

func fmtMs(d time.Duration) string { return fmt.Sprintf("%6.0fms", float64(d.Milliseconds())) }

func fprintf(w io.Writer, format string, args ...any) {
	// Experiment printing is best-effort; an error writing to stdout is not
	// actionable mid-report.
	_, _ = fmt.Fprintf(w, format, args...)
}

// keywordCountJob is the Sec. IV-B log-mining query: cogroup a range of
// trace RDDs and count items containing a keyword.
func keywordCountJob(ctx *stark.Context, p stark.Partitioner, rdds []*stark.RDD, keyword string) *stark.RDD {
	cg := ctx.CoGroup(p, rdds...)
	return cg.Filter(func(r stark.Record) bool {
		v, ok := r.Value.(stark.CoGrouped)
		if !ok {
			return false
		}
		for _, g := range v.Groups {
			for _, item := range g {
				if s, ok := item.(string); ok && strings.Contains(s, keyword) {
					return true
				}
			}
		}
		return false
	})
}

// ingestCollection loads hourly datasets into a context under the
// system's partitioning discipline and returns the partitioned cached RDDs
// plus the partitioner used for queries.
func ingestCollection(ctx *stark.Context, sys System, ns string, hours [][]stark.Record,
	hashParts int, staticBounds []string) ([]*stark.RDD, stark.Partitioner, error) {
	var shared stark.Partitioner
	switch sys {
	case SparkH, StarkH:
		shared = stark.NewHashPartitioner(hashParts)
	case StarkS, StarkE:
		shared = stark.NewStaticRangePartitioner(staticBounds)
	}
	if sys.UsesCoLocality() {
		groups := 1
		if sys == StarkE {
			groups = initialGroupsFor(len(staticBounds) + 1)
		}
		if err := ctx.RegisterNamespace(ns, shared, groups); err != nil {
			return nil, nil, err
		}
	}
	var out []*stark.RDD
	queryP := shared
	for h, recs := range hours {
		src := ctx.TextFile(fmt.Sprintf("%s-hour%d", ns, h), recs, ctx.NumExecutors())
		var r *stark.RDD
		switch sys {
		case SparkR:
			sample := sampleKeys(recs, 1024)
			fresh := stark.NewRangePartitioner(sample, hashParts)
			r = src.PartitionBy(fresh)
			queryP = fresh // queries must also fit some partitioner; use last
		case SparkH:
			r = src.PartitionBy(shared)
		default:
			r = src.LocalityPartitionBy(shared, ns)
		}
		r.Cache()
		if _, err := r.Materialize(); err != nil {
			return nil, nil, err
		}
		if sys == StarkE {
			if _, err := ctx.ReportRDD(r); err != nil {
				return nil, nil, err
			}
		}
		out = append(out, r)
	}
	return out, queryP, nil
}

// initialGroupsFor picks a power-of-two initial group count of about an
// eighth of the partition count, minimum 2.
func initialGroupsFor(parts int) int {
	g := 2
	for g*8 < parts {
		g *= 2
	}
	return g
}

func sampleKeys(recs []stark.Record, n int) []string {
	if len(recs) == 0 {
		return nil
	}
	stepSize := len(recs) / n
	if stepSize < 1 {
		stepSize = 1
	}
	var out []string
	for i := 0; i < len(recs); i += stepSize {
		out = append(out, recs[i].Key)
	}
	return out
}
