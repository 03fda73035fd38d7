// Package experiments reproduces every measured figure of the paper's
// evaluation (Sec. IV) on the simulated cluster. Each Run* function takes
// its experiment's config — Default* is the full profile, the config's Quick
// method (if any) the -quick one — and returns a result whose Print method
// emits the rows or series the paper plots, and whose WriteTSV method, where
// the figure has series data, emits them as TSV; cmd/starkbench is one table
// over these functions.
//
// The harness has one way to do each shared thing: a collection loads
// datasets under a System's partitioning discipline, sweep drives a seeded
// fault sweep, recoverInto turns a panic into a run's error, and addCounts
// sums the stats values runs return.
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
	"reflect"
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

// collection is a dataset collection loaded under one system's partitioning
// discipline (Sec. IV-A): Spark-R fits a fresh RangePartitioner to every
// dataset, Spark-H hash-partitions by the shared partitioner p without
// co-locality, and the Stark systems LocalityPartitionBy p under namespace
// ns, Stark-E also reporting each dataset's sizes to the group manager.
type collection struct {
	ctx  *stark.Context
	sys  System
	ns   string
	p    stark.Partitioner
	rdds []*stark.RDD // loaded datasets, oldest first

	// queryP is the partitioner queries over the collection use: p, or for
	// Spark-R the range partitioner fitted to the last dataset loaded.
	queryP stark.Partitioner
	// changes counts the group splits and merges Stark-E's reports caused.
	changes int
}

// newCollection opens an empty collection; the co-located systems register
// ns over p with groups initial groups.
func newCollection(ctx *stark.Context, sys System, ns string, p stark.Partitioner, groups int) (*collection, error) {
	c := &collection{ctx: ctx, sys: sys, ns: ns, p: p, queryP: p}
	if sys.UsesCoLocality() {
		return c, ctx.RegisterNamespace(ns, p, groups)
	}
	return c, nil
}

// load adds one dataset: recs read as a TextFile of srcParts partitions,
// partitioned under the collection's discipline, cached and materialized.
// Spark-R's fresh partitioner has p's partition count.
func (c *collection) load(name string, recs []stark.Record, srcParts int) (*stark.RDD, error) {
	src := c.ctx.TextFile(name, recs, srcParts)
	var r *stark.RDD
	switch c.sys {
	case SparkR:
		c.queryP = stark.NewRangePartitioner(sampleKeys(recs, 1024), c.p.NumPartitions())
		r = src.PartitionBy(c.queryP)
	case SparkH:
		r = src.PartitionBy(c.p)
	default:
		r = src.LocalityPartitionBy(c.p, c.ns)
	}
	r.Cache()
	if _, err := r.Materialize(); err != nil {
		return nil, err
	}
	if c.sys == StarkE {
		ch, err := c.ctx.ReportRDD(r)
		if err != nil {
			return nil, err
		}
		c.changes += len(ch)
	}
	c.rdds = append(c.rdds, r)
	return r, nil
}

// recoverInto is deferred by every seeded workload: a panic that reaches
// the harness's driver becomes the run's error, so one broken seed is a
// reported violation instead of a crashed sweep.
func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic reached driver: %v", p)
	}
}

// sweep is the seeded-sweep driver of the robustness oracles: for each seed
// in [first, first+n) it builds schedule(seed) — fixed over the caller's
// fault-free oracle run — prints it to dump under header (a format taking
// the seed) when dump is set, and hands run the option that arms it.
func sweep(first, n int, dump io.Writer, header string,
	schedule func(seed int64) stark.FaultSchedule, run func(seed int64, faults stark.Option)) {
	for seed := int64(first); seed < int64(first+n); seed++ {
		sched := schedule(seed)
		if dump != nil {
			fprintf(dump, header, seed)
			for _, line := range sched.Describe() {
				fprintf(dump, "  %s\n", line)
			}
		}
		run(seed, stark.WithFaults(sched))
	}
}

// addCounts adds every int field of *src to the same field of *dst: summed
// over runs, a stats value (FaultStats, RecoveryStats, CacheStats) is that
// value with its counters added. Other fields are left alone.
func addCounts[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Int {
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
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
