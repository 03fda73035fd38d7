package experiments

import (
	"io"
	"time"

	"stark"
)

// Fig01Result reproduces Fig. 1(b): the benefit of data locality on the
// two-filter chain of Fig. 1(a) over a ~700 MB text file.
//
//	C     — C.cache.count: load file, shuffle, filter (two stages).
//	D     — D.count with C cached: starts from cached C.
//	DMinus — D.count with the cache dropped: single stage, but restarts
//	         from the shuffle's reduce phase.
type Fig01Result struct {
	C      time.Duration
	D      time.Duration
	DMinus time.Duration
}

// Fig01Config sizes the experiment.
type Fig01Config struct {
	Records   int     // in-process log lines standing in for the file
	SizeScale float64 // simulated bytes per real byte (700 MB total)
	Seed      int64
}

// DefaultFig01 makes the in-process data stand in for the paper's 700 MB
// file: Records * ~105 B * SizeScale ~= 700 MB.
func DefaultFig01() Fig01Config {
	return Fig01Config{Records: 40000, SizeScale: 175, Seed: 1}
}

// RunFig01 executes the experiment.
func RunFig01(cfg Fig01Config) (Fig01Result, error) {
	build := func(cache bool) (c, d *stark.RDD) {
		ctx := stark.NewContext(
			stark.WithExecutors(8), stark.WithSlots(4),
			stark.WithSizeScale(cfg.SizeScale), stark.WithSeed(cfg.Seed),
		)
		lines := makeLogFile(cfg.Seed, cfg.Records)
		// val A = sc.textFile(...).map(_ => (getTime(_), _)); the file has
		// two on-disk blocks, matching the two-partition job in the paper.
		a := ctx.TextFile("file", lines, 2)
		// val B = A.partitionBy(new HashPartitioner(2))
		b := a.PartitionBy(stark.NewHashPartitioner(2))
		// val C = B.filter(_.startsWith("ERROR"))
		c = b.Filter(isError)
		// val D = C.filter(_.length > 30)
		d = c.Filter(func(r stark.Record) bool {
			s, ok := r.Value.(string)
			return ok && len(s) > 30
		})
		if cache {
			c.Cache()
		}
		return c, d
	}

	var res Fig01Result
	// Cached variant: C.cache.count; D.count.
	c, d := build(true)
	_, jmC, err := c.Count()
	if err != nil {
		return res, err
	}
	res.C = jmC.Makespan()
	_, jmD, err := d.Count()
	if err != nil {
		return res, err
	}
	res.D = jmD.Makespan()

	// Uncached variant: C.count ran (so shuffle outputs exist), then
	// D.count restarts from the reduce phase of B.
	c2, d2 := build(false)
	if _, _, err := c2.Count(); err != nil {
		return res, err
	}
	_, jmDm, err := d2.Count()
	if err != nil {
		return res, err
	}
	res.DMinus = jmDm.Makespan()
	return res, nil
}

// Print emits the three bars.
func (r Fig01Result) Print(w io.Writer) {
	fprintf(w, "Fig 1(b): data locality benefits (paper: C~17s, D~0.2s, D-~9s)\n")
	fprintf(w, "  C.count  (cold, two stages)      %s\n", fmtSec(r.C))
	fprintf(w, "  D.count  (C cached, local)       %s\n", fmtSec(r.D))
	fprintf(w, "  D-.count (locality violated)     %s\n", fmtSec(r.DMinus))
}
