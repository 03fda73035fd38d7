package experiments

import (
	"fmt"
	"io"
)

// Machine-readable TSV emitters, one per figure with series data, so the
// harness output can feed plotting scripts directly
// (`starkbench -experiment fig19 -tsv > fig19.tsv`).

// tsvWriter writes rows until the first error, which it keeps.
type tsvWriter struct {
	w   io.Writer
	err error
}

func (t *tsvWriter) row(format string, args ...any) {
	if t.err == nil {
		_, t.err = fmt.Fprintf(t.w, format, args...)
	}
}

// WriteTSV emits `partitions \t delay_ms`.
func (r Fig07Result) WriteTSV(w io.Writer) error {
	t := &tsvWriter{w: w}
	t.row("partitions\tdelay_ms\n")
	for i, n := range r.Partitions {
		t.row("%d\t%d\n", n, r.Delay[i].Milliseconds())
	}
	return t.err
}

// WriteTSV emits `cogroup_k \t sparkH_ms \t starkH_ms`.
func (r Fig11Result) WriteTSV(w io.Writer) error {
	t := &tsvWriter{w: w}
	t.row("cogroup_k\tsparkH_ms\tstarkH_ms\n")
	for i, k := range r.Ks {
		t.row("%d\t%d\t%d\n", k, r.SparkH[i].Milliseconds(), r.StarkH[i].Milliseconds())
	}
	return t.err
}

// WriteTSV emits `step \t stark1_mb \t stark3_mb \t tachyon_mb`.
func (r Fig18Result) WriteTSV(w io.Writer) error {
	t := &tsvWriter{w: w}
	t.row("step\tstark1_mb\tstark3_mb\ttachyon_mb\n")
	for i := 0; i < r.Steps; i++ {
		t.row("%d\t%d\t%d\t%d\n", i+1, r.Stark1[i]>>20, r.Stark3[i]>>20, r.Tachyon[i]>>20)
	}
	return t.err
}

// WriteTSV emits `system \t rate_jobs_per_s \t mean_ms \t p95_ms`.
func (r Fig19Result) WriteTSV(w io.Writer) error {
	t := &tsvWriter{w: w}
	t.row("system\trate_jobs_per_s\tmean_ms\tp95_ms\n")
	for _, sys := range r.Systems {
		for _, pt := range r.Curves[sys] {
			t.row("%s\t%.0f\t%d\t%d\n", sys, pt.Rate, pt.MeanDelay.Milliseconds(), pt.P95Delay.Milliseconds())
		}
	}
	return t.err
}

// WriteTSV emits `hour \t <system>_ms ...` rows.
func (r Fig20Result) WriteTSV(w io.Writer) error {
	t := &tsvWriter{w: w}
	t.row("hour")
	for _, sys := range r.Systems {
		t.row("\t%s_ms", sys)
	}
	t.row("\n")
	if len(r.Systems) == 0 {
		return t.err
	}
	for i, pt := range r.Series[r.Systems[0]] {
		t.row("%.1f", pt.Hour)
		for _, sys := range r.Systems {
			t.row("\t%d", r.Series[sys][i].MeanDelay.Milliseconds())
		}
		t.row("\n")
	}
	return t.err
}
