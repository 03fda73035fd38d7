package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// options select what one in-process run of one workload does.
type options struct {
	seed    int64
	seconds float64 // length of the timed region of the end-to-end run
	trace   bool    // the traced/layers run: per-layer metrics only
	quick   bool    // tiny scenarios, 2 iterations, 1 traced, drivers at 1 batch
	drivers bool    // the traced run includes the layer drivers
	outDir  string  // where the traced run writes its trace and profile
}

// defaultSeconds is BENCHMARK.json's run_seconds; the traced run scales its
// fixed iteration counts by seconds/defaultSeconds.
const defaultSeconds = 25

type metric struct {
	name  string
	value float64
	unit  string
}

func (m metric) print() { fmt.Printf("  %-40s %14.4f %s\n", m.name, m.value, m.unit) }

// result is what one run reports: the contract's four keys.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	metrics   []metric
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// prepare is one set-up: generate the inputs and reference results from the
// seed, then run the warm-up iterations and hold each to the naive reference
// and to the first one's digest. It returns the scenario and that digest.
// With box non-nil it runs the box-speed probe before the generators, before
// every warm-up and after the last, between the set-up's own pieces of work as
// it runs between timed iterations, and appends the readings.
func prepare(w workload, o options, res *result, box *[]time.Duration) (scenario, iteration) {
	sample := func() {
		if box != nil {
			whole, _ := probe()
			*box = append(*box, whole)
		}
	}
	sample()
	sc := w.setup(o.seed, o.quick)
	var first iteration
	for i := 0; i < warmups; i++ {
		sample()
		it := sc.run(0, nil)
		if i == 0 {
			first = it
		}
		res.attempted += it.jobs
		res.failed += it.failed
		res.errs = append(res.errs, it.errs...)
		if err := checkReference(it, sc.want()); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("warm-up %d: %v", i, err))
		}
		if it.digest() != first.digest() {
			res.errs = append(res.errs, fmt.Sprintf("warm-up %d: digest %016x differs from warm-up 0's %016x", i, it.digest(), first.digest()))
		}
	}
	sample()
	return sc, first
}

func (r *result) fold(s sample) {
	r.attempted += s.jobs
	r.failed += s.failed
	r.errs = append(r.errs, s.errs...)
}

// runWorkload is one run of one workload: the end-to-end run, or with
// o.trace the traced/layers run.
func runWorkload(w workload, o options) (*result, error) {
	if err := initProbe(); err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(w, o)
	}
	return runEndToEnd(w, o)
}

// setupReps is how often the end-to-end run repeats set-up, so setup_s is a
// median like every other timing.
const setupReps = 3

func runEndToEnd(w workload, o options) (*result, error) {
	res := &result{workload: w.name}
	var sc scenario
	var first iteration
	// Each set-up is divided by the box-speed index of the probe passes
	// inside it (probe.go); the raw readings are printed below.
	var setups, rawSetups, setupProbe []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		var box []time.Duration
		t0 := now()
		sc, first = prepare(w, o, res, &box)
		wall := now() - t0
		for _, p := range box {
			wall -= p // the probe is not part of the set-up
		}
		rawSetups = append(rawSetups, wall)
		setups = append(setups, atReferenceSpeed(wall, median(box)))
		setupProbe = append(setupProbe, box...)
	}
	if err := checkGolden(w.name, o, sc.inputDigest(), first.digest()); err != nil {
		res.errs = append(res.errs, err.Error())
	}

	iters := 0
	if o.quick {
		iters = 2
	}
	s := measure(sc, iters, time.Duration(o.seconds*float64(time.Second)), 0, nil, first.digest())
	res.fold(s)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	n := float64(s.n())
	res.add("setup_s", median(setups).Seconds(), "s")
	res.add("iter_wall_ms_p50", ms(median(s.wallsAtReferenceSpeed())), "ms")
	res.add("alloc_mb_per_iter", float64(s.allocBytes)/n/(1<<20), "MiB")
	res.add("allocs_k_per_iter", float64(s.mallocs)/n/1000, "k")
	res.add("vdelay_ms_p50", ms(median(first.vdelays)), "ms")
	res.add("vdelay_ms_p95", ms(vdelayP95(first.vdelays)), "ms")
	res.add("vmakespan_ms", ms(first.vmakespan), "ms")

	fmt.Printf("%s seed %d: %d timed iterations, %d jobs an iteration, %d jobs attempted, %d failed (job_fail_pct %.3f)\n",
		w.name, o.seed, s.n(), first.jobs, res.attempted, res.failed, 100*float64(res.failed)/float64(max(res.attempted, 1)))
	fmt.Printf("  input_digest %016x result_digest %016x; alloc spread over iterations %.3f %%; peak rss %.1f MiB\n",
		sc.inputDigest(), first.digest(), 100*spread(s.allocPerIter), rss)
	fmt.Printf("  box speed: probe p50 %.3f ms beside the iterations, %.3f ms inside the set-ups, reference %.1f ms; calib p50 %.3f ms\n",
		ms(median(s.probe)), ms(median(setupProbe)), probeRefMs, ms(median(s.calib)))
	fmt.Printf("  as measured, before division by the box-speed index: set-up %.4f s, iteration wall ms: min %.3f p10 %.3f p25 %.3f p50 %.3f p75 %.3f\n",
		median(rawSetups).Seconds(), ms(quantile(s.walls, 0)), ms(quantile(s.walls, 0.10)), ms(quantile(s.walls, 0.25)), ms(median(s.walls)), ms(quantile(s.walls, 0.75)))
	return res, nil
}

// runTraced is the separate run that yields every per-layer metric: spans
// and counts from traced iterations, process.* from an untraced batch in the
// same process, the single-threaded baseline, the layer drivers, and the
// sampled CPU profile read back from outside. No end-to-end metric is taken
// here.
func runTraced(w workload, o options) (*result, error) {
	res := &result{workload: w.name}
	sc, first := prepare(w, o, res, nil)

	scale := o.seconds / defaultSeconds
	count := func(full int) int {
		if o.quick {
			return 1
		}
		return max(2, int(float64(full)*scale+0.5))
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	profPath := filepath.Join(o.outDir, "cpu-"+w.name+".pprof")
	profFile, err := os.Create(profPath)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	defer profFile.Close()
	if err := pprof.StartCPUProfile(profFile); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	tr := &tracer{}
	traced := measure(sc, count(8), 0, 0, tr, first.digest())
	untraced := measure(sc, count(8), 0, 0, nil, first.digest())
	pprof.StopCPUProfile()
	if err := profFile.Close(); err != nil {
		return nil, fmt.Errorf("traced run: close profile: %w", err)
	}
	par1 := measure(sc, count(5), 0, 1, nil, first.digest())
	res.fold(traced)
	res.fold(untraced)
	res.fold(par1)
	rss, err := peakRSSMiB() // before the rate sweep and the layer drivers add their own
	if err != nil {
		return nil, err
	}

	tracePath := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d traced: %d traced, %d untraced, %d parallelism-1 iterations; %s, %s\n",
		w.name, o.seed, traced.n(), untraced.n(), par1.n(), tracePath, profPath)
	tr.printSelfTimes()

	spanMetrics(res, tr, sc)
	countMetrics(res, traced)
	res.add("engine.job_fail_pct", 100*ratio(float64(res.failed), float64(res.attempted)), "%")
	res.add("engine.par1_wall_ratio", ratio(ms(median(par1.walls)), ms(median(untraced.walls))), "ratio")
	vrate := 0.0
	if tw, ok := sc.(*taxiWindow); ok && !o.quick {
		vrate = tw.rateAt800ms(o.seed)
	}
	res.add("engine.vrate_at_800ms", vrate, "1/s")
	if o.drivers {
		for _, m := range layerDrivers(o) {
			res.add(m.name, m.value, m.unit)
		}
	}
	if err := profileMetrics(res, profPath); err != nil {
		return nil, err
	}
	processMetrics(res, traced, untraced)
	res.add("process.peak_rss_mb", rss, "MiB")
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics reports the medians of the spans recorded around bench calls
// into the public API. A span a workload never opens reports 0.
func spanMetrics(res *result, tr *tracer, sc scenario) {
	p50 := func(name string) time.Duration { return median(tr.durations(name)) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	res.add("stark.new_context_ms", ms(p50("stark.new_context")), "ms")
	res.add("stark.source_build_ms", ms(p50("stark.source_build")), "ms")
	ingest := p50("stream.ingest")
	res.add("stream.ingest_ms_p50", ms(ingest), "ms")
	krec := 0.0
	if tw, ok := sc.(*taxiWindow); ok && ingest > 0 {
		krec = tw.medianStepRecords() / 1000 / ingest.Seconds()
	}
	res.add("stream.ingest_krec_per_s", krec, "k/s")
	res.add("engine.query_burst_ms_p50", ms(p50("engine.query_burst")), "ms")
	res.add("engine.job_wall_ms_p50", ms(p50("engine.job")), "ms")
	res.add("session.submit_us_p50", us(p50("session.submit")), "us")
	res.add("session.drain_ms_p50", ms(p50("session.drain")), "ms")
}

// countMetrics reports the exact per-iteration counters of the first traced
// iteration; they are identical on every iteration because the digest is.
func countMetrics(res *result, traced sample) {
	c := traced.first.c
	wall := median(traced.walls).Seconds()
	pct := func(part, rest int64) float64 {
		if part+rest == 0 {
			return 0
		}
		return 100 * float64(part) / float64(part+rest)
	}
	res.add("engine.jobs", float64(c.eng.Jobs), "count")
	res.add("engine.tasks", float64(c.eng.Tasks), "count")
	res.add("engine.tasks_per_s", ratio(float64(c.eng.Tasks), wall), "1/s")
	res.add("engine.local_task_pct", pct(int64(c.eng.LocalTasks), int64(c.eng.RemoteTasks)), "%")
	res.add("engine.cache_hit_pct", pct(c.eng.CacheHits, c.eng.CacheMisses), "%")
	res.add("engine.bytes_shuffled_mb", float64(c.eng.BytesShuffled)/(1<<20), "MiB")
	res.add("engine.vcompute_ms", ms(c.eng.ComputeTime), "ms")
	res.add("engine.vgc_ms", ms(c.eng.GCTime), "ms")
	res.add("engine.vshuffle_ms", ms(c.eng.ShuffleTime), "ms")
	res.add("cluster.cache_refusals", float64(c.cache.CacheRefusals), "count")
	res.add("cluster.recomputes_after_eviction", float64(c.cache.RecomputesAfterEviction), "count")
	res.add("cluster.pinned_blocked", float64(c.cache.PinnedEvictionsBlocked), "count")
	res.add("engine.task_retries", float64(c.rec.TaskRetries), "count")
	res.add("engine.stage_resubmits", float64(c.rec.StageResubmissions), "count")
	res.add("engine.spec_launches", float64(c.rec.SpeculativeLaunches), "count")
	res.add("engine.recovery_vdelay_ms_max", ms(c.maxRecoveryDelay), "ms")
	res.add("engine.driver_restarts", float64(c.rec.DriverRestarts), "count")
	res.add("journal.records_replayed", float64(c.rec.JournalRecordsReplayed), "count")
	res.add("journal.torn_tails", float64(c.rec.JournalTornTails), "count")
	res.add("net.sent", float64(c.net.Sent), "count")
	res.add("net.retransmits", float64(c.net.Retransmits), "count")
	res.add("fault.injected", float64(c.faults), "count")
	res.add("session.admitted", float64(c.srv.Admitted), "count")
	res.add("session.shed", float64(c.srv.Shed), "count")
	res.add("session.deadline_exceeded", float64(c.srv.DeadlineExceeded), "count")
	res.add("session.dedup_subs", float64(c.srv.DedupSubscriptions), "count")
	res.add("session.vqueue_ms_p99", ms(quantile(c.srv.QueueDelays, 0.99)), "ms")
}

// processMetrics reports what the process as a whole did per untraced
// iteration, plus the tracing overhead.
func processMetrics(res *result, traced, untraced sample) {
	n := float64(untraced.n())
	p50 := median(untraced.walls)
	res.add("process.cpu_ms_per_iter", ms(untraced.cpu)/n, "ms")
	res.add("process.gc_cycles_per_iter", float64(untraced.gcCycles)/n, "count")
	res.add("process.gc_pause_ms_per_iter", ms(untraced.gcPause)/n, "ms")
	res.add("process.heap_inuse_peak_mb", float64(untraced.heapInusePeak)/(1<<20), "MiB")
	res.add("process.iter_wall_ms_min", ms(quantile(untraced.walls, 0)), "ms")
	res.add("process.iter_wall_ms_p75", ms(quantile(untraced.walls, 0.75)), "ms")
	res.add("process.iter_wall_iqr_pct", 100*ratio(ms(quantile(untraced.walls, 0.75)-quantile(untraced.walls, 0.25)), ms(p50)), "%")
	res.add("process.calib_ms_p50", ms(median(untraced.calib)), "ms")
	res.add("process.probe_ms_p50", ms(median(untraced.probe)), "ms")
	res.add("process.trace_overhead_pct", 100*(ratio(ms(median(traced.walls)), ms(p50))-1), "%")
}
