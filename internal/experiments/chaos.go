package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"stark"
)

// ChaosConfig parameterizes the chaos harness: a deterministic multi-stage
// workload is run once fault-free (the oracle), then once per seed under a
// randomized-but-deterministic fault schedule (executor crashes and
// restarts, stragglers, transient storage errors, lost or corrupted
// shuffle/checkpoint blocks, network partitions, message drops, and delay
// windows). Every run — oracle included — uses heartbeat failure detection
// over a simulated control network. Every faulted run must produce results
// bit-identical to the oracle, finish without a panic reaching the driver,
// and keep every measured recovery delay (detection latency included)
// within Bound.
type ChaosConfig struct {
	Seeds     int // fault schedules to run
	Executors int
	Slots     int
	Parts     int // partitions per RDD
	Records   int
	Steps     int           // query jobs after the build job
	Bound     time.Duration // recovery delay bound r (also the checkpoint bound)

	// StreamSteps sizes the stream-continuity sweep: a windowed stream
	// ingests this many timesteps under driver-crash-only schedules, and the
	// surviving window's contents must be bit-identical to the fault-free
	// stream oracle. 0 disables the sweep.
	StreamSteps int

	// DumpFaults, when non-nil, receives every seed's armed fault schedule
	// (kind, virtual time, target) before that seed runs.
	DumpFaults io.Writer
}

// DefaultChaos mirrors the scale of the paper's cluster runs while staying
// fast enough for CI.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Seeds:       30,
		Executors:   6,
		Slots:       2,
		Parts:       12,
		Records:     4000,
		Steps:       6,
		StreamSteps: 6,
		Bound:       5 * time.Second,
	}
}

// NightlyChaos deepens the sweep for the scheduled CI profile: four times
// the schedules and a longer workload per schedule.
func NightlyChaos() ChaosConfig {
	cfg := DefaultChaos()
	cfg.Seeds = 120
	cfg.Steps = 8
	return cfg
}

// Quick trims the default or nightly profile for -quick: 20 schedules over
// a four-step workload.
func (c ChaosConfig) Quick() ChaosConfig {
	c.Seeds = 20
	c.Steps = 4
	return c
}

// ChaosResult reports the harness outcome.
type ChaosResult struct {
	Cfg    ChaosConfig
	Oracle string // fault-free result fingerprint

	// Violations lists seeds that diverged from the oracle, errored, or
	// exceeded the recovery bound, with a reason each.
	Violations []string

	// Faults, Recovery and Cache sum the int counters of every seeded run
	// of the main sweep (Recovery's delay lists stay empty: MaxDetect and
	// MaxDelay keep the maxima). The stream sweep adds only its driver-domain
	// counters: driver crashes and restarts, journal records replayed, torn
	// tails.
	Faults    stark.FaultStats
	Recovery  stark.RecoveryStats
	Cache     stark.CacheStats
	MaxDetect time.Duration // largest failure-detection delay, main sweep

	StreamOracle string // fault-free stream-window fingerprint

	MaxDelay time.Duration // largest recovery delay seen over all seeds
	Horizon  time.Duration // fault window (the oracle's virtual makespan)
}

type chaosRun struct {
	fingerprint string
	end         time.Duration
	err         error
	rec         stark.RecoveryStats
	cache       stark.CacheStats
	faults      stark.FaultStats
}

// violation checks one seeded run against the recovery contract and says
// how it broke it — an error, a fingerprint (named what) other than the
// oracle's, or a recovery delay over the bound — or "" when it held.
func (run chaosRun) violation(what, oracle string, bound time.Duration) string {
	switch {
	case run.err != nil:
		return run.err.Error()
	case run.fingerprint != oracle:
		return fmt.Sprintf("%s %s != oracle %s", what, run.fingerprint, oracle)
	case run.rec.MaxRecoveryDelay() > bound:
		return fmt.Sprintf("recovery delay %v exceeds bound %v", run.rec.MaxRecoveryDelay(), bound)
	}
	return ""
}

// chaosContext builds a context for either chaos workload: control traffic
// rides a lossy-capable network and failures are detected via heartbeats,
// and the driver itself is a fault domain that journals its commit points
// so seeded driver crashes can replay — in the oracles too, so fingerprints
// are compared under identical machinery.
func chaosContext(cfg ChaosConfig, opts ...stark.Option) *stark.Context {
	base := []stark.Option{
		stark.WithExecutors(cfg.Executors),
		stark.WithSlots(cfg.Slots),
		stark.WithSeed(7),
		stark.WithNetwork(stark.NetworkConfig{
			BaseDelay: 200 * time.Microsecond,
			Jitter:    300 * time.Microsecond,
		}),
		stark.WithHeartbeat(40*time.Millisecond, 120*time.Millisecond, 300*time.Millisecond),
		stark.WithDriverRecovery(),
	}
	return stark.NewContext(append(base, opts...)...)
}

// chaosWorkload runs the harness workload on a fresh context: build a
// cached base dataset, shuffle it into per-key sums, then issue Steps query
// jobs (filter + aggregate + join) and a final collect. The returned
// fingerprint hashes every job's result, so any lost update, duplicate, or
// reordering shows up.
func chaosWorkload(cfg ChaosConfig, opts ...stark.Option) (run chaosRun) {
	defer recoverInto(&run.err)
	ctx := chaosContext(cfg, append([]stark.Option{
		stark.WithCheckpointing(cfg.Bound, 1),
		stark.WithSpeculation(1.5, 0.75),
	}, opts...)...)
	defer func() {
		run.rec = ctx.RecoveryStats()
		run.cache = ctx.CacheStats()
		run.faults = ctx.FaultStats()
		run.end = ctx.Now()
	}()

	recs := make([]stark.Record, cfg.Records)
	for i := range recs {
		recs[i] = stark.Pair(fmt.Sprintf("k%04d", i%211), i)
	}
	src := ctx.TextFile("events", recs, cfg.Parts)
	scaled := src.Map(func(r stark.Record) stark.Record {
		return stark.Pair(r.Key, r.Value.(int)*3+1)
	}).Cache()
	p := stark.NewHashPartitioner(cfg.Parts)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	sums := scaled.ReduceByKey(p, sum).Cache()

	h := fnv.New64a()
	total, _, err := sums.Count()
	if err != nil {
		run.err = fmt.Errorf("build job: %w", err)
		return run
	}
	fmt.Fprintf(h, "total=%d;", total)

	for s := 0; s < cfg.Steps; s++ {
		step := s
		slice := scaled.Filter(func(r stark.Record) bool {
			return r.Value.(int)%cfg.Steps == step
		}).ReduceByKey(p, sum)
		joined := slice.Join(p, sums)
		n, _, err := joined.Count()
		if err != nil {
			run.err = fmt.Errorf("step %d: %w", step, err)
			return run
		}
		fmt.Fprintf(h, "s%d=%d;", step, n)
	}

	out, _, err := sums.Collect()
	if err != nil {
		run.err = fmt.Errorf("final collect: %w", err)
		return run
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	for _, r := range out {
		fmt.Fprintf(h, "%s=%d;", r.Key, r.Value.(int))
	}
	run.fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return run
}

// RunChaos executes the chaos harness: the fault-free oracle first (which
// also fixes the fault window to the oracle's virtual makespan), then one
// run per seed. It returns an error when any seed violates the contract, so
// callers exit nonzero.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	res := ChaosResult{Cfg: cfg}
	oracle := chaosWorkload(cfg)
	if oracle.err != nil {
		return res, fmt.Errorf("chaos oracle run failed: %w", oracle.err)
	}
	res.Oracle = oracle.fingerprint
	res.Horizon = oracle.end

	sweep(0, cfg.Seeds, cfg.DumpFaults, "seed %d fault schedule:\n",
		func(seed int64) stark.FaultSchedule {
			return stark.RandomFaultSchedule(seed, res.Horizon, cfg.Executors).
				WithNetFaults(seed, res.Horizon, cfg.Executors).
				WithDriverFaults(seed, res.Horizon).
				WithMemFaults(seed, res.Horizon, cfg.Executors)
		},
		func(seed int64, faults stark.Option) {
			run := chaosWorkload(cfg, faults)
			if v := run.violation("fingerprint", res.Oracle, cfg.Bound); v != "" {
				res.Violations = append(res.Violations, fmt.Sprintf("seed %d: %s", seed, v))
			}
			addCounts(&res.Faults, &run.faults)
			addCounts(&res.Recovery, &run.rec)
			addCounts(&res.Cache, &run.cache)
			res.MaxDetect = max(res.MaxDetect, run.rec.MaxDetectionDelay())
			res.MaxDelay = max(res.MaxDelay, run.rec.MaxRecoveryDelay())
		})
	runChaosStream(cfg, &res)
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("chaos: %d of %d seeds violated the recovery contract",
			len(res.Violations), cfg.Seeds)
	}
	return res, nil
}

// chaosStreamWorkload runs the stream-continuity workload: a windowed
// co-located stream ingests StreamSteps deterministic micro-batches, then
// the surviving window's step RDDs are collected and fingerprinted — so a
// driver crash mid-window must come back with exactly the same live steps
// holding exactly the same records.
func chaosStreamWorkload(cfg ChaosConfig, opts ...stark.Option) (run chaosRun) {
	defer recoverInto(&run.err)
	ctx := chaosContext(cfg, append([]stark.Option{stark.WithCoLocality()}, opts...)...)
	defer func() {
		run.rec = ctx.RecoveryStats()
		run.faults = ctx.FaultStats()
		run.end = ctx.Now()
	}()

	window := 3
	s, err := ctx.NewStream(stark.StreamConfig{
		Name:        "chaos-stream",
		Partitioner: stark.NewHashPartitioner(cfg.Parts),
		Namespace:   "chaos-stream",
		Window:      window,
	})
	if err != nil {
		run.err = fmt.Errorf("stream setup: %w", err)
		return run
	}
	h := fnv.New64a()
	for step := 0; step < cfg.StreamSteps; step++ {
		recs := make([]stark.Record, cfg.Records/cfg.StreamSteps)
		for i := range recs {
			recs[i] = stark.Pair(fmt.Sprintf("k%04d", (i*7+step)%173), step*100000+i)
		}
		s.Ingest(step, recs)
		ctx.Drain()
	}
	// Fingerprint the surviving window: which steps are live and, for each,
	// the full sorted contents.
	for step := 0; step < cfg.StreamSteps; step++ {
		r := s.Step(step)
		if r == nil {
			fmt.Fprintf(h, "s%d=dead;", step)
			continue
		}
		out, _, err := r.Collect()
		if err != nil {
			run.err = fmt.Errorf("window collect step %d: %w", step, err)
			return run
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Key != out[b].Key {
				return out[a].Key < out[b].Key
			}
			return out[a].Value.(int) < out[b].Value.(int)
		})
		fmt.Fprintf(h, "s%d:", step)
		for _, r := range out {
			fmt.Fprintf(h, "%s=%d;", r.Key, r.Value.(int))
		}
	}
	run.fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return run
}

// runChaosStream executes the stream-continuity sweep: a fault-free stream
// oracle, then one run per seed under a driver-crash-only schedule. Window
// divergence, errors, and bound violations append to res.Violations.
func runChaosStream(cfg ChaosConfig, res *ChaosResult) {
	if cfg.StreamSteps <= 0 {
		return
	}
	oracle := chaosStreamWorkload(cfg)
	if oracle.err != nil {
		res.Violations = append(res.Violations,
			fmt.Sprintf("stream oracle: %v", oracle.err))
		return
	}
	res.StreamOracle = oracle.fingerprint
	sweep(0, cfg.Seeds, cfg.DumpFaults, "stream seed %d fault schedule:\n",
		func(seed int64) stark.FaultSchedule { return stark.FaultSchedule{}.WithDriverFaults(seed, oracle.end) },
		func(seed int64, faults stark.Option) {
			run := chaosStreamWorkload(cfg, faults)
			if v := run.violation("window fingerprint", res.StreamOracle, cfg.Bound); v != "" {
				res.Violations = append(res.Violations, fmt.Sprintf("stream seed %d: %s", seed, v))
			}
			res.Recovery.DriverCrashes += run.rec.DriverCrashes
			res.Recovery.DriverRestarts += run.rec.DriverRestarts
			res.Recovery.JournalRecordsReplayed += run.rec.JournalRecordsReplayed
			res.Recovery.JournalTornTails += run.rec.JournalTornTails
			res.MaxDelay = max(res.MaxDelay, run.rec.MaxRecoveryDelay())
		})
}

// Print emits the chaos summary.
func (r ChaosResult) Print(w io.Writer) {
	fprintf(w, "Chaos: %d randomized fault schedules vs fault-free oracle (bound r=%v)\n",
		r.Cfg.Seeds, r.Cfg.Bound)
	fprintf(w, "  oracle fingerprint %s, fault window %v (virtual)\n", r.Oracle, r.Horizon)
	f, rec, c := r.Faults, r.Recovery, r.Cache
	fprintf(w, "  faults injected: crashes=%d restarts=%d stragglers=%d blockLoss=%d blockCorrupt=%d storageErr=%d\n",
		f.Crashes, f.Restarts, f.Stragglers, f.BlocksDropped, f.BlocksCorrupted, f.StorageErrors)
	fprintf(w, "  network faults:  partitions=%d heals=%d delayWindows=%d msgDrops=%d\n",
		f.Partitions, f.Heals, f.DelayWindows, f.MsgDrops)
	fprintf(w, "  recovery work:   taskFail=%d retries=%d fetchFail=%d resubmits=%d spec=%d/%d blacklists=%d\n",
		rec.TaskFailures, rec.TaskRetries, rec.FetchFailures, rec.StageResubmissions,
		rec.SpeculativeWins, rec.SpeculativeLaunches, rec.ExecutorBlacklists)
	fprintf(w, "  detection:       suspect=%d cleared=%d dead=%d rejoin=%d staleEpoch=%d corruptReads=%d maxDetect=%v\n",
		rec.Suspicions, rec.SuspicionsCleared, rec.DeadDeclarations, rec.Rejoins, rec.StaleEpochRejections,
		rec.CorruptBlocks, r.MaxDetect)
	fprintf(w, "  driver domain:   crashes=%d restarts=%d journalReplayed=%d tornTails=%d\n",
		rec.DriverCrashes, rec.DriverRestarts, rec.JournalRecordsReplayed, rec.JournalTornTails)
	fprintf(w, "  memory pressure: windows=%d oomWindows=%d refusals=%d pinnedBlocked=%d oomTaskFails=%d evictRecomputes=%d\n",
		f.MemPressures, f.OOMWindows, c.CacheRefusals, c.PinnedEvictionsBlocked, c.OOMTaskFailures, c.RecomputesAfterEviction)
	if r.StreamOracle != "" {
		fprintf(w, "  stream window:   oracle fingerprint %s across %d driver-crash seeds\n",
			r.StreamOracle, r.Cfg.Seeds)
	}
	fprintf(w, "  max recovery delay %v <= bound %v\n", r.MaxDelay, r.Cfg.Bound)
	if len(r.Violations) == 0 {
		fprintf(w, "  all %d seeds produced oracle-identical results within the bound\n", r.Cfg.Seeds)
		return
	}
	for _, v := range r.Violations {
		fprintf(w, "  VIOLATION %s\n", v)
	}
}
