package main

import (
	"fmt"
	"math/rand"
	"time"

	"stark"
	"stark/internal/record"
)

// tenants-chaos uses the same engine the way a shared, failing cluster does.
// Phase A: a JobServer with four tenants, each submitting five planned jobs
// open-loop under a deadline, first fault-free (the oracle) and then under k
// seeded tenant-storm schedules. Phase B: a build + six queries + collect
// lineage with driver recovery, a simulated control network, heartbeats,
// checkpointing and speculation, fault-free and then under k seeded
// executor/network/driver/memory fault schedules. The data is small, so
// admission, DRR dispatch, journal append and replay, retries, heartbeats,
// eviction under memory pressure and the sequential fallback carry the time.
//
// The fault seeds are fixed (the ranges `make multitenant` and `make chaos`
// keep green) and so are the datasets but for a few values --seed re-draws,
// which moves which records the value filters select and with them sizes and
// virtual times, a little. More than a little moves a fault onto another
// task, and the virtual makespan by a recovery.

type tenantsSize struct {
	seeds   int // k: faulted runs per phase
	redrawn int // values per dataset --seed re-draws

	// Phase A, the sizes of the multitenant CI profile.
	tenants, jobsPerTenant int
	mtExecutors, mtSlots   int
	mtParts, mtRecords     int
	interarrival, deadline time.Duration
	maxActive              int
	queuePerTenant         int
	queueTotal             int

	// Phase B, the sizes of the chaos CI profile.
	chExecutors, chSlots int
	chParts, chRecords   int
	chSteps              int
	bound                time.Duration
}

var (
	tenantsFull = tenantsSize{
		seeds: 19, redrawn: 8,
		tenants: 4, jobsPerTenant: 5, mtExecutors: 4, mtSlots: 2, mtParts: 8, mtRecords: 3000,
		interarrival: 25 * time.Millisecond, deadline: 600 * time.Millisecond,
		maxActive: 4, queuePerTenant: 8, queueTotal: 32,
		chExecutors: 6, chSlots: 2, chParts: 12, chRecords: 4000, chSteps: 6, bound: 5 * time.Second,
	}
	tenantsQuick = func() tenantsSize {
		sz := tenantsFull
		sz.seeds = 2
		return sz
	}()
)

// plannedPriority sits above every storm priority (0..2), so admission
// control under storm pressure sheds storm jobs, never planned ones.
const plannedPriority = 3

const (
	mtKeys = 173
	chKeys = 211
)

type tenantsChaos struct {
	sz     tenantsSize
	mtRecs []stark.Record
	chRecs []stark.Record
	ref    []jobOut
	inSum  uint64
}

func newTenantsChaos(seed int64, quick bool) scenario {
	sz := tenantsFull
	if quick {
		sz = tenantsQuick
	}
	base, rng := rand.New(rand.NewSource(baseSeed)), rand.New(rand.NewSource(seed))
	gen := func(n, keys int) []stark.Record {
		recs := make([]stark.Record, n)
		for i := range recs {
			recs[i] = stark.Pair(fmt.Sprintf("k%04d", i%keys), base.Intn(1<<20))
		}
		for i := 0; i < sz.redrawn; i++ {
			recs[rng.Intn(n)].Value = rng.Intn(1 << 20)
		}
		return recs
	}
	s := &tenantsChaos{sz: sz, mtRecs: gen(sz.mtRecords, mtKeys), chRecs: gen(sz.chRecords, chKeys)}
	h := newHasher()
	h.records(s.mtRecs)
	h.records(s.chRecs)
	s.inSum = h.Sum64()

	// Reference for the two fault-free oracles, in the order run reports
	// them: phase A's planned jobs tenant-major, then phase B's jobs.
	clean := func(v int) int { return v*2 + 1 }
	for t := 0; t < sz.tenants; t++ {
		for j := 0; j < sz.jobsPerTenant; j++ {
			if j == 0 && t < 2 {
				s.ref = append(s.ref, sumOut(refSumByKey(s.mtRecs, clean, nil)))
				continue
			}
			m := plannedResidue(t, j)
			sums := refSumByKey(s.mtRecs, clean, func(v int) bool { return v%11 == m })
			s.ref = append(s.ref, jobOut{n: int64(len(sums))})
		}
	}
	scaled := func(v int) int { return v*3 + 1 }
	all := refSumByKey(s.chRecs, scaled, nil)
	s.ref = append(s.ref, jobOut{n: int64(len(all))})
	for step := 0; step < sz.chSteps; step++ {
		// The slice joins against every key's sum, one pair per key.
		slice := refSumByKey(s.chRecs, scaled, func(v int) bool { return v%sz.chSteps == step })
		s.ref = append(s.ref, jobOut{n: int64(len(slice))})
	}
	s.ref = append(s.ref, sumOut(all))
	return s
}

func plannedResidue(tenant, job int) int { return (tenant*7 + job*3) % 11 }

func (s *tenantsChaos) inputDigest() uint64 { return s.inSum }
func (s *tenantsChaos) want() []jobOut      { return s.ref }

// collected reduces a collect's partitions, in engine order, to a jobOut.
func collected(parts [][]stark.Record) jobOut {
	var out jobOut
	h := newHasher()
	for _, part := range parts {
		out.n += int64(len(part))
		for _, r := range part {
			out.sum += int64(r.Value.(int))
		}
		h.u64(record.Fingerprint(part))
	}
	out.fp = h.Sum64()
	return out
}

// tenantsRun is one context's worth of either phase.
type tenantsRun struct {
	out      []jobOut
	ok       []bool          // job delivered a result without error
	latency  []time.Duration // phase A: virtual admission→delivery per planned job
	lastDone time.Duration   // phase A: virtual time the last planned result landed
	end      time.Duration
}

// multitenant runs phase A's submission plan on a fresh context.
func (s *tenantsChaos) multitenant(par int, tr *tracer, c *counts, opts ...stark.Option) tenantsRun {
	sz := s.sz
	sp := tr.begin("stark.new_context")
	ctx := stark.NewContext(append([]stark.Option{
		stark.WithExecutors(sz.mtExecutors),
		stark.WithSlots(sz.mtSlots),
		stark.WithSeed(7),
		stark.WithParallelism(par),
	}, opts...)...)
	tr.attach(ctx)
	srv := ctx.NewJobServer(stark.JobServerConfig{
		MaxActive:          sz.maxActive,
		MaxQueuedPerTenant: sz.queuePerTenant,
		MaxQueuedTotal:     sz.queueTotal,
	})
	tr.end(sp)

	// Shared base data: a cached map stage feeding a cached per-key sum.
	sp = tr.begin("stark.source_build")
	src := ctx.TextFile("mt-events", s.mtRecs, sz.mtParts)
	tr.end(sp)
	clean := src.Map(func(r stark.Record) stark.Record {
		return stark.Pair(r.Key, r.Value.(int)*2+1)
	}).Cache()
	p := stark.NewHashPartitioner(sz.mtParts)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	hot := clean.ReduceByKey(p, sum).Cache()

	// Storm jobs are distinct small aggregations (a fresh lineage node per
	// arrival, so they pressure the queues instead of deduplicating); poison
	// jobs stretch their cost with a map chain of depth ~factor.
	stark.SetStormJobs(srv, func(tenant, n int) (*stark.RDD, stark.JobAction) {
		k := n % 7
		return clean.Filter(func(r stark.Record) bool {
			return r.Value.(int)%7 == k
		}).ReduceByKey(p, sum), stark.ActionCount
	})
	stark.SetPoisonJobs(srv, func(tenant int, factor float64) (*stark.RDD, stark.JobAction) {
		r := clean
		for i := 0; i < max(int(factor), 1); i++ {
			r = r.Map(func(rec stark.Record) stark.Record {
				return stark.Pair(rec.Key, rec.Value.(int)+1)
			})
		}
		return r.ReduceByKey(p, sum), stark.ActionCount
	})

	planned := sz.tenants * sz.jobsPerTenant
	run := tenantsRun{out: make([]jobOut, planned), ok: make([]bool, planned), latency: make([]time.Duration, planned)}
	for t := 0; t < sz.tenants; t++ {
		session := srv.RegisterTenant(fmt.Sprintf("tenant-%d", t), 1+t%3)
		for j := 0; j < sz.jobsPerTenant; j++ {
			// Tenants 0 and 1 both open with the identical hot collect (the
			// same lineage node), which the dedup index must compute once;
			// every other job is a tenant/step-specific filtered aggregation.
			job, action := hot, stark.ActionCollect
			if j > 0 || t >= 2 {
				m := plannedResidue(t, j)
				job = clean.Filter(func(r stark.Record) bool {
					return r.Value.(int)%11 == m
				}).ReduceByKey(p, sum)
				action = stark.ActionCount
			}
			slot := t*sz.jobsPerTenant + j
			ctx.At(time.Duration(j)*sz.interarrival, func() {
				ssp := tr.begin("session.submit")
				job.SubmitTo(session, action, stark.JobSubmitOptions{
					Priority: plannedPriority,
					Deadline: sz.deadline,
					OnDone: func(r stark.TenantResult) {
						run.ok[slot] = r.Err == nil
						run.latency[slot] = r.Latency
						if action == stark.ActionCollect {
							run.out[slot] = collected(r.Partitions)
						} else {
							run.out[slot] = jobOut{n: r.Count}
						}
						run.lastDone = max(run.lastDone, ctx.Now())
					},
				})
				tr.end(ssp)
			})
		}
	}

	sp = tr.begin("session.drain")
	ctx.Drain()
	tr.end(sp)
	srv.Close()
	run.end = ctx.Now()
	c.addContext(ctx)
	c.addServer(srv.Stats())
	return run
}

// chaos runs phase B's lineage on a fresh context: a cached base dataset
// shuffled into per-key sums, then chSteps filter+aggregate+join queries and
// a final collect. A job that errors ends the run; its successors count as
// failed.
func (s *tenantsChaos) chaos(par int, tr *tracer, c *counts, opts ...stark.Option) (run tenantsRun) {
	sz := s.sz
	jobs := sz.chSteps + 2
	run = tenantsRun{out: make([]jobOut, jobs), ok: make([]bool, jobs)}
	sp := tr.begin("stark.new_context")
	ctx := stark.NewContext(append([]stark.Option{
		stark.WithExecutors(sz.chExecutors),
		stark.WithSlots(sz.chSlots),
		stark.WithSeed(7),
		stark.WithParallelism(par),
		stark.WithCheckpointing(sz.bound, 1),
		stark.WithSpeculation(1.5, 0.75),
		// Control traffic rides a lossy-capable network and failures are
		// detected by heartbeat, in the oracle too, so results are compared
		// under identical machinery; every run journals its commit points so
		// seeded driver crashes can replay.
		stark.WithNetwork(stark.NetworkConfig{BaseDelay: 200 * time.Microsecond, Jitter: 300 * time.Microsecond}),
		stark.WithHeartbeat(40*time.Millisecond, 120*time.Millisecond, 300*time.Millisecond),
		stark.WithDriverRecovery(),
	}, opts...)...)
	tr.attach(ctx)
	tr.end(sp)
	defer func() {
		run.end = ctx.Now()
		c.addContext(ctx)
	}()

	sp = tr.begin("stark.source_build")
	src := ctx.TextFile("events", s.chRecs, sz.chParts)
	tr.end(sp)
	scaled := src.Map(func(r stark.Record) stark.Record {
		return stark.Pair(r.Key, r.Value.(int)*3+1)
	}).Cache()
	p := stark.NewHashPartitioner(sz.chParts)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	sums := scaled.ReduceByKey(p, sum).Cache()

	sp = tr.begin("engine.action")
	defer func() { tr.end(sp) }()
	total, _, err := sums.Count()
	if err != nil {
		return run
	}
	run.out[0], run.ok[0] = jobOut{n: total}, true
	for step := 0; step < sz.chSteps; step++ {
		n, _, err := scaled.Filter(func(r stark.Record) bool {
			return r.Value.(int)%sz.chSteps == step
		}).ReduceByKey(p, sum).Join(p, sums).Count()
		if err != nil {
			return run
		}
		run.out[1+step], run.ok[1+step] = jobOut{n: n}, true
	}
	out, _, err := sums.Collect()
	if err != nil {
		return run
	}
	run.out[jobs-1], run.ok[jobs-1] = collected([][]stark.Record{out}), true
	return run
}

// score folds a faulted run into the iteration: every job must have
// succeeded and returned exactly what the fault-free oracle did.
func score(it *iteration, run, oracle tenantsRun) {
	for i := range run.out {
		it.jobs++
		if !run.ok[i] || run.out[i] != oracle.out[i] {
			it.failed++
		}
	}
}

func (s *tenantsChaos) run(par int, tr *tracer) iteration {
	var it iteration
	sz := s.sz

	// Phase A: the oracle fixes the fault horizon, then the storm seeds.
	oracle := s.multitenant(par, tr, &it.c)
	it.got = append(it.got, oracle.out...)
	score(&it, oracle, oracle)
	it.vdelays = append(it.vdelays, oracle.latency...)
	it.vmakespan += oracle.end
	for seed := 1; seed <= sz.seeds; seed++ {
		sched := stark.FaultSchedule{}.WithTenantFaults(int64(seed), oracle.lastDone, sz.tenants)
		run := s.multitenant(par, tr, &it.c, stark.WithFaults(sched))
		score(&it, run, oracle)
		it.vdelays = append(it.vdelays, run.latency...)
		it.vmakespan += run.end
	}

	// Phase B: the oracle's makespan is the fault window. A window of zero
	// would become the schedule generators' 1 s default, several times the
	// lineage's makespan, and most faults would land after the last job.
	oracle = s.chaos(par, tr, &it.c)
	it.got = append(it.got, oracle.out...)
	score(&it, oracle, oracle)
	it.vmakespan += oracle.end
	if oracle.end <= 0 {
		it.errs = append(it.errs, "tenants-chaos: the phase B oracle reports no virtual makespan, so the fault window is undefined")
	}
	recovered := it.c.rec.TaskRetries + it.c.rec.StageResubmissions
	for seed := 0; seed < sz.seeds; seed++ {
		sched := stark.RandomFaultSchedule(int64(seed), oracle.end, sz.chExecutors).
			WithNetFaults(int64(seed), oracle.end, sz.chExecutors).
			WithDriverFaults(int64(seed), oracle.end).
			WithMemFaults(int64(seed), oracle.end, sz.chExecutors)
		run := s.chaos(par, tr, &it.c, stark.WithFaults(sched))
		score(&it, run, oracle)
		it.vmakespan += run.end
	}
	if it.c.rec.TaskRetries+it.c.rec.StageResubmissions == recovered {
		it.errs = append(it.errs, "tenants-chaos: no phase B fault schedule caused a task retry or a stage resubmission, so recovery was not exercised")
	}
	return it
}
