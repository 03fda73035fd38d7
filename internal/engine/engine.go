// Package engine is the driver of the simulated in-memory computing
// system: it submits jobs over the lineage graph, cuts them into stages,
// schedules tasks onto simulated executors with delay scheduling (plus
// Stark's co-locality, group tasks, and MCF when enabled), executes the
// transformations on real in-process data, charges virtual time through the
// cost model, and handles failure recovery and checkpointing.
//
// The engine is single-threaded and discrete-event driven: all activity
// happens inside vtime.Loop callbacks, so runs are deterministic.
package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"stark/internal/cluster"
	"stark/internal/config"
	"stark/internal/fault"
	"stark/internal/group"
	"stark/internal/journal"
	"stark/internal/locality"
	"stark/internal/metrics"
	netsim "stark/internal/net"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/replication"
	"stark/internal/sched"
	"stark/internal/storage"
	"stark/internal/vtime"
)

// Action selects what a job does with its final RDD.
type Action int

// Job actions.
const (
	ActionCount Action = iota + 1
	ActionCollect
	// ActionMaterialize computes (and caches, if requested) every partition
	// without returning data — the engine's foreach/cache primitive.
	ActionMaterialize
)

// CheckpointMode selects the checkpointing algorithm.
type CheckpointMode int

// Checkpointing algorithms.
const (
	CheckpointOff CheckpointMode = iota
	// CheckpointOptimal is Stark's min-cut optimizer (f = Relax).
	CheckpointOptimal
	// CheckpointEdge is the revised Tachyon Edge baseline.
	CheckpointEdge
)

// CheckpointConfig configures proactive checkpointing.
type CheckpointConfig struct {
	Mode  CheckpointMode
	Bound time.Duration // recovery delay bound r
	Relax float64       // cost relaxation f >= 1
}

// Config assembles all engine configuration.
type Config struct {
	Cluster    config.Cluster
	Sched      config.Scheduler
	Features   config.Features
	Groups     group.Config
	Checkpoint CheckpointConfig
	// Recovery is the failure-handling policy: task retry, executor
	// blacklisting, stage resubmission bounds, and speculation.
	Recovery config.Recovery
	// Faults, when non-empty, arms the deterministic fault injector on the
	// engine's virtual clock.
	Faults fault.Schedule
	// Network parameterizes the simulated control-plane transport; the zero
	// value is a perfect network that delivers synchronously.
	Network netsim.Config
	// Heartbeat enables driver-side failure detection over the transport
	// when its Interval is positive; the zero value keeps the omniscient
	// failure model.
	Heartbeat config.Heartbeat
	// Seed drives the scheduler's randomized remote offers; runs with equal
	// seeds are bit-identical.
	Seed int64
	// Execution sizes the wall-clock data-plane worker pool; it never
	// affects simulation results, only how fast they are produced.
	Execution config.Execution
	// DriverRecovery enables the driver fault domain: the engine appends a
	// write-ahead journal at every commit point and can crash-restart the
	// driver (fault.DriverCrash), replaying the journal to rebuild its
	// control-plane state (driver.go).
	DriverRecovery bool
	// CachePolicy selects the executor-cache eviction policy: "" or "lru"
	// keeps the LRU baseline; "dag" installs the DAG-aware policy that
	// evicts zero-reference blocks first and pins peer groups all-or-nothing
	// (cachepolicy.go).
	CachePolicy string
}

// DefaultConfig mirrors stock Spark: no Stark features enabled.
func DefaultConfig() Config {
	return Config{
		Cluster: config.Default(),
		Sched:   config.DefaultScheduler(),
		Groups:  group.DefaultConfig(),
		Checkpoint: CheckpointConfig{
			Mode:  CheckpointOff,
			Bound: 60 * time.Second,
			Relax: 1,
		},
		Recovery: config.DefaultRecovery(),
	}
}

// JobResult is what an action returns.
type JobResult struct {
	JobID int
	// Count is the record count for ActionCount.
	Count int64
	// Partitions holds per-partition records for ActionCollect.
	Partitions [][]record.Record
	// Metrics is the job's timing record.
	Metrics metrics.JobMetrics
	// Err is non-nil when the job failed (task retries or stage
	// resubmissions exhausted); Count and Partitions are then partial.
	Err error
}

// Engine is the driver. Create with New; methods must be called from a
// single goroutine (event callbacks included).
type Engine struct {
	cfg   Config
	loop  *vtime.Loop
	cl    *cluster.Cluster
	store *storage.Store
	graph *rdd.Graph
	repl  *replication.Policy

	// driverMemory is everything a driver crash forgets (driver.go),
	// embedded so e.running, e.loc, e.blacklist … select through it.
	driverMemory

	// collections holds one record per namespace the application ever
	// registered, by name (namespace.go). Ids and partitioners are not
	// driver state: they survive a driver crash; which collections are
	// registered is driverMemory.registered.
	collections map[string]*collection

	jobSeq  int
	taskSeq int

	// offers and offerUnits are remoteOffers' scratch: the offered executor
	// ids and, under MCF, their scores, rebuilt in place each call.
	offers     []int
	offerUnits []int
	// prefs is the scratch for reads of a block's holders or a task's
	// preferred executors (preferredExecutors, enqueue, partitionHome),
	// rebuilt in place each call; no caller holds it across another.
	prefs []int

	// inj is the fault injector when faults are armed.
	inj *fault.Injector
	// recMu guards rec, cacheRec, and driverMemory's blacklist so
	// RecoveryStats / CacheStats / Blacklisted snapshots may be taken from
	// another goroutine while a job runs. All writes happen on the
	// event-loop goroutine.
	recMu    sync.Mutex
	rec      metrics.RecoveryMetrics
	cacheRec metrics.CacheMetrics

	// Memory-pressure state (cachepolicy.go / plane.go): the DAG-aware
	// eviction policy when Config.CachePolicy selects it, the executors
	// currently inside an armed ExecutorOOM window, and every block a
	// policy eviction ever dropped (for counting recomputes-after-eviction;
	// read-only while planes run, mutated only at join).
	dagPol      *cluster.DAGPolicy
	oomArmed    map[int]bool
	evictedEver cluster.KeyTable

	// Control-plane transport and failure detection (detect.go). The
	// network exists even when perfect, so launch/result routing is uniform;
	// detection state is only consulted when hb.Interval > 0.
	net *netsim.Network
	hb  config.Heartbeat
	// activeJobs gates the heartbeat and detector timers: with no job in
	// flight the timers stop, so Loop.Run and RunJob still drain.
	activeJobs int
	beatArmed  []bool
	lastBeat   []time.Duration
	execView   []viewState
	execEpoch  []int
	incSeen    []int
	// beats holds each executor's heartbeat record (detect.go); nil while
	// heartbeats are off.
	beats []*beatRec

	// Driver fault domain (driver.go): the write-ahead journal (nil unless
	// DriverRecovery), whether the driver is currently crashed, the driver
	// generation (bumped per crash, invalidating pre-crash timer closures),
	// journal appends buffered during downtime, the client-held job handles
	// re-attached at restart, and the open recovery epoch spanning crash
	// through first resumed completions.
	jrn        *journal.Log
	driverDown bool
	driverGen  int
	pendingJrn []journal.Record
	// jobTab indexes every in-flight job by id (all configurations, not just
	// DriverRecovery), submissions buffered during downtime (job.pending)
	// included: CancelJob resolves handles through it, and the restart path
	// resubmits from it.
	jobTab map[int]*job
	// closed marks a driver shut down for good via Close; closeErr remembers
	// the first close's outcome so repeated Close calls are idempotent.
	closed      bool
	closeErr    error
	resumeEpoch *recoveryEpoch

	// Data-plane batching (plane.go): tasks dispatched during an event
	// accumulate in batch and execute at the event boundary on up to par
	// workers; draining guards against re-entrant drains. batchSpare is the
	// second buffer drainBatch swaps in while it joins the first, so the
	// two never alias and neither is reallocated in the steady state.
	batch      []*task
	batchSpare []*task
	draining   bool
	par        int

	// partIdx is the ascending partition index 0, 1, 2, ...: a task's
	// partition list is a capped subslice of it (partRange), never a
	// slice of its own.
	partIdx []int

	// A task's lifecycle events carry the task as their argument to these
	// handlers, bound once in New: launch delivery runs execTask, completion
	// runs taskDone, result delivery runs onTaskResult. Launching, running
	// and reporting a task therefore builds no closure.
	onLaunch, onDone, onResult func(any)

	completed []metrics.JobMetrics
	stats     Stats
	rng       *rand.Rand
	tracer    func(TraceEvent)
}

// New builds an engine and its simulated cluster.
func New(cfg Config) *Engine {
	if cfg.Checkpoint.Relax < 1 {
		cfg.Checkpoint.Relax = 1
	}
	normalizeRecovery(&cfg.Recovery)
	if err := validateHeartbeat(cfg.Heartbeat); err != nil {
		panic(err) // misconfiguration; Validate offers the error-returning path
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	e := &Engine{
		cfg:          cfg,
		loop:         vtime.NewLoop(),
		cl:           cluster.New(cfg.Cluster),
		store:        storage.NewStore(),
		graph:        rdd.NewGraph(),
		repl:         replication.NewPolicy(replication.DefaultConfig()),
		driverMemory: newDriverMemory(cfg),
		collections:  make(map[string]*collection),
		jobTab:       make(map[int]*job),
		oomArmed:     make(map[int]bool),
		rng:          rand.New(rand.NewSource(seed)),
	}
	e.cl.SetUnitMapping(e.unitIDOf)
	e.offers = make([]int, 0, e.cl.NumExecutors())
	e.offerUnits = make([]int, 0, e.cl.NumExecutors())
	e.prefs = make([]int, 0, e.cl.NumExecutors())
	e.installCachePolicy()
	e.par = cfg.Execution.Parallelism
	if e.par <= 0 {
		e.par = runtime.GOMAXPROCS(0)
	}
	e.loop.SetPostStep(e.drainBatch)
	e.onLaunch = func(t any) { e.execTask(t.(*task)) }
	e.onDone = func(t any) { e.taskDone(t.(*task)) }
	e.onResult = func(t any) { e.onTaskResult(t.(*task)) }
	e.net = netsim.New(cfg.Network, seed^0x6e65747, e.loop) // decorrelated from scheduler draws
	e.hb = cfg.Heartbeat
	n := e.cl.NumExecutors()
	e.beatArmed = make([]bool, n)
	e.lastBeat = make([]time.Duration, n)
	e.execView = make([]viewState, n)
	e.execEpoch = make([]int, n)
	e.incSeen = make([]int, n)
	if e.hb.Interval > 0 {
		e.beats = make([]*beatRec, n)
	}
	for i := 0; i < n; i++ {
		e.incSeen[i] = e.cl.Executor(i).Incarnation()
	}
	if cfg.DriverRecovery {
		e.jrn = &journal.Log{}
	}
	if !cfg.Faults.Empty() {
		e.inj = fault.New(cfg.Faults)
		e.store.SetFaultHook(func(op storage.Op) error { return e.inj.StorageOp(string(op)) })
		e.net.SetFaultHook(func(netsim.Kind) bool { return e.inj.MessageOp() })
		e.inj.Arm(e.loop, e)
	}
	return e
}

// sortedIDs returns the keys of an id-keyed driver table in ascending order,
// so walks over it are deterministic.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// validateHeartbeat accepts the zero config (detection off) and otherwise
// requires 0 < Interval <= SuspectAfter < DeadAfter. A death timeout at or
// below the suspicion timeout would declare executors dead without ever
// passing through the suspected state, silently disabling the suspicion
// machinery.
func validateHeartbeat(hb config.Heartbeat) error {
	if hb == (config.Heartbeat{}) {
		return nil
	}
	if hb.Interval <= 0 || hb.SuspectAfter < hb.Interval || hb.DeadAfter <= hb.SuspectAfter {
		return fmt.Errorf("engine: heartbeat timeouts need 0 < Interval (%v) <= SuspectAfter (%v) < DeadAfter (%v)",
			hb.Interval, hb.SuspectAfter, hb.DeadAfter)
	}
	return nil
}

// Validate reports whether the configuration would be rejected by New
// without constructing an engine — the error-returning alternative to New's
// panic-on-misconfiguration contract.
func Validate(cfg Config) error {
	if err := validateCachePolicy(cfg.CachePolicy); err != nil {
		return err
	}
	return validateHeartbeat(cfg.Heartbeat)
}

// normalizeRecovery clamps WithSpeculation's arguments into range: a
// multiplier must exceed 1 and a quantile lie in (0, 1].
func normalizeRecovery(rc *config.Recovery) {
	d := config.DefaultRecovery()
	if rc.SpeculationMultiplier <= 1 {
		rc.SpeculationMultiplier = d.SpeculationMultiplier
	}
	if rc.SpeculationQuantile <= 0 || rc.SpeculationQuantile > 1 {
		rc.SpeculationQuantile = d.SpeculationQuantile
	}
}

// Injector exposes the armed fault injector, nil when no faults are
// configured.
func (e *Engine) Injector() *fault.Injector { return e.inj }

// Loop exposes the virtual clock (for scheduling streaming input).
func (e *Engine) Loop() *vtime.Loop { return e.loop }

// Graph exposes the lineage graph builder.
func (e *Engine) Graph() *rdd.Graph { return e.graph }

// Cluster exposes the simulated cluster (for tests and failure injection).
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Store exposes the persistent store.
func (e *Engine) Store() *storage.Store { return e.store }

// Network exposes the simulated control-plane transport.
func (e *Engine) Network() *netsim.Network { return e.net }

// Locality exposes the LocalityManager.
//
//starklint:ignore unreachable stream tests
func (e *Engine) Locality() *locality.Manager { return e.loc }

// Groups exposes the GroupManager.
func (e *Engine) Groups() *group.Manager { return e.grp }

// CompletedJobs returns metrics for every finished job, in completion
// order.
func (e *Engine) CompletedJobs() []metrics.JobMetrics { return e.completed }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.loop.Now() }

type job struct {
	id        int
	final     *rdd.RDD
	action    Action
	submitted time.Duration
	stages    []*stageRun // parents before children (sched.AllStages order)
	resultSR  *stageRun
	count     int64
	parts     [][]record.Record
	tasks     []metrics.TaskMetrics
	done      bool
	// pending marks a submission buffered while the driver was down; the
	// restart path starts buffered jobs after the journaled ones and clears
	// the flag.
	pending bool
	err     error
	cb      func(JobResult)
}

type stageRun struct {
	st        *sched.Stage
	job       *job
	remaining int
	// started marks a run whose tasks were enqueued, or whose stage was
	// skipped over a complete shuffle. A map-stage run executes its shuffle
	// only while the shuffle's record names it owner (shuffleRec).
	started bool
	// charged lists the RDD ids this run holds DAG-policy references on;
	// nil once released (cachepolicy.go).
	charged []int
	// durations collects completed-task durations for the speculation
	// median.
	durations []time.Duration
}

type task struct {
	id         int
	sr         *stageRun
	partitions []int
	// coll and unit name the collection unit the task computes; coll is
	// nil for a plain task.
	coll     *collection
	unit     cluster.UnitID
	group    bool
	prefCap  bool
	promoted bool
	// counted marks tasks included in the engine's unarmed-timer counter.
	counted   bool
	submitted time.Duration
	waitArmed bool
	aborted   bool
	exec      int
	tm        metrics.TaskMetrics

	// Recovery state: attempt number (0 = first launch), the data-plane
	// error detected at completion time, the expected completion time (for
	// straggler detection), speculative-copy links, and the failure epoch
	// this attempt recovers from.
	attempt     int
	failErr     error
	expectedEnd time.Duration
	spec        *task // speculative copy launched for this task
	specOf      *task // original this task speculates for
	epoch       *recoveryEpoch

	// Transport/detection state: whether this attempt currently holds an
	// executor slot, whether its executor process died under it (the
	// completion event then reports to nobody), the process incarnation the
	// slot was acquired from (a release against a later incarnation would
	// corrupt the books), and the executor epoch the driver stamped at
	// launch — a result arriving with a stale fence is rejected instead of
	// mutating job or shuffle state.
	slotHeld  bool
	lost      bool
	launchInc int
	fence     int

	// batchEntry is the task's data-plane state between dispatch and join.
	batchEntry

	// Action results accumulate here during the data plane and are applied
	// to the job only at result-accept time, so aborted and stale-epoch
	// tasks leave no trace. Map-stage buckets are staged in mapOut on the
	// executor and committed to the store only when the driver accepts the
	// result (epoch-fenced shuffle registration). Each staging slice holds
	// one entry per partition, in t.partitions order, and starts in the
	// one-element array beside it (stageInto), so a single-partition task
	// stages without allocating.
	count     int64
	collected [][]record.Record
	mapOut    []*record.PartitionedBatch
	// collectedFP holds per-partition fingerprints taken when collect
	// staging aliased the partition data (STARK_CHECK_COW=1 only); they are
	// re-verified at result-accept to catch copy-on-write violations.
	collectedFP []uint64

	collectedOne [1][]record.Record
	mapOutOne    [1]*record.PartitionedBatch
	fpOne        [1]uint64
}

// stageInto appends v to a per-partition staging slice whose first entry
// lives in the task's one-element array one.
func stageInto[T any](s []T, one *[1]T, v T) []T {
	if s == nil {
		s = one[:0]
	}
	return append(s, v)
}

// SubmitJob enqueues an action on final at the current virtual time; cb
// fires on completion. Use RunJob for the synchronous version. While the
// driver is crashed the submission is accepted (the client holds a valid
// handle) but buffered; it starts when the driver restarts. A submission
// against a closed driver fails immediately with ErrJobCancelled.
func (e *Engine) SubmitJob(final *rdd.RDD, action Action, cb func(JobResult)) int {
	j := &job{
		id:        e.jobSeq,
		final:     final,
		action:    action,
		submitted: e.loop.Now(),
		parts:     make([][]record.Record, final.Parts),
		cb:        cb,
	}
	e.jobSeq++
	if e.closed {
		j.done = true
		j.err = fmt.Errorf("engine: driver closed: %w", ErrJobCancelled)
		if cb != nil {
			cb(JobResult{JobID: j.id, Err: j.err})
		}
		return j.id
	}
	e.activeJobs++
	e.jobTab[j.id] = j
	if e.driverDown {
		j.pending = true
		return j.id
	}
	e.journalJobSubmit(j)
	e.startJob(j)
	// A submission from outside the event loop has no post-step boundary;
	// drain the dispatched work now. A submission from inside an event
	// drains here too, together with the event's earlier dispatches, unless
	// a drain is already running.
	e.drainBatch()
	return j.id
}

// startJob builds a job's stage runs and kicks scheduling. The restart path
// reuses it to resubmit journaled in-flight jobs with fresh stage state.
func (e *Engine) startJob(j *job) {
	e.ensureHeartbeats()
	result := sched.Build(j.final)
	for _, st := range sched.AllStages(result) {
		sr := &stageRun{st: st, job: j}
		j.stages = append(j.stages, sr)
		if !st.ShuffleMap {
			j.resultSR = sr
		}
		e.chargeStage(sr)
	}
	if e.tracer != nil {
		e.trace("job-submit", j.id, -1, -1, -1, fmt.Sprintf("final=%s action=%d stages=%d", j.final.Name, j.action, len(j.stages)))
	}
	for _, sr := range j.stages {
		e.maybeStartStage(sr)
	}
	e.schedule()
}

// RunJob submits the job and drives the event loop until it completes.
// Other pending work (earlier jobs, streaming events) advances as a side
// effect, exactly as a blocking action on a busy driver would.
func (e *Engine) RunJob(final *rdd.RDD, action Action) (JobResult, error) {
	var res JobResult
	done := false
	e.SubmitJob(final, action, func(r JobResult) {
		res = r
		done = true
	})
	for !done {
		if !e.loop.Step() {
			return JobResult{}, fmt.Errorf("engine: job on %s cannot complete (no runnable executors?)", final)
		}
	}
	return res, res.Err
}

// Count runs a count action synchronously.
func (e *Engine) Count(final *rdd.RDD) (int64, metrics.JobMetrics, error) {
	res, err := e.RunJob(final, ActionCount)
	return res.Count, res.Metrics, err
}

// Collect runs a collect action synchronously and flattens the partitions.
func (e *Engine) Collect(final *rdd.RDD) ([]record.Record, metrics.JobMetrics, error) {
	res, err := e.RunJob(final, ActionCollect)
	if err != nil {
		return nil, metrics.JobMetrics{}, err
	}
	n := 0
	for _, p := range res.Partitions {
		n += len(p)
	}
	out := make([]record.Record, 0, n)
	for _, p := range res.Partitions {
		out = append(out, p...)
	}
	return out, res.Metrics, nil
}

// Materialize computes (and caches, per CacheFlag) the RDD synchronously.
func (e *Engine) Materialize(final *rdd.RDD) (metrics.JobMetrics, error) {
	res, err := e.RunJob(final, ActionMaterialize)
	return res.Metrics, err
}

// maybeStartStage enqueues the stage's tasks when all its parent shuffles
// are complete, deduplicating concurrently running shuffle-map stages
// across jobs. A stage of a finished job never starts: endExecution
// re-checks a failed owner's stages, and a finished job's runs may still
// sit in a shuffle record's waiting list.
func (e *Engine) maybeStartStage(sr *stageRun) {
	if sr.started || sr.job.done {
		return
	}
	for _, p := range sr.st.Parents {
		if !e.store.ShuffleComplete(p.ShuffleID) {
			e.ensureParentShuffle(sr, p.ShuffleID)
			return
		}
	}
	if sr.st.ShuffleMap {
		rec := e.shuffle(sr.st.ShuffleID)
		if rec.owner != nil {
			// In-flight stage subscription: instead of computing the shuffle a
			// second time, wait for the run that owns it and share its outputs.
			if rec.owner.job != sr.job {
				e.stats.SharedStageSubs++
			}
			rec.waiting = append(rec.waiting, sr)
			return
		}
		// The producer registers even when the stage is skipped, so a fetch
		// failure after a driver restart that resumed from committed outputs
		// can still rebuild the shuffle.
		rec.producer = sr.st
		rec.owner = sr
		if e.store.ShuffleComplete(sr.st.ShuffleID) {
			// Outputs persist from an earlier job: skip the stage wholesale.
			e.stats.SharedShuffleSkips++
			sr.started = true
			sr.remaining = 0
			e.onStageComplete(sr)
			return
		}
		if err := e.store.RegisterShuffle(sr.st.ShuffleID, sr.st.Output.Parts, sr.st.Consumer.Parts); err != nil {
			panic(err) // geometry conflicts are engine bugs
		}
	}
	sr.started = true
	if e.tracer != nil {
		e.trace("stage-start", sr.job.id, sr.st.ID, -1, -1, fmt.Sprintf("output=%s shuffleMap=%v", sr.st.Output.Name, sr.st.ShuffleMap))
	}
	e.enqueueTasks(sr)
}

// enqueueTasks builds the stage's tasks — group tasks when the output RDD
// belongs to an extendable namespace, per-partition tasks otherwise.
func (e *Engine) enqueueTasks(sr *stageRun) {
	out := sr.st.Output
	c := e.collectionOf(out)
	specs := e.taskSpecs(out, c)
	sr.remaining = len(specs)
	if len(specs) == 0 {
		e.onStageComplete(sr)
		return
	}
	e.enqueueSpecs(sr, specs, e.stagePrefCap(sr, c))
}

// stagePrefCap reports whether the stage's tasks can ever gain a locality
// preference: a task outside a collection can only become NODE_LOCAL
// through cached blocks of its narrow chain; if nothing in the chain is
// cacheable it goes straight to the fast FIFO queue.
func (e *Engine) stagePrefCap(sr *stageRun, c *collection) bool {
	if c != nil {
		return true
	}
	for _, r := range sr.st.NarrowChain() {
		if r.CacheFlag {
			return true
		}
	}
	return false
}

// enqueueSpecs instantiates and enqueues one task per spec, all in one slab.
// Stage resubmission reuses it to re-enqueue only the specs covering lost map
// outputs.
func (e *Engine) enqueueSpecs(sr *stageRun, specs []taskSpec, prefCap bool) {
	// Every spec ends in one accepted result appended to the job's task
	// metrics: grow once per stage instead of by doubling per task.
	sr.job.tasks = slices.Grow(sr.job.tasks, len(specs))
	tasks := make([]task, len(specs))
	for i, sp := range specs {
		t := &tasks[i]
		*t = task{
			id:         e.taskSeq,
			sr:         sr,
			partitions: sp.partitions,
			coll:       sp.coll,
			unit:       sp.unit,
			group:      sp.coll != nil && sp.coll.tree != nil,
			prefCap:    prefCap,
			submitted:  e.loop.Now(),
		}
		e.taskSeq++
		t.tm = metrics.TaskMetrics{
			JobID:     sr.job.id,
			StageID:   sr.st.ID,
			TaskID:    t.id,
			Submitted: t.submitted,
		}
		if e.resumeEpoch != nil {
			// Work created inside the driver-restart resubmission window
			// counts toward the crash's recovery epoch: the measured delay
			// closes when every such task has succeeded.
			t.epoch = e.resumeEpoch
			e.resumeEpoch.pending++
		}
		e.enqueue(t)
	}
}

// enqueue routes a task: namespace tasks and tasks with an already-cached
// chain block go to the scanned preference queue; the rest go to the plain
// FIFO, with wake registrations so a later cache fill promotes them.
func (e *Engine) enqueue(t *task) {
	if t.coll != nil {
		e.prefPending = append(e.prefPending, t)
		t.counted = true
		e.unarmed++
		return
	}
	if t.prefCap {
		chain := t.sr.st.NarrowChain()
		for _, r := range chain {
			if !r.CacheFlag {
				continue
			}
			for _, p := range t.partitions {
				if e.prefs = e.cl.AppendLocations(e.prefs[:0], cluster.BlockID{RDD: r.ID, Partition: p}); len(e.prefs) > 0 {
					e.prefPending = append(e.prefPending, t)
					t.counted = true
					e.unarmed++
					return
				}
			}
		}
		for _, r := range chain {
			if !r.CacheFlag {
				continue
			}
			for _, p := range t.partitions {
				key := cluster.BlockID{RDD: r.ID, Partition: p}.Key()
				e.wakeIndex[key] = append(e.wakeIndex[key], t)
			}
		}
	}
	e.plainPending = append(e.plainPending, t)
}

// wakeTasks promotes plain tasks whose watched block just got cached; a
// failed job's tasks stay discarded (failJob).
func (e *Engine) wakeTasks(id cluster.BlockID) {
	key := id.Key()
	tasks, ok := e.wakeIndex[key]
	if !ok {
		return
	}
	delete(e.wakeIndex, key)
	for _, t := range tasks {
		if t.launched() || t.promoted || t.aborted {
			continue
		}
		t.promoted = true
		e.prefPending = append(e.prefPending, t)
		if !t.waitArmed {
			t.counted = true
			e.unarmed++
		}
	}
}

type taskSpec struct {
	partitions []int
	coll       *collection
	unit       cluster.UnitID
}

// taskSpecs builds a stage's work: one group task per Group Tree leaf when
// the output RDD is a member of a collection with a tree, one task per
// partition otherwise — tied to the partition's unit when the RDD is a
// member, plain when it is not.
func (e *Engine) taskSpecs(out *rdd.RDD, c *collection) []taskSpec {
	if c != nil && c.tree != nil {
		groups := c.tree.Groups()
		specs := make([]taskSpec, 0, len(groups))
		for _, g := range groups {
			specs = append(specs, taskSpec{partitions: e.partRange(g.Lo, g.Hi), coll: c, unit: cluster.UnitID{NS: c.id, Unit: g.ID}})
		}
		return specs
	}
	specs := make([]taskSpec, 0, out.Parts)
	for p := 0; p < out.Parts; p++ {
		sp := taskSpec{partitions: e.partRange(p, p+1)}
		if c != nil {
			sp.coll, sp.unit = c, cluster.UnitID{NS: c.id, Unit: p}
		}
		specs = append(specs, sp)
	}
	return specs
}

// partRange returns the partitions [lo, hi) as a capped subslice of the
// engine's ascending partition index, growing the index when hi passes its
// end. Earlier subslices keep the old array, whose values are the same.
// Task partition lists are read-only, so every task shares the index.
func (e *Engine) partRange(lo, hi int) []int {
	if hi > len(e.partIdx) {
		idx := make([]int, max(hi, 2*len(e.partIdx)))
		for i := range idx {
			idx[i] = i
		}
		e.partIdx = idx
	}
	return e.partIdx[lo:hi:hi]
}

// onStageComplete propagates stage completion: a map stage's run ends its
// shuffle's execution, which wakes the stages and attempts waiting on it (in
// this and other jobs); the result stage finishes the job. A completing map
// run always owns its shuffle: the execution moves to another run only when
// this one's job fails, and failJob aborts the job's attempts with it.
func (e *Engine) onStageComplete(sr *stageRun) {
	if !sr.st.ShuffleMap {
		e.finishJob(sr.job)
		return
	}
	id := sr.st.ShuffleID
	rec := e.shuffles[id]
	// A block-loss fault may have punched holes in the shuffle while the
	// stage ran; recompute just the missing map outputs before declaring the
	// shuffle complete.
	if missing := e.store.MissingMapOutputs(id); len(missing) > 0 {
		e.resubmitMissing(rec, sr, missing)
		return
	}
	e.releaseStage(sr)
	e.endExecution(id, rec)
}

func (e *Engine) finishJob(j *job) {
	if j.done {
		return
	}
	j.done = true
	e.activeJobs--
	e.stats.Jobs++
	delete(e.jobTab, j.id)
	// Return any DAG-policy references still held (result stage, failure or
	// cancellation leftovers) so the job's cached inputs become evictable.
	for _, sr := range j.stages {
		e.releaseStage(sr)
	}
	e.journalJobComplete(j)
	jm := metrics.JobMetrics{
		JobID:     j.id,
		Submitted: j.submitted,
		Finished:  e.loop.Now(),
		Tasks:     j.tasks,
	}
	e.completed = append(e.completed, jm)
	if e.tracer != nil {
		e.trace("job-finish", j.id, -1, -1, -1, fmt.Sprintf("makespan=%v tasks=%d err=%v", jm.Makespan(), len(jm.Tasks), j.err))
	}
	res := JobResult{
		JobID:      j.id,
		Count:      j.count,
		Partitions: j.parts,
		Metrics:    jm,
		Err:        j.err,
	}
	if j.err == nil {
		e.maybeCheckpoint(j.final)
	}
	if j.cb != nil {
		j.cb(res)
	}
}
