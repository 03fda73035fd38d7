package engine

import (
	"fmt"
	"sort"
	"time"

	"stark/internal/cluster"
	"stark/internal/group"
	"stark/internal/journal"
	"stark/internal/locality"
	"stark/internal/rdd"
	"stark/internal/record"
)

// This file is the driver fault domain. With Config.DriverRecovery enabled
// the engine appends a write-ahead journal at every commit point — namespace
// registration, Group Tree splits and merges, map-output commits (at result
// accept, inside the epoch fence), checkpoint completions, job submission
// and completion, and blacklist transitions — and can lose the driver
// process entirely (fault.DriverCrash) and come back:
//
//   - CrashDriver discards all volatile driver memory (pending queues,
//     running-task table, shuffle bookkeeping, locality and group state) and
//     optionally tears the journal tail, simulating a crash mid-append.
//     Executor processes, their caches, persistent storage, and in-flight
//     data-plane work are NOT driver memory and carry on.
//   - RestartDriver replays the journal (truncating a torn tail cleanly),
//     rebuilds the control plane, re-handshakes executors under a new driver
//     incarnation (every executor epoch bumps, so results launched by the
//     old incarnation are fenced off exactly like results from a dead
//     executor), reconciles persistent storage against the journal (state
//     committed but not journaled is dropped and recomputed through
//     lineage), re-admits surviving executor caches via a deterministic
//     block re-registration sweep, and resubmits every incomplete job from
//     its last committed stage.
//
// Replay invariants: the journal is authoritative for driver-owned state;
// objects owned by the client application — the lineage graph, namespace
// partitioners, job handles and callbacks, stream windows — survive in the
// application and re-attach at restart, mirroring how a driver-HA deployment recovers
// metadata from the WAL while the application supplies its closures anew.
// Replay is virtual-time-free and deterministically ordered: records apply
// in append order, and every sweep over map-shaped state walks sorted keys.

// driverMemory is DESIGN §12's volatile state: pending queues, the
// running-task table, locality-wait bookkeeping, the shuffle records, the
// recovery and blacklist books, the locality and group managers with the
// namespace tables beside them, the failure detector's timer flag. A crash
// simply discards it — CrashDriver assigns a fresh one — and restart lets
// journal replay and resubmission repopulate it; New builds it through the
// same constructor, so a crashed driver remembers exactly what a new one
// does. What is not the driver process's to lose (executors and their epochs,
// the store, the lineage graph, client-held handles, counters) sits on Engine
// beside it, and TestEveryEngineFieldIsClassified makes a new field pick a
// side.
type driverMemory struct {
	// prefPending holds tasks that currently have a concrete locality
	// preference (namespace tasks, and tasks with a cached chain block for
	// their partition); it is scanned every round and must stay small.
	// plainPending tasks launch remotely, strictly FIFO from plainHead, so
	// scheduling stays O(launches) even with 10^5-task stages. A plain task
	// whose chain block gets cached is promoted via wakeIndex.
	prefPending  []*task
	plainPending []*task
	plainHead    int
	// unarmed counts prefPending tasks without a locality-wait timer yet.
	unarmed   int
	wakeIndex map[cluster.BlockKey][]*task
	running   map[int]*task // by task id

	// shuffles holds one record per shuffle, by id (shuffleRec, recovery.go).
	shuffles map[int]*shuffleRec

	// Failure-recovery state: per-executor failure counts, the blacklist
	// (guarded by Engine.recMu) mapping each listed executor to the end of
	// its exclusion window (0 once a restart opened probation early), and
	// checkpoints deferred for lack of live executors.
	execFailures map[int]int
	blacklist    map[int]time.Duration
	pendingCP    []*rdd.RDD

	// Namespace state, re-registered by journal replay: preferred executors
	// per collection unit, the Group Trees and the collections registered
	// with both (records from Engine.collections).
	loc        *locality.Manager
	grp        *group.Manager
	registered map[string]*collection
	// lastNS caches collectionOf's last lookup in registered (namespace.go).
	lastNS lastNamespace
	// detectorArmed is whether the failure-detector timer is scheduled.
	detectorArmed bool
}

// newDriverMemory is the memory of a driver that has just started, whether
// for the first time or after a crash.
func newDriverMemory(cfg Config) driverMemory {
	return driverMemory{
		wakeIndex:    make(map[cluster.BlockKey][]*task),
		running:      make(map[int]*task),
		shuffles:     make(map[int]*shuffleRec),
		execFailures: make(map[int]int),
		blacklist:    make(map[int]time.Duration),
		loc:          locality.NewManager(),
		grp:          group.NewManager(cfg.Groups),
		registered:   make(map[string]*collection),
	}
}

// journalAppend records one commit-point record. During driver downtime the
// record buffers: the crash already tore whatever tail it was going to tear,
// and appends from the downtime window (a namespace registration, a buffered
// submission's cancellation) land after replay so the journal stays
// parseable.
func (e *Engine) journalAppend(rec journal.Record) {
	if e.jrn == nil {
		return
	}
	if e.driverDown {
		e.pendingJrn = append(e.pendingJrn, rec)
		return
	}
	e.jrn.Append(rec)
}

// journalJobSubmit records a job submission; the handle itself is filed in
// jobTab by SubmitJob, in every configuration.
func (e *Engine) journalJobSubmit(j *job) {
	if e.jrn == nil {
		return
	}
	e.journalAppend(journal.Record{Kind: journal.KindJobSubmit, A: int64(j.id)})
}

// journalJobComplete records a job completion; finishJob retires the handle.
func (e *Engine) journalJobComplete(j *job) {
	if e.jrn == nil {
		return
	}
	e.journalAppend(journal.Record{Kind: journal.KindJobComplete, A: int64(j.id)})
}

// --- fault.System driver surface ----------------------------------------

// CrashDriver fails the driver at the current virtual time: all volatile
// driver memory is discarded and tearTail bytes are torn off the journal's
// end (a crash mid-append). Executors, their caches, persistent storage,
// and data-plane work already dispatched keep running; their results will
// find a driver that either is not listening or — after restart — rejects
// them through the incarnation fence.
func (e *Engine) CrashDriver(tearTail int) {
	if e.jrn == nil {
		panic("engine: driver crash injected without driver recovery; enable WithDriverRecovery")
	}
	if e.driverDown || e.closed {
		return
	}
	if e.tracer != nil {
		e.trace("driver-crash", -1, -1, -1, -1,
			fmt.Sprintf("tearTail=%d journal=%dB/%drec", tearTail, e.jrn.Size(), e.jrn.Len()))
	}
	e.driverDown = true
	e.driverGen++
	e.recUpdate(func(r *recMetrics) { r.DriverCrashes++ })
	if tearTail > 0 {
		e.jrn.TearTail(tearTail)
	}
	// The recovery epoch opens at the crash, so the measured delay includes
	// the downtime, the replay, and the resumed work's completion.
	e.resumeEpoch = &recoveryEpoch{start: e.loop.Now()}

	// Volatile driver memory vanishes, to be rebuilt from the journal plus
	// the re-handshake at restart. Slot accounting lives executor-side and
	// the executors' own completion events release it, so it is untouched.
	fresh := newDriverMemory(e.cfg)
	e.recMu.Lock() // Blacklisted snapshots read the maps inside
	e.driverMemory = fresh
	e.recMu.Unlock()
	e.cl.UnitMappingChanged() // every namespace just became unregistered
	if e.dagPol != nil {
		// DAG refcounts are volatile driver memory; resubmission re-charges
		// fresh stage runs (chargeStage) after the journal replays.
		e.dagPol.ResetRefs()
	}
}

// RestartDriver brings the driver back: journal replay, storage
// reconciliation, cache re-admission, and job resubmission, in that order.
func (e *Engine) RestartDriver() {
	if e.jrn == nil {
		panic("engine: driver restart injected without driver recovery; enable WithDriverRecovery")
	}
	if !e.driverDown || e.closed {
		return
	}
	e.driverDown = false
	now := e.loop.Now()

	// New driver incarnation: bump every executor epoch so any result still
	// in flight from a task the old incarnation launched is rejected by the
	// existing fence in onTaskResult, then re-handshake the processes that
	// answer (dead ones are rediscovered by detection or stay excluded by
	// liveness checks).
	for id := 0; id < e.cl.NumExecutors(); id++ {
		e.execEpoch[id]++
		e.execView[id] = viewAlive
		e.lastBeat[id] = now
		if !e.cl.Executor(id).Dead() {
			e.incSeen[id] = e.cl.Executor(id).Incarnation()
		}
	}

	recs, torn := e.jrn.ReplayLog()
	if e.tracer != nil {
		e.trace("driver-restart", -1, -1, -1, -1,
			fmt.Sprintf("replay=%drec torn=%dB", len(recs), torn))
	}
	e.recUpdate(func(r *recMetrics) {
		r.DriverRestarts++
		r.JournalRecordsReplayed += len(recs)
		if torn > 0 {
			r.JournalTornTails++
		}
	})
	journaledMap := make(map[[2]int]bool)
	journaledCP := make(map[int]bool)
	liveJobs := e.replayJournal(recs, journaledMap, journaledCP)

	// Appends buffered during downtime land after the replayed prefix.
	for _, rec := range e.pendingJrn {
		e.jrn.Append(rec)
	}
	e.pendingJrn = nil

	e.reconcileStore(journaledMap, journaledCP)
	e.sweepCachedUnits()
	e.resubmitJobs(liveJobs)

	// With nothing to resume, recovery completes at resubmission time;
	// otherwise the last resumed task's success closes the epoch
	// (noteTaskSuccess).
	if ep := e.resumeEpoch; ep != nil {
		e.resumeEpoch = nil
		if ep.pending == 0 {
			d := e.loop.Now() - ep.start
			e.recUpdate(func(r *recMetrics) { r.RecoveryDelays = append(r.RecoveryDelays, d) })
			if e.tracer != nil {
				e.trace("recovery-complete", -1, -1, -1, -1, fmt.Sprintf("delay=%v", d))
			}
		}
	}
	e.ensureHeartbeats()
	e.schedule()
	e.drainBatch() // cover restarts injected from outside the event loop
}

// replayJournal applies the journal's records in append order, rebuilding
// namespaces, Group Tree geometry, blacklist state, and the journaled-commit
// sets the storage reconciliation consumes. It returns the jobs the journal
// knows as submitted-but-not-completed.
func (e *Engine) replayJournal(recs []journal.Record, journaledMap map[[2]int]bool, journaledCP map[int]bool) map[int]bool {
	liveJobs := make(map[int]bool)
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindNamespace:
			c := e.collections[rec.S]
			if c == nil || c.part == nil {
				continue // namespace never re-attached by the application
			}
			if err := e.registerNamespace(rec.S, c.part, int(rec.A)); err != nil {
				panic(fmt.Sprintf("engine: journal replay: namespace %q: %v", rec.S, err))
			}
		case journal.KindGroupSplit, journal.KindGroupMerge:
			if e.registered[rec.S] == nil {
				continue
			}
			var err error
			if rec.Kind == journal.KindGroupSplit {
				_, _, err = e.grp.ReplaySplit(rec.S, int(rec.A))
			} else {
				_, err = e.grp.ReplayMerge(rec.S, int(rec.A))
			}
			if err == nil {
				err = e.applyGroupChange(rec)
			}
			if err != nil {
				panic(fmt.Sprintf("engine: journal replay: %v %q/%d: %v", rec.Kind, rec.S, rec.A, err))
			}
		case journal.KindMapOutput:
			journaledMap[[2]int{int(rec.A), int(rec.B)}] = true
		case journal.KindCheckpoint:
			journaledCP[int(rec.A)] = true
			if r := e.graph.ByID(int(rec.A)); r != nil {
				r.Checkpointed = true
				e.invalidateStageChains()
			}
		case journal.KindBlacklist:
			e.recMu.Lock()
			e.blacklist[int(rec.A)] = time.Duration(rec.B)
			e.recMu.Unlock()
		case journal.KindUnblacklist:
			e.recMu.Lock()
			delete(e.blacklist, int(rec.A))
			e.recMu.Unlock()
		case journal.KindJobSubmit:
			liveJobs[int(rec.A)] = true
		case journal.KindJobComplete:
			delete(liveJobs, int(rec.A))
		}
	}
	return liveJobs
}

// reconcileStore makes persistent storage agree with the replayed journal:
// a commit the journal does not know about happened after the last durable
// journal frame (torn tail), so it is rolled back and the work recomputes
// through lineage — the crash-consistency contract.
func (e *Engine) reconcileStore(journaledMap map[[2]int]bool, journaledCP map[int]bool) {
	dropped := 0
	for _, b := range e.store.CommittedMapOutputs() {
		if !journaledMap[[2]int{b[0], b[1]}] {
			e.store.DropMapOutput(b[0], b[1])
			dropped++
		}
	}
	for _, b := range e.store.CheckpointBlocks() {
		if !journaledCP[b[0]] {
			e.store.DropCheckpoint(b[0], b[1])
			if r := e.graph.ByID(b[0]); r != nil {
				r.Checkpointed = false
				e.invalidateStageChains()
			}
			dropped++
		}
	}
	if dropped > 0 && e.tracer != nil {
		e.trace("driver-reconcile", -1, -1, -1, -1, fmt.Sprintf("unjournaled blocks dropped=%d", dropped))
	}
}

// sweepCachedUnits re-admits surviving executor caches into the rebuilt
// LocalityManager: for every namespace unit, every live executor still
// holding one of the unit's blocks re-registers as a replica. The sweep
// walks namespaces, units, and executors in sorted order so the rebuilt
// preference lists are deterministic.
func (e *Engine) sweepCachedUnits() {
	names := make([]string, 0, len(e.registered))
	for ns := range e.registered {
		names = append(names, ns)
	}
	sort.Strings(names)
	for _, ns := range names {
		c := e.registered[ns]
		for _, u := range e.loc.Units(ns) {
			for exec := 0; exec < e.cl.NumExecutors(); exec++ {
				if e.cl.Executor(exec).Dead() {
					continue
				}
				if e.cl.UnitCached(exec, cluster.UnitID{NS: c.id, Unit: u}) {
					e.loc.AddReplica(ns, u, exec)
				}
			}
		}
	}
}

// resubmitJobs restarts every incomplete job — journaled in-flight ones
// first (ascending id), then submissions buffered during the downtime —
// with fresh stage state. Stages whose shuffles are fully committed are
// skipped by maybeStartStage, so each job resumes from its last committed
// stage; anything uncommitted recomputes through lineage. liveJobs is the
// journal's view of in-flight jobs; a lifecycle record the torn tail lost
// is re-appended so the journal stays coherent for any later crash.
func (e *Engine) resubmitJobs(liveJobs map[int]bool) {
	// Jobs the journal believes in flight but whose handles were already
	// retired completed before the crash with the completion record on the
	// torn tail; re-append it.
	done := make([]int, 0, len(liveJobs))
	for id := range liveJobs {
		if _, ok := e.jobTab[id]; !ok {
			done = append(done, id)
		}
	}
	sort.Ints(done)
	for _, id := range done {
		e.journalAppend(journal.Record{Kind: journal.KindJobComplete, A: int64(id)})
	}

	for _, id := range sortedIDs(e.jobTab) {
		j := e.jobTab[id]
		if j.done || j.pending {
			// Submissions buffered during the downtime start below, after
			// every journaled job, preserving submit order across the crash.
			continue
		}
		if !liveJobs[id] {
			e.journalAppend(journal.Record{Kind: journal.KindJobSubmit, A: int64(id)})
		}
		j.stages = nil
		j.resultSR = nil
		j.count = 0
		j.parts = make([][]record.Record, j.final.Parts)
		j.tasks = nil
		if e.tracer != nil {
			e.trace("job-resume", j.id, -1, -1, -1, fmt.Sprintf("final=%s", j.final.Name))
		}
		e.startJob(j)
	}
	// Ids ascend in submit order, and a job cancelled while buffered has
	// already left jobTab.
	for _, id := range sortedIDs(e.jobTab) {
		if j := e.jobTab[id]; j != nil && j.pending {
			j.pending = false
			e.journalJobSubmit(j)
			e.startJob(j)
		}
	}
}

// Close shuts the driver down for good, idempotently: the first call fails
// every in-flight job (submissions buffered during a crash window included)
// with ErrJobCancelled, unwinds their tasks, and closes the journal's sink
// exactly once; later calls — and calls landing during a crash-recovery
// window — change nothing and return the first call's error. A closed driver
// rejects new submissions and ignores CrashDriver/RestartDriver.
func (e *Engine) Close() error {
	if e.closed {
		return e.closeErr
	}
	e.closed = true
	// A closed driver is terminally down, not crashed-awaiting-restart:
	// clear the crash flag so driverDown readers see a settled state and a
	// racing scheduled RestartDriver stays a no-op (it checks closed first).
	e.driverDown = false
	cause := fmt.Errorf("engine: driver closed: %w", ErrJobCancelled)
	for _, id := range sortedIDs(e.jobTab) {
		e.cancelJob(e.jobTab[id], cause)
	}
	if e.jrn != nil {
		e.closeErr = e.jrn.Close()
	}
	return e.closeErr
}
