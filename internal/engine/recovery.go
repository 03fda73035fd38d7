package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"stark/internal/journal"
	"stark/internal/metrics"
	"stark/internal/sched"
)

// This file is the engine's failure-recovery plane: bounded per-task retry
// with virtual-time backoff, executor blacklisting with timed probation,
// stage resubmission on shuffle fetch failure, speculative re-execution of
// stragglers, and the fault.System surface the injector drives.

// recoveryEpoch tracks one executor failure's disruption: pending counts
// the aborted tasks whose replacement attempts have not yet succeeded. When
// it hits zero the elapsed virtual time is recorded as the failure's
// measured recovery delay.
type recoveryEpoch struct {
	start   time.Duration
	pending int
}

// recMetrics shortens the signature of recUpdate closures.
type recMetrics = metrics.RecoveryMetrics

// recUpdate applies one mutation to the recovery counters under recMu. All
// mutations happen on the loop goroutine; the lock exists so Recovery() and
// Blacklisted() can be called concurrently from other goroutines (progress
// monitors, tests under -race) without tearing a snapshot.
func (e *Engine) recUpdate(f func(*recMetrics)) {
	e.recMu.Lock()
	f(&e.rec)
	e.recMu.Unlock()
}

// Recovery returns a snapshot of the engine's fault-handling counters and
// measured recovery delays. Safe to call from any goroutine.
func (e *Engine) Recovery() metrics.RecoveryMetrics {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	snap := e.rec
	snap.RecoveryDelays = append([]time.Duration(nil), e.rec.RecoveryDelays...)
	snap.DetectionDelays = append([]time.Duration(nil), e.rec.DetectionDelays...)
	return snap
}

// Blacklisted lists the executors currently on the blacklist, ascending. An
// entry stays on the list — even through restarts and probationary offers —
// until the executor completes a task successfully. Safe to call from any
// goroutine.
func (e *Engine) Blacklisted() []int {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return sortedIDs(e.blacklist)
}

// schedulable reports whether the scheduler may offer an executor's slots:
// it must be alive (and, under heartbeat detection, believed alive by the
// driver) and not inside a blacklist exclusion window.
func (e *Engine) schedulable(id int) bool {
	if id < 0 || id >= e.cl.NumExecutors() || e.cl.Executor(id).Dead() {
		return false
	}
	if e.hb.Interval > 0 && e.execView[id] != viewAlive {
		return false
	}
	return e.blacklist[id] <= e.loop.Now()
}

// cloneTask builds a fresh attempt of a task (retry, crash resubmission, or
// speculative copy) sharing its work spec and recovery epoch.
func (e *Engine) cloneTask(t *task, attempt int) *task {
	c := &task{
		id:         e.taskSeq,
		sr:         t.sr,
		partitions: t.partitions,
		coll:       t.coll,
		unit:       t.unit,
		group:      t.group,
		prefCap:    t.prefCap,
		submitted:  e.loop.Now(),
		attempt:    attempt,
		epoch:      t.epoch,
	}
	e.taskSeq++
	c.tm = metrics.TaskMetrics{
		JobID:     t.sr.job.id,
		StageID:   t.sr.st.ID,
		TaskID:    c.id,
		Submitted: c.submitted,
	}
	return c
}

// detachPartner unlinks a finished-or-dead task from a still-running
// speculative partner, which carries on as the sole attempt. It reports
// whether a live partner took over.
func (t *task) detachPartner() bool {
	if p := t.spec; p != nil && !p.aborted {
		p.specOf = nil
		t.spec = nil
		return true
	}
	if o := t.specOf; o != nil && !o.aborted {
		o.spec = nil
		t.specOf = nil
		return true
	}
	return false
}

// onTaskFailure routes one failed attempt: fetch failures resubmit the
// producing map stage, storage failures count against the executor
// (blacklisting it past the threshold) and retry with doubling virtual-time
// backoff until the retry budget is spent, which fails the job.
func (e *Engine) onTaskFailure(t *task) {
	err := t.failErr
	e.recUpdate(func(r *recMetrics) { r.TaskFailures++ })
	if e.tracer != nil {
		e.trace("task-fail", t.sr.job.id, t.sr.st.ID, t.id, t.exec,
			fmt.Sprintf("attempt=%d err=%v", t.attempt, err))
	}
	if t.detachPartner() {
		// The speculative partner is still running; it is the live attempt.
		return
	}
	var fe *fetchError
	if errors.As(err, &fe) {
		e.recUpdate(func(r *recMetrics) { r.FetchFailures++ })
		e.resubmitForFetch(t, fe.shuffle)
		return
	}
	e.noteExecutorFailure(t.exec)
	if t.attempt >= e.cfg.Recovery.MaxTaskRetries {
		e.failJob(t.sr.job, fmt.Errorf("engine: task %d (stage %d) failed after %d attempts: %w",
			t.id, t.sr.st.ID, t.attempt+1, err))
		return
	}
	e.recUpdate(func(r *recMetrics) { r.TaskRetries++ })
	shift := uint(t.attempt)
	if shift > 16 {
		shift = 16
	}
	backoff := e.cfg.Recovery.RetryBackoff << shift
	clone := e.cloneTask(t, t.attempt+1)
	if e.tracer != nil {
		e.trace("task-retry", t.sr.job.id, t.sr.st.ID, clone.id, -1,
			fmt.Sprintf("of=%d attempt=%d backoff=%v", t.id, clone.attempt, backoff))
	}
	gen := e.driverGen
	e.loop.After(backoff, func() {
		if gen != e.driverGen {
			// A driver crash between scheduling and firing voided the retry:
			// the restarted driver resubmits the whole job from the journal.
			return
		}
		if clone.sr.job.done {
			// The clone sits in no queue while it waits, so failJob cannot
			// discard it: drop it here, releasing the recovery epoch it
			// carries so that the epoch still closes.
			e.releaseEpoch(clone)
			return
		}
		clone.submitted = e.loop.Now()
		clone.tm.Submitted = clone.submitted
		e.enqueue(clone)
		e.schedule()
	})
}

// noteExecutorFailure counts a task failure against an executor and
// blacklists it past the threshold. Blacklisting is an exclusion window:
// after it expires (or after RestartExecutor) the executor gets
// probationary offers while staying on the list; a successful task removes
// it, a further failure re-arms the window.
func (e *Engine) noteExecutorFailure(exec int) {
	th := e.cfg.Recovery.BlacklistThreshold
	if th <= 0 {
		return
	}
	e.execFailures[exec]++
	if e.execFailures[exec] < th {
		return
	}
	if e.blacklist[exec] > e.loop.Now() {
		return // already inside an exclusion window
	}
	until := e.loop.Now() + e.cfg.Recovery.BlacklistExpiry
	e.recMu.Lock()
	e.blacklist[exec] = until
	e.rec.ExecutorBlacklists++
	e.recMu.Unlock()
	e.journalAppend(journal.Record{Kind: journal.KindBlacklist, A: int64(exec), B: int64(until)})
	if e.tracer != nil {
		e.trace("executor-blacklist", -1, -1, -1, exec,
			fmt.Sprintf("failures=%d until=%v", e.execFailures[exec], until))
	}
	// Re-run scheduling when the window expires so probation can begin.
	e.loop.At(until+time.Millisecond, func() { e.schedule() })
}

// noteExecutorSuccess clears an executor's failure count and removes it
// from the blacklist after a successful task.
func (e *Engine) noteExecutorSuccess(exec int) {
	_, listed := e.blacklist[exec]
	if e.execFailures[exec] == 0 && !listed {
		return
	}
	e.execFailures[exec] = 0
	if listed {
		e.recMu.Lock()
		delete(e.blacklist, exec)
		e.rec.ExecutorUnblacklists++
		e.recMu.Unlock()
		e.journalAppend(journal.Record{Kind: journal.KindUnblacklist, A: int64(exec)})
		e.trace("executor-unblacklist", -1, -1, -1, exec, "")
	}
}

// noteTaskSuccess finishes recovery bookkeeping for a successful task:
// speculative partners are cancelled (first finisher wins), the executor's
// blacklist state heals, and recovery epochs count down.
func (e *Engine) noteTaskSuccess(t *task) {
	if p := t.spec; p != nil && !p.aborted {
		e.cancelTask(p)
		if e.tracer != nil {
			e.trace("task-speculate-lose", t.sr.job.id, t.sr.st.ID, p.id, p.exec,
				fmt.Sprintf("original %d won", t.id))
		}
	}
	if o := t.specOf; o != nil && !o.aborted {
		e.cancelTask(o)
		e.recUpdate(func(r *recMetrics) { r.SpeculativeWins++ })
		if e.tracer != nil {
			e.trace("task-speculate-win", t.sr.job.id, t.sr.st.ID, t.id, t.exec,
				fmt.Sprintf("beat original %d", o.id))
		}
	}
	e.noteExecutorSuccess(t.exec)
	e.releaseEpoch(t)
	t.sr.durations = append(t.sr.durations, t.tm.Duration())
}

// cancelTask withdraws a running task (a speculation loser, or an attempt
// of a failing job): its slot frees immediately and its pending completion
// event becomes a no-op.
func (e *Engine) cancelTask(t *task) {
	if t.aborted {
		return
	}
	t.aborted = true
	delete(e.running, t.id)
	e.releaseSlot(t)
}

// shuffleRec is the driver's record of one shuffle (DESIGN §7, "Shuffle
// record"): the map stage producing it, registered by the first run that
// starts or skips it; the owner, the one run executing that stage now (nil
// when none); the runs waiting on the execution (the same stage in other
// jobs, and stages reading the shuffle); the fresh attempts of reduce tasks
// that failed to fetch it; and its resubmissions for lost outputs.
type shuffleRec struct {
	producer  *sched.Stage
	owner     *stageRun
	waiting   []*stageRun
	parked    []*task
	resubmits int
}

// shuffle returns a shuffle's record, creating it on first use.
func (e *Engine) shuffle(id int) *shuffleRec {
	rec := e.shuffles[id]
	if rec == nil {
		rec = &shuffleRec{}
		e.shuffles[id] = rec
	}
	return rec
}

// endExecution ends the execution a shuffle's record holds — its owner
// completed the shuffle, or the owner's job failed — and wakes what waited
// on it, in order: the record loses its owner; the owner job's stages, then
// the waiting runs re-check readiness, so one of them may take the
// execution over; on a complete shuffle the parked attempts re-enqueue, and
// on an incomplete one that no run took over, the job of the first parked
// attempt rebuilds it. Every parked attempt belongs to a live job: failJob
// drops a failing job's.
func (e *Engine) endExecution(id int, rec *shuffleRec) {
	complete := e.store.ShuffleComplete(id)
	j := rec.owner.job
	rec.owner = nil
	waiting := rec.waiting
	rec.waiting = nil
	for _, sr := range j.stages {
		e.maybeStartStage(sr)
	}
	for _, w := range waiting {
		e.maybeStartStage(w)
	}
	if complete {
		e.releaseParked(rec)
		return
	}
	if rec.owner != nil {
		return
	}
	if len(rec.parked) > 0 {
		e.rebuildShuffle(rec.parked[0].sr.job, id)
	}
}

// releaseJobShuffles ends the executions a failed job's runs own, so the
// runs and parked attempts of other jobs waiting on them are woken instead
// of waiting for good on a run that will never complete.
func (e *Engine) releaseJobShuffles(j *job) {
	for _, sr := range j.stages {
		if !sr.st.ShuffleMap {
			continue
		}
		if rec := e.shuffles[sr.st.ShuffleID]; rec != nil && rec.owner == sr {
			e.endExecution(sr.st.ShuffleID, rec)
		}
	}
}

// resubmitForFetch handles one reduce task's fetch failure: a fresh copy of
// the task parks on the shuffle until it is rebuilt (fetch failures do not
// burn the task's retry budget), and the producing map stage is resubmitted
// for the missing partitions.
func (e *Engine) resubmitForFetch(t *task, shuffleID int) {
	rec := e.shuffle(shuffleID)
	rec.parked = append(rec.parked, e.cloneTask(t, t.attempt))
	e.rebuildShuffle(t.sr.job, shuffleID)
}

// maxStageResubmissions bounds how often one shuffle's map stage may be
// resubmitted to rebuild lost outputs before the job fails.
const maxStageResubmissions = 8

// rebuildShuffle resubmits the map stage that produced a shuffle whose
// outputs went missing, as a new run of j that owns the execution. When no
// producer is on record or the resubmissions ran out, the rebuild is refused
// (refuseRebuild).
func (e *Engine) rebuildShuffle(j *job, shuffleID int) {
	rec := e.shuffle(shuffleID)
	if rec.owner != nil {
		return // a run is executing the shuffle; its end wakes the waiters
	}
	st := rec.producer
	if st == nil {
		e.refuseRebuild(rec, j, fmt.Errorf("engine: shuffle %d has no registered producer stage: %w",
			shuffleID, ErrFetchFailed))
		return
	}
	missing := e.store.MissingMapOutputs(shuffleID)
	if len(missing) == 0 {
		// The outputs reappeared (another job rewrote them) — release waiters.
		e.releaseParked(rec)
		return
	}
	sr := &stageRun{st: st, job: j, started: true}
	j.stages = append(j.stages, sr)
	e.chargeStage(sr)
	rec.owner = sr
	e.resubmitMissing(rec, sr, missing)
}

// refuseRebuild fails j, and every live job with a run or an attempt waiting
// on the shuffle, with err: a shuffle without a producer on record, or out of
// resubmissions, cannot be rebuilt for any of them. The parked attempts
// leave the record first, releasing their epochs, so that failing j (which
// ends its execution of the shuffle) does not ask for the rebuild again.
func (e *Engine) refuseRebuild(rec *shuffleRec, j *job, err error) {
	waiting, parked := rec.waiting, rec.parked
	rec.waiting, rec.parked = nil, nil
	for _, t := range parked {
		e.releaseEpoch(t)
	}
	e.failJob(j, err)
	for _, w := range waiting {
		e.failJob(w.job, err)
	}
	for _, t := range parked {
		e.failJob(t.sr.job, err)
	}
}

// resubmitMissing charges one resubmission of the owner sr's map stage
// against maxStageResubmissions, refusing the rebuild past it, and enqueues
// the tasks covering only the missing partitions (group tasks recompute any
// group containing one).
func (e *Engine) resubmitMissing(rec *shuffleRec, sr *stageRun, missing []int) {
	id := sr.st.ShuffleID
	if rec.resubmits++; rec.resubmits > maxStageResubmissions {
		e.refuseRebuild(rec, sr.job, fmt.Errorf("engine: shuffle %d resubmitted more than %d times: %w",
			id, maxStageResubmissions, ErrFetchFailed))
		return
	}
	e.recUpdate(func(r *recMetrics) { r.StageResubmissions++ })
	if e.tracer != nil {
		e.trace("stage-resubmit", sr.job.id, sr.st.ID, -1, -1, fmt.Sprintf("shuffle=%d missing=%d", id, len(missing)))
	}
	out := sr.st.Output
	c := e.collectionOf(out)
	miss := make(map[int]bool, len(missing))
	for _, m := range missing {
		miss[m] = true
	}
	var chosen []taskSpec
	for _, sp := range e.taskSpecs(out, c) {
		for _, p := range sp.partitions {
			if miss[p] {
				chosen = append(chosen, sp)
				break
			}
		}
	}
	sr.remaining = len(chosen)
	if len(chosen) == 0 {
		e.onStageComplete(sr)
		return
	}
	e.enqueueSpecs(sr, chosen, e.stagePrefCap(sr, c))
	e.schedule()
}

// ensureParentShuffle unblocks a stage waiting on an incomplete parent
// shuffle. When the producing stage in this job has not started yet, normal
// submission flow will run it. Otherwise the producer already ran (or was
// skipped because the shuffle persisted from an earlier job) and the
// outputs have since been lost — register the stage as a waiter and kick a
// rebuild if none is in flight.
func (e *Engine) ensureParentShuffle(sr *stageRun, shuffleID int) {
	for _, p := range sr.job.stages {
		if p.st.ShuffleMap && p.st.ShuffleID == shuffleID && !p.started {
			return
		}
	}
	rec := e.shuffle(shuffleID)
	if !slices.Contains(rec.waiting, sr) {
		rec.waiting = append(rec.waiting, sr)
	}
	e.rebuildShuffle(sr.job, shuffleID)
}

// releaseParked re-enqueues the reduce attempts parked on a shuffle once its
// outputs are complete again (failJob drops a failed job's parked attempts).
func (e *Engine) releaseParked(rec *shuffleRec) {
	parked, now := rec.parked, e.loop.Now()
	rec.parked = nil
	for _, w := range parked {
		w.submitted = now
		w.tm.Submitted = now
		e.enqueue(w)
	}
}

// maybeSpeculate launches speculative copies of stragglers in a stage: once
// the configured quantile of tasks has finished, any running task whose
// expected duration exceeds the multiplier times the stage's median
// completed duration is re-executed on a different, full-speed executor;
// the first finisher wins.
func (e *Engine) maybeSpeculate(sr *stageRun) {
	rc := e.cfg.Recovery
	if !rc.Speculation || sr.remaining <= 0 {
		return
	}
	done := len(sr.durations)
	total := done + sr.remaining
	if done == 0 || float64(done) < rc.SpeculationQuantile*float64(total) {
		return
	}
	med := medianDuration(sr.durations)
	if med <= 0 {
		return
	}
	limit := time.Duration(rc.SpeculationMultiplier * float64(med))
	now := e.loop.Now()
	for _, id := range sortedIDs(e.running) {
		t := e.running[id]
		if t.sr != sr || t.aborted || t.failErr != nil || t.spec != nil || t.specOf != nil {
			continue
		}
		if t.expectedEnd <= now || t.expectedEnd-t.tm.Started <= limit {
			continue
		}
		exec := e.speculationTarget(t)
		if exec < 0 {
			continue
		}
		clone := e.cloneTask(t, t.attempt)
		clone.specOf = t
		t.spec = clone
		e.recUpdate(func(r *recMetrics) { r.SpeculativeLaunches++ })
		if e.tracer != nil {
			e.trace("task-speculate", sr.job.id, sr.st.ID, clone.id, exec,
				fmt.Sprintf("of=%d expected=%v median=%v", t.id, t.expectedEnd-t.tm.Started, med))
		}
		e.launch(clone, exec, metrics.Remote)
	}
}

// speculationTarget picks the lowest-id schedulable, full-speed executor
// with a free slot other than the straggler's own.
func (e *Engine) speculationTarget(t *task) int {
	for _, id := range e.cl.AliveExecutors() {
		if id == t.exec || !e.schedulable(id) {
			continue
		}
		ex := e.cl.Executor(id)
		if ex.FreeSlots() > 0 && ex.Slowdown() <= 1 {
			return id
		}
	}
	return -1
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[len(sorted)/2]
}

// --- fault.System: the surface the fault injector drives ---------------

// SetStraggler slows (factor > 1) or restores (factor <= 1) an executor;
// new task launches there take factor times their modeled duration.
func (e *Engine) SetStraggler(id int, factor float64) {
	e.cl.SetSlowdown(id, factor)
	if e.tracer != nil {
		e.trace("executor-straggle", -1, -1, -1, id, fmt.Sprintf("factor=%.2f", factor))
	}
}

// SetMemPressure shrinks (factor < 1) or restores (factor >= 1) an
// executor's effective cache capacity — the MemPressure fault. The GC
// pressure model and the put path both read the effective capacity, so
// the squeeze shows up in both at once; cached
// blocks above the shrunk bound are not evicted eagerly, the next put pays.
func (e *Engine) SetMemPressure(id int, factor float64) {
	e.cl.SetMemPressure(id, factor)
	if e.tracer != nil {
		e.trace("executor-mem-pressure", -1, -1, -1, id, fmt.Sprintf("factor=%.2g", factor))
	}
}

// SetOOMWindow arms or disarms an ExecutorOOM window: while armed, a cache
// write the (shrunk) capacity cannot admit fails its task with ErrOOM
// instead of degrading to a graceful refusal (plane.go's applyEffects).
func (e *Engine) SetOOMWindow(id int, armed bool) {
	if armed {
		e.oomArmed[id] = true
	} else {
		delete(e.oomArmed, id)
	}
	if e.tracer != nil {
		e.trace("executor-oom-window", -1, -1, -1, id, fmt.Sprintf("armed=%v", armed))
	}
}

// LoseBlock deletes the pick-th committed shuffle map output, or checkpoint
// block when checkpoint is set (modulo the current count), simulating loss
// of a persisted block. Consumers of a lost map output see a fetch failure
// and trigger stage resubmission; readers of a lost checkpoint fall back to
// lineage recomputation.
func (e *Engine) LoseBlock(checkpoint bool, pick int) bool {
	return e.faultBlock("fault-block-loss", checkpoint, pick, e.store.DropMapOutput, e.store.DropCheckpoint)
}

// CorruptBlock flips the checksum of the pick-th committed shuffle map
// output, or checkpoint block when checkpoint is set (modulo the current
// count); the next reader takes the integrity-failure recompute path.
func (e *Engine) CorruptBlock(checkpoint bool, pick int) bool {
	return e.faultBlock("fault-block-corrupt", checkpoint, pick, e.store.CorruptMapOutput, e.store.CorruptCheckpoint)
}

// faultBlock applies onShuffle to the pick-th committed map output, or
// onCheckpoint to the pick-th checkpoint block, and traces kind if the block
// existed.
func (e *Engine) faultBlock(kind string, checkpoint bool, pick int, onShuffle, onCheckpoint func(a, b int) bool) bool {
	list, op, detail := e.store.CommittedMapOutputs, onShuffle, "shuffle=%d map=%d"
	if checkpoint {
		list, op, detail = e.store.CheckpointBlocks, onCheckpoint, "checkpoint rdd=%d part=%d"
	}
	blocks := list()
	if len(blocks) == 0 {
		return false
	}
	b := blocks[pick%len(blocks)]
	if !op(b[0], b[1]) {
		return false
	}
	if e.tracer != nil {
		e.trace(kind, -1, -1, -1, -1, fmt.Sprintf(detail, b[0], b[1]))
	}
	return true
}
