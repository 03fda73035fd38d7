package engine

import (
	"errors"
	"fmt"
	"slices"
)

// This file is the one path that ends a job with an error: retry
// exhaustion, a refused shuffle rebuild, CancelJob (the session layer's
// deadlines and admission control) and Close all end in failJob. It aborts
// the job's running attempts, discards its queued and parked ones, releases
// their recovery epochs, ends the shuffle executions the job owns
// (endExecution) so that runs and parked attempts of other jobs waiting on
// them are woken, and delivers a typed error through the job's callback. No
// attempt of a finished job stays in driver memory, so neither the scheduler
// nor the recovery paths check for one.

// CancelJob withdraws an in-flight job by id through failJob: queued and
// parked attempts are discarded, running ones are aborted with their slots
// freed at cancellation time, the shuffle executions it owns end (waking
// other jobs' waiting runs and parked attempts), and the job's callback
// receives cause, wrapped over ErrJobCancelled when the sentinel is not
// already in its chain. It reports whether a job was cancelled (false for
// unknown ids and already-completed jobs). Submissions buffered during a
// driver crash window cancel cleanly without ever starting.
func (e *Engine) CancelJob(id int, cause error) bool {
	j := e.jobTab[id]
	if j == nil || j.done {
		return false
	}
	if cause == nil {
		cause = ErrJobCancelled
	} else if !errors.Is(cause, ErrJobCancelled) {
		cause = fmt.Errorf("%w: %w", ErrJobCancelled, cause)
	}
	e.cancelJob(j, cause)
	if !e.driverDown {
		// Freed slots can serve other jobs' queued tasks immediately.
		e.schedule()
		e.drainBatch() // cover cancellations injected from outside the event loop
	}
	return true
}

// cancelJob counts one cancellation and fails j with cause through the
// shared end path (failJob). Close reuses it for every in-flight job.
func (e *Engine) cancelJob(j *job, cause error) {
	e.recUpdate(func(r *recMetrics) { r.JobCancellations++ })
	e.failJob(j, cause)
}

// failJob ends j with err (see the file comment).
func (e *Engine) failJob(j *job, err error) {
	if j.done {
		return
	}
	for _, tid := range sortedIDs(e.running) {
		if t := e.running[tid]; t.sr.job == j {
			e.cancelTask(t)
			e.releaseEpoch(t)
		}
	}
	discard := func(t *task) bool { return e.discard(t, j) }
	e.prefPending = slices.DeleteFunc(e.prefPending, discard)
	for i := e.plainHead; i < len(e.plainPending); i++ {
		if discard(e.plainPending[i]) {
			e.plainPending[i] = nil
		}
	}
	// Every record, not only the job's parent shuffles: a task recomputing
	// past a lost or corrupt checkpoint parks on a shuffle upstream of its
	// stage.
	for _, id := range sortedIDs(e.shuffles) {
		rec := e.shuffles[id]
		rec.parked = slices.DeleteFunc(rec.parked, discard)
	}
	j.err = err
	if e.tracer != nil {
		e.trace("job-fail", j.id, -1, -1, -1, err.Error())
	}
	e.finishJob(j)
	e.releaseJobShuffles(j)
}

// discard reports whether t is an attempt of j, discarding it if so: a
// queued or parked attempt that will never launch leaves the unarmed-timer
// counter and its recovery epoch.
func (e *Engine) discard(t *task, j *job) bool {
	if t == nil || t.sr.job != j {
		return false
	}
	if !t.aborted && !t.launched() {
		t.aborted = true
		if t.counted && !t.waitArmed {
			e.unarmed--
		}
		e.releaseEpoch(t)
	}
	return true
}

// releaseEpoch removes a task from its recovery epoch's pending count,
// recording the epoch's delay if it was the last outstanding attempt. The
// still-open resume epoch of an in-progress driver restart is left for
// RestartDriver to close.
func (e *Engine) releaseEpoch(t *task) {
	ep := t.epoch
	if ep == nil {
		return
	}
	t.epoch = nil
	ep.pending--
	if ep.pending == 0 && ep != e.resumeEpoch {
		d := e.loop.Now() - ep.start
		e.recUpdate(func(r *recMetrics) { r.RecoveryDelays = append(r.RecoveryDelays, d) })
		if e.tracer != nil {
			e.trace("recovery-complete", -1, -1, -1, -1, fmt.Sprintf("delay=%v", d))
		}
	}
}
