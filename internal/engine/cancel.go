package engine

import (
	"errors"
	"fmt"
)

// This file is the cooperative job-cancellation path the session layer's
// deadlines and admission control drive: a cancelled job unwinds its
// in-flight tasks (slots free immediately, completion events become no-ops),
// ends the shuffle executions it owns (endExecution) so other jobs' runs
// waiting on them take them over and their parked reduce attempts get the
// shuffle rebuilt, and delivers a typed error through its callback.

// CancelJob withdraws an in-flight job by id: queued tasks are discarded,
// running attempts are aborted with their slots freed at cancellation time,
// the shuffle executions it owns end (waking other jobs' waiting runs and
// parked attempts), and the job's callback receives cause, wrapped over
// ErrJobCancelled when the sentinel is not already in its chain. It reports
// whether a job was cancelled (false for unknown ids and already-completed
// jobs). Submissions buffered during a driver crash window cancel cleanly
// without ever starting.
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

// cancelJob unwinds one job and fails it with cause. Close reuses it for
// every in-flight job.
func (e *Engine) cancelJob(j *job, cause error) {
	// Abort running attempts first so their slots free now instead of at
	// their simulated completion, and release their recovery epochs — a
	// cancelled task needs no replacement attempt.
	for _, tid := range sortedIDs(e.running) {
		t := e.running[tid]
		if t.sr.job == j {
			e.cancelTask(t)
			e.releaseEpoch(t)
		}
	}
	// Queued attempts are discarded lazily by the scheduler once the job is
	// done; their epochs release here so crash-recovery delay measurement
	// never waits on work that will not run.
	for _, t := range e.prefPending {
		if t != nil && t.sr.job == j && !t.aborted && !t.launched() {
			e.releaseEpoch(t)
		}
	}
	for i := e.plainHead; i < len(e.plainPending); i++ {
		if t := e.plainPending[i]; t != nil && t.sr.job == j && !t.aborted && !t.launched() {
			e.releaseEpoch(t)
		}
	}
	e.recUpdate(func(r *recMetrics) { r.JobCancellations++ })
	e.failJob(j, cause)
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
