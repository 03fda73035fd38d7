package engine

import (
	"fmt"
	"time"

	"stark/internal/metrics"
)

// TraceEvent is one structured scheduler event on the virtual timeline,
// emitted when a trace sink is installed (SetTracer). Event kinds:
//
//	job-submit, stage-start, task-launch, task-finish, job-finish,
//	executor-kill, executor-restart, checkpoint, replica-add, replica-drop
//
// Recovery-plane kinds:
//
//	task-fail, task-retry, task-resubmit, task-speculate,
//	task-speculate-win, task-speculate-lose, stage-resubmit,
//	executor-blacklist, executor-unblacklist, executor-straggle,
//	fault-block-loss, recovery-complete, job-fail, checkpoint-defer,
//	checkpoint-abort
type TraceEvent struct {
	At   time.Duration
	Kind string
	// Job/Stage/Task are -1 when not applicable.
	Job, Stage, Task int
	// Executor is -1 when not applicable.
	Executor int
	// Detail carries kind-specific context (RDD names, locality, units).
	Detail string
}

// String renders the event as a single log line.
func (ev TraceEvent) String() string {
	s := fmt.Sprintf("[%12v] %-16s", ev.At, ev.Kind)
	if ev.Job >= 0 {
		s += fmt.Sprintf(" job=%d", ev.Job)
	}
	if ev.Stage >= 0 {
		s += fmt.Sprintf(" stage=%d", ev.Stage)
	}
	if ev.Task >= 0 {
		s += fmt.Sprintf(" task=%d", ev.Task)
	}
	if ev.Executor >= 0 {
		s += fmt.Sprintf(" exec=%d", ev.Executor)
	}
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// SetTracer installs a trace sink; nil disables tracing. The sink is called
// synchronously from the event loop, so it must be cheap.
func (e *Engine) SetTracer(sink func(TraceEvent)) { e.tracer = sink }

// trace emits one event to the installed sink, if any. A caller whose detail
// costs anything to build (a Sprintf, a String or Error call) checks
// e.tracer first, so an untraced run formats nothing.
func (e *Engine) trace(kind string, job, stage, taskID, exec int, detail string) {
	if e.tracer == nil {
		return
	}
	e.tracer(TraceEvent{
		At: e.loop.Now(), Kind: kind,
		Job: job, Stage: stage, Task: taskID, Executor: exec,
		Detail: detail,
	})
}

func (e *Engine) traceTaskLaunch(t *task, exec int, loc metrics.Locality) {
	if e.tracer == nil {
		return
	}
	e.trace("task-launch", t.sr.job.id, t.sr.st.ID, t.id, exec,
		fmt.Sprintf("rdd=%s parts=%d locality=%s", t.sr.st.Output.Name, len(t.partitions), loc)) //starklint:ignore hotalloc formats only with a tracer installed
}

func (e *Engine) traceTaskFinish(t *task) {
	if e.tracer == nil {
		return
	}
	e.trace("task-finish", t.sr.job.id, t.sr.st.ID, t.id, t.exec, "dur="+t.tm.Duration().String())
}
