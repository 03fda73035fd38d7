package engine

import (
	"errors"
	"slices"
	"testing"
	"time"

	"stark/internal/journal"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/storage"
)

// errFailed is the error the tests below end their jobs with.
var errFailed = errors.New("injected job failure")

// sumJob submits a ReduceByKey of 3 200 records in 32 partitions into
// Hash(8) — a 32-task map stage, then 8 reduce tasks — and returns the
// job and a pointer the job's result lands in.
func sumJob(e *Engine) (*job, *JobResult) {
	g := e.Graph()
	rbk := g.ReduceByKey(g.Source("src", dataset(3200, 32), false), "sum", partition.NewHash(8), sumMerge)
	return submitTo(e, rbk)
}

// submitTo submits a count of final and returns its job and result slot.
func submitTo(e *Engine, final *rdd.RDD) (*job, *JobResult) {
	res := new(JobResult)
	id := e.SubmitJob(final, ActionCount, func(r JobResult) { *res = r })
	return e.jobTab[id], res
}

// heldAttempts lists every attempt the driver holds: running, queued (in
// either pending queue, the plain one from its head) or parked on a shuffle.
// Launched and aborted queue entries the scheduler has not compacted yet do
// not count.
func heldAttempts(e *Engine) []*task {
	var out []*task
	for _, id := range sortedIDs(e.running) {
		out = append(out, e.running[id])
	}
	for _, t := range e.prefPending {
		if !t.aborted && !t.launched() {
			out = append(out, t)
		}
	}
	for _, t := range e.plainPending[e.plainHead:] {
		if t != nil && !t.aborted && !t.launched() {
			out = append(out, t)
		}
	}
	for _, id := range sortedIDs(e.shuffles) {
		out = append(out, e.shuffles[id].parked...)
	}
	return out
}

// attemptsOf lists the attempts of j the driver holds (heldAttempts).
func attemptsOf(e *Engine, j *job) []*task {
	return slices.DeleteFunc(heldAttempts(e), func(t *task) bool { return t.sr.job != j })
}

// runningOf counts j's running attempts.
func runningOf(e *Engine, j *job) int {
	n := 0
	for _, t := range e.running {
		if t.sr.job == j {
			n++
		}
	}
	return n
}

// drain steps e's loop until it has nothing left to run, failing the test
// after 100 000 steps.
func drain(t *testing.T, e *Engine) {
	t.Helper()
	for steps := 0; e.Loop().Step(); steps++ {
		if steps == 100000 {
			t.Fatalf("loop still busy after %d steps (virtual %v)", steps, e.Now())
		}
	}
}

// TestFailedJobKeepsNoRunningAttempts: a job failed while 8 of its map
// tasks run (every slot) keeps none of them. Nothing of it is running or
// queued afterwards, no map output commits after the failure, Stats().Tasks
// does not count the aborted tasks, and under driver recovery no map-output
// record follows the job's completion record in the journal.
func TestFailedJobKeepsNoRunningAttempts(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		cfg := testConfig()
		cfg.DriverRecovery = journaled
		e := New(cfg)
		j, res := sumJob(e)
		var runningAtFail, tasksAtFail, outputsAtFail int
		var left []*task
		e.Loop().At(time.Millisecond, func() {
			runningAtFail = runningOf(e, j)
			tasksAtFail = e.Stats().Tasks
			outputsAtFail = len(e.store.CommittedMapOutputs())
			e.failJob(j, errFailed)
			left = attemptsOf(e, j)
		})
		drain(t, e)
		if runningAtFail != 8 {
			t.Fatalf("journaled=%v: %d map tasks running at the failure, want 8", journaled, runningAtFail)
		}
		if !errors.Is(res.Err, errFailed) {
			t.Fatalf("journaled=%v: job err = %v, want the injected failure", journaled, res.Err)
		}
		if len(left) != 0 {
			t.Errorf("journaled=%v: %d attempts of the failed job left in driver memory", journaled, len(left))
		}
		if got := e.Stats().Tasks; got != tasksAtFail {
			t.Errorf("journaled=%v: Stats().Tasks = %d after the failure, %d at it", journaled, got, tasksAtFail)
		}
		if got := len(e.store.CommittedMapOutputs()); got != outputsAtFail {
			t.Errorf("journaled=%v: %d map outputs committed after the failure (%d at it)", journaled, got-outputsAtFail, outputsAtFail)
		}
		if !journaled {
			continue
		}
		recs, _ := e.jrn.ReplayLog()
		end, late := -1, 0
		for i, r := range recs {
			switch {
			case r.Kind == journal.KindJobComplete && r.A == int64(j.id):
				end = i
			case r.Kind == journal.KindMapOutput && end >= 0:
				late++
			}
		}
		if end < 0 || late > 0 {
			t.Errorf("job %d's completion is journal record %d; %d map-output records follow it", j.id, end, late)
		}
	}
}

// TestFailedJobLeavesNoQueuedAttempts: the failed job's map tasks read a
// cached source that an earlier job is computing, so at the failure some of
// them wait in the preference queue (promoted as the other job cached their
// blocks) and the rest in the plain queue, watching blocks not cached yet.
// None may stay queued, none may be promoted when the other job caches its
// block later, and the unarmed-timer counter must read 0 once that job is
// done.
func TestFailedJobLeavesNoQueuedAttempts(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(3200, 32), false)
	src.CacheFlag = true
	_, other := submitTo(e, src)
	j, res := submitTo(e, g.ReduceByKey(src, "sum", partition.NewHash(8), sumMerge))
	preferred := 0
	var left []*task
	e.Loop().At(time.Millisecond, func() {
		for _, tk := range e.prefPending {
			if tk.sr.job == j && !tk.launched() {
				preferred++
			}
		}
		e.failJob(j, errFailed)
		left = attemptsOf(e, j)
	})
	drain(t, e)
	if preferred == 0 {
		t.Fatal("no task of the job waited in the preference queue at the failure")
	}
	if !errors.Is(res.Err, errFailed) || other.Err != nil || other.Count != 3200 {
		t.Fatalf("failed job err = %v; other job count = %d err = %v", res.Err, other.Count, other.Err)
	}
	if len(left) != 0 {
		t.Fatalf("%d attempts of the failed job left queued (%d were preferred)", len(left), preferred)
	}
	if e.unarmed != 0 {
		t.Fatalf("unarmed = %d with every job done", e.unarmed)
	}
}

// TestFailedJobClosesRecoveryEpoch: executor 1 dies under the job's tasks
// (no heartbeats, so the driver resubmits them at once), and the job then
// fails while the replacement attempts wait. Their recovery epoch must close
// at the failure — one RecoveryDelays entry of failure time minus kill time —
// rather than stay open with no attempt left to close it. The parked
// variant loses a map output after the kill, so that a replacement reduce
// attempt fetch-fails and parks on the shuffle (carrying the epoch) before
// the job fails. In the backoff variant every map output write fails from
// the kill on, so the replacements fail and their retries wait out their
// backoff on timers when the job fails; the epoch closes when the last of
// those timers fires and drops its retry.
func TestFailedJobClosesRecoveryEpoch(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		e := New(testConfig())
		j, res := sumJob(e)
		const killAt, failAt = time.Millisecond, 1500 * time.Microsecond
		onExec1 := 0
		e.Loop().At(killAt, func() {
			for _, tk := range e.running {
				if tk.sr.job == j && tk.exec == 1 {
					onExec1++
				}
			}
			e.KillExecutor(1)
		})
		e.Loop().At(failAt, func() { e.failJob(j, errFailed) })
		drain(t, e)
		if onExec1 == 0 {
			t.Fatal("no task of the job ran on executor 1 when it was killed")
		}
		if !errors.Is(res.Err, errFailed) {
			t.Fatalf("job err = %v, want the injected failure", res.Err)
		}
		if got, want := e.Recovery().RecoveryDelays, []time.Duration{failAt - killAt}; !slices.Equal(got, want) {
			t.Fatalf("RecoveryDelays = %v, want %v", got, want)
		}
	})
	t.Run("parked", func(t *testing.T) {
		e := New(testConfig())
		j, res := sumJob(e)
		reduceOnExec1 := func() bool {
			for _, tk := range e.running {
				if tk.sr.job == j && tk.exec == 1 && !tk.sr.st.ShuffleMap {
					return true
				}
			}
			return false
		}
		stepUntil(t, e, reduceOnExec1, 10000)
		killAt := e.Now()
		e.KillExecutor(1)
		e.LoseBlock(false, 0)
		parkedWithEpoch := func() bool {
			for _, rec := range e.shuffles {
				for _, tk := range rec.parked {
					if tk.epoch != nil {
						return true
					}
				}
			}
			return false
		}
		stepUntil(t, e, parkedWithEpoch, 10000)
		failAt := e.Now()
		e.failJob(j, errFailed)
		drain(t, e)
		if !errors.Is(res.Err, errFailed) {
			t.Fatalf("job err = %v, want the injected failure", res.Err)
		}
		if got, want := e.Recovery().RecoveryDelays, []time.Duration{failAt - killAt}; !slices.Equal(got, want) {
			t.Fatalf("RecoveryDelays = %v, want %v", got, want)
		}
	})
	t.Run("backoff", func(t *testing.T) {
		cfg := testConfig()
		cfg.Recovery.RetryBackoff = 10 * time.Millisecond
		cfg.Recovery.BlacklistThreshold = 0 // keep every live executor usable
		e := New(cfg)
		j, res := sumJob(e)
		const killAt = time.Millisecond
		failing := false
		e.Store().SetFaultHook(func(op storage.Op) error {
			if failing && op == storage.OpMapOutputWrite {
				return errors.New("injected write fault")
			}
			return nil
		})
		e.Loop().At(killAt, func() {
			e.KillExecutor(1)
			failing = true
		})
		// The replacements carry the epoch. Once none of the attempts the
		// driver holds does and the epoch is still open, every replacement
		// has failed and its retry waits on a timer.
		onTimers := func() bool {
			if e.Now() <= killAt || len(e.Recovery().RecoveryDelays) > 0 {
				return false
			}
			return !slices.ContainsFunc(attemptsOf(e, j), func(tk *task) bool { return tk.epoch != nil })
		}
		stepUntil(t, e, onTimers, 10000)
		if j.done {
			t.Fatalf("job ended (%v) before its replacements' retries all waited on timers", res.Err)
		}
		failAt := e.Now()
		e.failJob(j, errFailed)
		drain(t, e)
		if !errors.Is(res.Err, errFailed) {
			t.Fatalf("job err = %v, want the injected failure", res.Err)
		}
		if got := e.Recovery().RecoveryDelays; len(got) != 1 || got[0] <= failAt-killAt {
			t.Fatalf("RecoveryDelays = %v, want one entry past the failure (%v after the kill)", got, failAt-killAt)
		}
	})
}

// TestFailedJobDropsAttemptParkedUpstream: a job reads a checkpointed
// ReduceByKey whose checkpoint block is corrupt and whose shuffle has lost a
// map output. The job's only stage has no parent shuffle (its lineage stops
// at the checkpoint), yet the retry of the corrupt partition recomputes
// through the shuffle, fetch-fails and parks on it while the job rebuilds
// it. Failing the job then must drop that parked attempt too: otherwise
// ending the rebuild's execution rebuilds the shuffle again for the failed
// job, whose new map tasks run and commit.
func TestFailedJobDropsAttemptParkedUpstream(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	rbk := g.ReduceByKey(g.Source("src", dataset(3200, 32), false), "sum", partition.NewHash(8), sumMerge)
	if _, _, err := e.Count(rbk); err != nil {
		t.Fatal(err)
	}
	e.ForceCheckpoint(rbk)
	shuffleID := sortedIDs(e.shuffles)[0]
	if !rbk.Checkpointed || !e.store.CorruptCheckpoint(rbk.ID, 0) || !e.store.DropMapOutput(shuffleID, 0) {
		t.Fatal("could not checkpoint the RDD, corrupt its block and drop a map output")
	}
	j, res := submitTo(e, g.Filter(rbk, "f", func(record.Record) bool { return true }))
	if parents := j.stages[0].st.Parents; len(j.stages) != 1 || len(parents) != 0 {
		t.Fatalf("job has %d stages, the first with %d parent shuffles; want 1 and 0", len(j.stages), len(parents))
	}
	parked := func() bool { return len(e.shuffles[shuffleID].parked) > 0 }
	stepUntil(t, e, parked, 10000)
	e.failJob(j, errFailed)
	left := attemptsOf(e, j)
	tasks, outputs := e.Stats().Tasks, len(e.store.CommittedMapOutputs())
	drain(t, e)
	if !errors.Is(res.Err, errFailed) {
		t.Fatalf("job err = %v, want the injected failure", res.Err)
	}
	if len(left) != 0 {
		t.Errorf("%d attempts of the failed job left in driver memory", len(left))
	}
	if got := e.Stats().Tasks; got != tasks {
		t.Errorf("Stats().Tasks = %d after the failure, %d at it", got, tasks)
	}
	if got := len(e.store.CommittedMapOutputs()); got != outputs {
		t.Errorf("%d map outputs committed after the failure (%d at it)", got-outputs, outputs)
	}
}
