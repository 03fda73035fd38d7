package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/storage"
)

// TestCancelledRebuildOwnerWakesParkedJob: two jobs read one materialized
// shuffle; a map output is lost just after their reduce stages start. The
// job that fetch-fails first owns the rebuild; every executor straggles so
// the rebuild outlasts the other job's reduce tasks, which all finish or
// park on the shuffle. Cancelling the owner then ends the rebuild's
// execution, and that must rebuild the shuffle for the parked job instead of
// leaving its attempts parked for good — with and without heartbeats.
func TestCancelledRebuildOwnerWakesParkedJob(t *testing.T) {
	t.Run("plain", func(t *testing.T) { cancelRebuildOwner(t, testConfig()) })
	t.Run("heartbeats", func(t *testing.T) { cancelRebuildOwner(t, hbConfig()) })
}

func cancelRebuildOwner(t *testing.T, cfg Config) {
	e := New(cfg)
	g := e.Graph()
	pb := g.PartitionBy(g.Source("src", dataset(400, 8), true), "pb", partition.NewHash(16))
	if _, _, err := e.Count(pb); err != nil {
		t.Fatal(err)
	}
	keep := func(record.Record) bool { return true }
	res := map[int]JobResult{}
	var ids [2]int
	reduceStarts, owner := 0, -1
	settled := map[int]int{} // reduce attempts per job that finished or fetch-failed
	e.SetTracer(func(ev TraceEvent) {
		switch {
		case ev.Kind == "stage-start" && strings.Contains(ev.Detail, "shuffleMap=false"):
			if reduceStarts++; reduceStarts == 2 {
				e.LoseBlock(false, 0)
				for x := 0; x < cfg.Cluster.NumExecutors; x++ {
					e.SetStraggler(x, 1000)
				}
			}
		case ev.Kind == "stage-resubmit" && owner < 0:
			owner = ev.Job
		case ev.Kind == "task-finish" || ev.Kind == "task-fail" && strings.Contains(ev.Detail, "fetch failed"):
			settled[ev.Job]++
		}
	})
	for i, name := range []string{"a", "b"} {
		ids[i] = e.SubmitJob(g.Filter(pb, name, keep), ActionCount, func(r JobResult) { res[r.JobID] = r })
	}
	cancelled := false
	stepUntil(t, e, func() bool {
		if err := checkShuffleInvariant(e); err != nil {
			t.Fatal(err)
		}
		if !cancelled && owner >= 0 {
			other := ids[0] + ids[1] - owner
			if settled[other] == 16 {
				for x := 0; x < cfg.Cluster.NumExecutors; x++ {
					e.SetStraggler(x, 1)
				}
				e.CancelJob(owner, nil)
				cancelled = true
			}
		}
		return len(res) == 2
	}, 400000)
	if !cancelled {
		t.Fatalf("owner %d never cancelled (settled %v)", owner, settled)
	}
	other := ids[0] + ids[1] - owner
	if err := res[owner].Err; !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("owner job err = %v, want ErrJobCancelled", err)
	}
	if r := res[other]; r.Err != nil || r.Count != 400 {
		t.Fatalf("parked job count = %d err = %v, want 400", r.Count, r.Err)
	}
}

// TestRefusedRebuildFailsParkedJobs: the rebuild of a shared shuffle loses
// another map output in every round until the resubmission bound refuses
// it. The other job's reduce attempts are parked on the shuffle by then;
// the refusal must fail that job too, with an error wrapping
// ErrFetchFailed, instead of leaving it parked on a shuffle nobody rebuilds.
// (The other refusal, no producer on record, cannot strand anyone: the
// first run to start or skip a map stage registers its producer, and the
// record only goes with the whole driver memory, parked attempts included.)
func TestRefusedRebuildFailsParkedJobs(t *testing.T) {
	t.Run("plain", func(t *testing.T) { refuseSharedRebuild(t, testConfig()) })
	t.Run("heartbeats", func(t *testing.T) { refuseSharedRebuild(t, hbConfig()) })
}

func refuseSharedRebuild(t *testing.T, cfg Config) {
	e := New(cfg)
	g := e.Graph()
	pb := g.PartitionBy(g.Source("src", dataset(400, 8), true), "pb", partition.NewHash(16))
	if _, _, err := e.Count(pb); err != nil {
		t.Fatal(err)
	}
	keep := func(record.Record) bool { return true }
	res := map[int]JobResult{}
	reduceStarts, owner := 0, -1
	failed := map[int]int{} // reduce attempts per job that fetch-failed
	parkedAtRefusal := -1
	e.SetTracer(func(ev TraceEvent) {
		switch {
		case ev.Kind == "stage-start" && strings.Contains(ev.Detail, "shuffleMap=false"):
			if reduceStarts++; reduceStarts == 2 {
				e.LoseBlock(false, 0)
			}
		case ev.Kind == "stage-resubmit":
			// Hole the shuffle again while this round rebuilds it.
			owner = ev.Job
			e.Loop().After(time.Microsecond, func() { e.LoseBlock(false, 0) })
		case ev.Kind == "task-fail" && strings.Contains(ev.Detail, "fetch failed"):
			failed[ev.Job]++
		case ev.Kind == "job-fail" && ev.Job == owner && parkedAtRefusal < 0:
			for id, n := range failed {
				if id != owner {
					parkedAtRefusal = n
				}
			}
		}
	})
	var ids [2]int
	for i, name := range []string{"a", "b"} {
		ids[i] = e.SubmitJob(g.Filter(pb, name, keep), ActionCount, func(r JobResult) { res[r.JobID] = r })
	}
	stepUntil(t, e, func() bool {
		if err := checkShuffleInvariant(e); err != nil {
			t.Fatal(err)
		}
		return len(res) == 2
	}, 20000)
	if parkedAtRefusal != 16 {
		t.Fatalf("other job had %d of 16 reduce attempts parked when the rebuild was refused", parkedAtRefusal)
	}
	for _, id := range ids {
		if err := res[id].Err; !errors.Is(err, ErrFetchFailed) {
			t.Fatalf("job %d (owner %d) err = %v, want ErrFetchFailed", id, owner, err)
		}
	}
	if got := e.Recovery().StageResubmissions; got != maxStageResubmissions {
		t.Fatalf("stage resubmissions = %d, want %d", got, maxStageResubmissions)
	}
}

// checkShuffleInvariant checks the shuffle records (DESIGN §7, "Shuffle
// record"): an owner is a started run of the shuffle's map stage, belonging
// to a live job that lists it; and no live job's waiting run or parked
// attempt sits on a shuffle that nobody executes, where nothing would ever
// wake it.
func checkShuffleInvariant(e *Engine) error {
	for _, id := range sortedIDs(e.shuffles) {
		rec := e.shuffles[id]
		if o := rec.owner; o != nil {
			switch {
			case !o.st.ShuffleMap || o.st.ShuffleID != id:
				return fmt.Errorf("shuffle %d owned by a run of stage %d, which does not produce it", id, o.st.ID)
			case !o.started:
				return fmt.Errorf("shuffle %d owned by an unstarted run of job %d", id, o.job.id)
			case o.job.done || e.jobTab[o.job.id] != o.job:
				return fmt.Errorf("shuffle %d owned by a run of finished job %d", id, o.job.id)
			case !slices.Contains(o.job.stages, o):
				return fmt.Errorf("shuffle %d owned by a run job %d does not list", id, o.job.id)
			}
			continue
		}
		for _, w := range rec.waiting {
			if !w.job.done {
				return fmt.Errorf("job %d's stage %d waits on shuffle %d, which has no owner (complete=%v)",
					w.job.id, w.st.ID, id, e.store.ShuffleComplete(id))
			}
		}
		for _, t := range rec.parked {
			if !t.sr.job.done {
				return fmt.Errorf("job %d's task %d is parked on shuffle %d, which has no owner (complete=%v)",
					t.sr.job.id, t.id, id, e.store.ShuffleComplete(id))
			}
		}
	}
	return nil
}

// checkNoFinishedAttempts checks that every attempt the driver holds —
// running, queued or parked — belongs to a live job: failJob removes a
// failing job's attempts together, so the scheduler never meets one.
func checkNoFinishedAttempts(e *Engine) error {
	for _, t := range heldAttempts(e) {
		if t.sr.job.done {
			return fmt.Errorf("task %d of finished job %d is still held (launched=%v)", t.id, t.sr.job.id, t.launched())
		}
	}
	unarmed := 0
	for _, t := range e.prefPending {
		if t.counted && !t.waitArmed && !t.launched() && !t.aborted {
			unarmed++
		}
	}
	if unarmed != e.unarmed {
		return fmt.Errorf("unarmed = %d, but %d queued tasks wait for a locality timer", e.unarmed, unarmed)
	}
	return nil
}

// sharedShuffleRun is one seeded run of TestSharedShuffleModel: each job's
// result, and what the shuffle records saw.
type sharedShuffleRun struct {
	results                 []JobResult
	subs, resubmits, cancel int
}

// runSharedShuffles submits three jobs over two shuffles at once: job 0 runs
// s1's map stage; job 1 joins s1 with s2, subscribing to job 0's run of s1
// and running s2's; job 2 counts s2, subscribing to job 1's run. Map output
// losses, executor kills (restarted 10ms later) and cancellations land at
// seeded virtual instants; odd seeds run under heartbeat detection. From
// seed 100 on, jobs also end by failure: those seeds run with no task
// retries, and at seeded instants the next map output write fails, so its
// job fails (ErrStorage) through retry exhaustion. The shuffle invariant,
// and that no held attempt belongs to a finished job, are checked after
// every loop step.
func runSharedShuffles(t *testing.T, seed int64, par int) sharedShuffleRun {
	cfg := testConfig()
	if seed%2 == 1 {
		cfg = hbConfig()
	}
	cfg.Execution.Parallelism = par
	if seed >= 100 {
		cfg.Recovery.MaxTaskRetries = 0
	}
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(8)
	s1 := g.PartitionBy(g.Source("src1", dataset(400, 8), true), "s1", p)
	s2 := g.PartitionBy(g.Source("src2", dataset(300, 6), true), "s2", p)
	keep := func(record.Record) bool { return true }
	finals := []*rdd.RDD{g.Filter(s1, "q0", keep), g.Join("q1", p, s1, s2), g.Filter(s2, "q2", keep)}
	run := sharedShuffleRun{results: make([]JobResult, len(finals))}
	finished := 0
	for i, f := range finals {
		e.SubmitJob(f, ActionCount, func(r JobResult) { run.results[i] = r; finished++ })
	}
	rng := newRand(seed)
	const horizon = 60 * time.Millisecond
	for n := rng.Intn(4); n > 0; n-- {
		pick := rng.Intn(16)
		e.Loop().At(time.Duration(rng.Int63n(int64(horizon))), func() { e.LoseBlock(false, pick) })
	}
	for n := rng.Intn(2); n > 0; n-- {
		x, at := rng.Intn(cfg.Cluster.NumExecutors), time.Duration(rng.Int63n(int64(horizon)))
		e.Loop().At(at, func() { e.KillExecutor(x) })
		e.Loop().At(at+10*time.Millisecond, func() { e.RestartExecutor(x) })
	}
	for n := rng.Intn(3); n > 0; n-- {
		job := rng.Intn(len(finals))
		e.Loop().At(time.Duration(rng.Int63n(int64(horizon))), func() {
			if e.CancelJob(job, nil) {
				run.cancel++
			}
		})
	}
	if seed >= 100 {
		failNext := false
		e.Store().SetFaultHook(func(op storage.Op) error {
			if op == storage.OpMapOutputWrite && failNext {
				failNext = false
				return errors.New("injected write fault")
			}
			return nil
		})
		for n := rng.Intn(3); n > 0; n-- {
			e.Loop().At(time.Duration(rng.Int63n(int64(horizon))), func() { failNext = true })
		}
	}
	stepUntil(t, e, func() bool {
		if err := checkShuffleInvariant(e); err != nil {
			t.Fatalf("seed %d par %d at %v: %v", seed, par, e.Now(), err)
		}
		if err := checkNoFinishedAttempts(e); err != nil {
			t.Fatalf("seed %d par %d at %v: %v", seed, par, e.Now(), err)
		}
		return finished == len(finals)
	}, 20000)
	run.subs = e.Stats().SharedStageSubs
	run.resubmits = e.Recovery().StageResubmissions
	return run
}

// TestSharedShuffleModel: under seeded losses, kills, cancellations and
// failures, three jobs sharing two shuffles each end with the right count or
// a typed error, the shuffle invariant holds after every step, no finished
// job keeps an attempt, and parallelism 1 and 4 give identical task metrics.
func TestSharedShuffleModel(t *testing.T) {
	want := []int64{400, 300, 300}
	const seeds = 200
	var subs, rebuilt, cancelled, failed int
	for seed := int64(0); seed < seeds; seed++ {
		seq := runSharedShuffles(t, seed, 1)
		jobFailed := 0
		for i, r := range seq.results {
			switch {
			case r.Err == nil && r.Count != want[i]:
				t.Fatalf("seed %d: job %d count = %d, want %d", seed, i, r.Count, want[i])
			case seed >= 100 && errors.Is(r.Err, ErrStorage):
				jobFailed = 1
			case r.Err != nil && !errors.Is(r.Err, ErrJobCancelled) && !errors.Is(r.Err, ErrFetchFailed):
				t.Fatalf("seed %d: job %d failed with an untyped error: %v", seed, i, r.Err)
			}
		}
		failed += jobFailed
		if pool := runSharedShuffles(t, seed, 4); !reflect.DeepEqual(seq, pool) {
			t.Fatalf("seed %d: parallelism 4 differs from 1:\n  par 1: %+v\n  par 4: %+v", seed, seq, pool)
		}
		subs += min(seq.subs, 1)
		rebuilt += min(seq.resubmits, 1)
		cancelled += min(seq.cancel, 1)
	}
	t.Logf("of %d seeds: %d subscribed, %d rebuilt a shuffle, %d cancelled a job, %d failed a job", seeds, subs, rebuilt, cancelled, failed)
	if subs == 0 || rebuilt == 0 || cancelled == 0 || failed == 0 {
		t.Fatalf("the seeds never exercised a subscription (%d), a rebuild (%d), a cancellation (%d) or a failure (%d)", subs, rebuilt, cancelled, failed)
	}
}
