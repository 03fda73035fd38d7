package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"stark/internal/cluster"
	"stark/internal/fault"
	"stark/internal/partition"
	"stark/internal/record"
	"stark/internal/storage"
)

// TestTaskRetryHealsTransientStorageError: the first two map-output writes
// fail; bounded retry with backoff recomputes them and the job succeeds.
func TestTaskRetryHealsTransientStorageError(t *testing.T) {
	e := New(testConfig())
	fails := 2
	e.Store().SetFaultHook(func(op storage.Op) error {
		if op == storage.OpMapOutputWrite && fails > 0 {
			fails--
			return errors.New("transient write glitch")
		}
		return nil
	})
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
	rec := e.Recovery()
	if rec.TaskFailures != 2 || rec.TaskRetries != 2 {
		t.Fatalf("failures/retries = %d/%d, want 2/2", rec.TaskFailures, rec.TaskRetries)
	}
}

// TestTaskRetryExhaustionFailsJob: a permanent storage error burns the
// retry budget and surfaces as a typed job error — no panic reaches the
// driver, and the engine stays usable afterwards.
func TestTaskRetryExhaustionFailsJob(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.MaxTaskRetries = 2
	cfg.Recovery.RetryBackoff = time.Millisecond
	e := New(cfg)
	e.Store().SetFaultHook(func(op storage.Op) error {
		if op == storage.OpMapOutputWrite {
			return errors.New("disk on fire")
		}
		return nil
	})
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	_, _, err := e.Count(pb)
	if err == nil {
		t.Fatal("expected job error after retry exhaustion")
	}
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("err = %v, want ErrStorage", err)
	}
	// The engine survives: clear the fault and rerun.
	e.Store().SetFaultHook(nil)
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("post-failure count: %v", err)
	}
	if n != 100 {
		t.Fatalf("post-failure count = %d, want 100", n)
	}
}

// TestZeroTaskRetriesFailsOnFirstFailure: MaxTaskRetries = 0 means no
// retry, so one transient write error fails the job outright.
func TestZeroTaskRetriesFailsOnFirstFailure(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.MaxTaskRetries = 0
	e := New(cfg)
	failOnce := true
	e.Store().SetFaultHook(func(op storage.Op) error {
		if op == storage.OpMapOutputWrite && failOnce {
			failOnce = false
			return errors.New("transient write glitch")
		}
		return nil
	})
	g := e.Graph()
	pb := g.PartitionBy(g.Source("src", dataset(400, 8), true), "pb", partition.NewHash(8))
	if _, _, err := e.Count(pb); !errors.Is(err, ErrStorage) {
		t.Fatalf("err = %v, want the first failure's ErrStorage", err)
	}
	if rec := e.Recovery(); rec.TaskFailures != 1 || rec.TaskRetries != 0 {
		t.Fatalf("failures/retries = %d/%d, want 1/0", rec.TaskFailures, rec.TaskRetries)
	}
}

// TestZeroBlacklistThresholdNeverBlacklists: BlacklistThreshold = 0 turns
// blacklisting off, however often one executor fails.
func TestZeroBlacklistThresholdNeverBlacklists(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.NumExecutors = 1
	cfg.Recovery.MaxTaskRetries = 10
	cfg.Recovery.BlacklistThreshold = 0
	e := New(cfg)
	for i := 0; i < 10; i++ {
		e.noteExecutorFailure(0)
	}
	fails := 6
	e.Store().SetFaultHook(func(op storage.Op) error {
		if op == storage.OpMapOutputWrite && fails > 0 {
			fails--
			return errors.New("bad disk")
		}
		return nil
	})
	g := e.Graph()
	pb := g.PartitionBy(g.Source("src", dataset(400, 8), true), "pb", partition.NewHash(8))
	n, _, err := e.Count(pb)
	if err != nil || n != 400 {
		t.Fatalf("count = %d, %v; want 400 on the failing executor", n, err)
	}
	rec := e.Recovery()
	if rec.TaskFailures != 6 || rec.ExecutorBlacklists != 0 || len(e.Blacklisted()) != 0 {
		t.Fatalf("failures %d, blacklists %d, blacklisted %v; want 6, 0, []",
			rec.TaskFailures, rec.ExecutorBlacklists, e.Blacklisted())
	}
}

// TestFetchFailureResubmitsStage: a map output vanishes after the shuffle
// completed but before every reduce task read it. The late reducers hit a
// fetch failure, the producing stage is resubmitted for just the missing
// partition, and the job still returns the right answer.
func TestFetchFailureResubmitsStage(t *testing.T) {
	e := New(testConfig()) // 4 executors x 2 slots
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	// 16 reduce partitions > 8 slots, so a second reduce wave launches after
	// the block loss below.
	pb := g.PartitionBy(src, "pb", partition.NewHash(16))
	dropped := false
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind == "stage-start" && strings.Contains(ev.Detail, "shuffleMap=false") && !dropped {
			dropped = true
			e.Loop().After(time.Nanosecond, func() { e.LoseBlock(false, 0) })
		}
	})
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
	if !dropped {
		t.Fatal("test never dropped a shuffle block")
	}
	rec := e.Recovery()
	if rec.FetchFailures == 0 {
		t.Fatal("no fetch failures recorded")
	}
	if rec.StageResubmissions != 1 {
		t.Fatalf("stage resubmissions = %d, want 1", rec.StageResubmissions)
	}
	if rec.TaskRetries != 0 {
		t.Fatalf("fetch failures must not burn the retry budget, got %d retries", rec.TaskRetries)
	}
}

// TestCheckpointBlockLossFallsBackToLineage: losing a checkpoint block is
// transparent — the reader recomputes the partition through lineage.
func TestCheckpointBlockLossFallsBackToLineage(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	f := g.Filter(src, "f", func(record.Record) bool { return true })
	if _, _, err := e.Count(f); err != nil {
		t.Fatal(err)
	}
	e.ForceCheckpoint(f)
	if !e.LoseBlock(true, 0) {
		t.Fatal("no checkpoint block to drop")
	}
	f2 := g.Filter(f, "f2", func(record.Record) bool { return true })
	n, _, err := e.Count(f2)
	if err != nil {
		t.Fatalf("count after checkpoint loss: %v", err)
	}
	if n != 200 {
		t.Fatalf("count = %d, want 200", n)
	}
}

// TestCheckpointDeferredUntilRestart: with no live executor the checkpoint
// is deferred (fixing the former "no live executors to checkpoint on"
// panic) and completes when an executor restarts.
func TestCheckpointDeferredUntilRestart(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), true)
	f := g.Filter(src, "f", func(record.Record) bool { return true })
	if _, _, err := e.Count(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.Cluster().NumExecutors(); i++ {
		e.KillExecutor(i)
	}
	e.ForceCheckpoint(f) // must not panic
	if f.Checkpointed {
		t.Fatal("checkpoint succeeded with no live executors")
	}
	if e.Recovery().CheckpointDeferrals != 1 {
		t.Fatalf("deferrals = %d, want 1", e.Recovery().CheckpointDeferrals)
	}
	e.RestartExecutor(0)
	if !f.Checkpointed {
		t.Fatal("deferred checkpoint did not run after restart")
	}
	if !e.Store().HasCheckpoint(f.ID, 0) {
		t.Fatal("checkpoint blocks missing after drain")
	}
}

// TestRestartExecutorRecovery covers the restart contract: cold cache,
// probationary scheduling while still blacklisted, and blacklist removal
// after a successful task.
func TestRestartExecutorRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.BlacklistThreshold = 1
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(200, 8), true)
	f := g.Filter(src, "f", func(record.Record) bool { return true })
	f.CacheFlag = true
	if _, _, err := e.Count(f); err != nil {
		t.Fatal(err)
	}
	hasBlocks := func(id int) bool {
		for p := 0; p < f.Parts; p++ {
			for _, loc := range e.Cluster().AppendLocations(nil, cluster.BlockID{RDD: f.ID, Partition: p}) {
				if loc == id {
					return true
				}
			}
		}
		return false
	}
	if !hasBlocks(2) {
		t.Fatal("expected cached blocks on executor 2 after the first job")
	}

	e.KillExecutor(2)
	e.noteExecutorFailure(2) // threshold 1: one failure blacklists
	if got := e.Blacklisted(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("blacklisted = %v, want [2]", got)
	}
	if e.schedulable(2) {
		t.Fatal("dead blacklisted executor must not be schedulable")
	}

	e.RestartExecutor(2)
	if hasBlocks(2) {
		t.Fatal("restarted executor should come back with a cold cache")
	}
	if !e.schedulable(2) {
		t.Fatal("restart should reopen the executor for probationary offers")
	}
	if got := e.Blacklisted(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("restart alone must not clear the blacklist entry, got %v", got)
	}

	// A plain 16-task job cycles remote offers across every executor, so the
	// restarted one gets work; its first success clears the blacklist entry.
	src2 := g.Source("src2", dataset(160, 16), true)
	n, jm, err := e.Count(src2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 160 {
		t.Fatalf("count = %d, want 160", n)
	}
	ranOnRestarted := false
	for _, tm := range jm.Tasks {
		if tm.Executor == 2 {
			ranOnRestarted = true
		}
	}
	if !ranOnRestarted {
		t.Fatal("restarted executor never rejoined scheduling")
	}
	if got := e.Blacklisted(); len(got) != 0 {
		t.Fatalf("successful task should clear the blacklist, got %v", got)
	}
	if e.Recovery().ExecutorUnblacklists != 1 {
		t.Fatalf("unblacklists = %d, want 1", e.Recovery().ExecutorUnblacklists)
	}
}

// TestBlacklistEndToEnd: with threshold 1, the executor that hits the
// injected write error is blacklisted and the stage finishes on the rest.
// Single-slot executors keep the blacklisted one idle afterwards (no
// in-flight sibling task can heal the entry by succeeding).
func TestBlacklistEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.BlacklistThreshold = 1
	cfg.Cluster.SlotsPerExecutor = 1
	e := New(cfg)
	failOnce := true
	e.Store().SetFaultHook(func(op storage.Op) error {
		if op == storage.OpMapOutputWrite && failOnce {
			failOnce = false
			return errors.New("bad disk")
		}
		return nil
	})
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
	rec := e.Recovery()
	if rec.ExecutorBlacklists != 1 {
		t.Fatalf("blacklists = %d, want 1", rec.ExecutorBlacklists)
	}
	if got := e.Blacklisted(); len(got) != 1 {
		t.Fatalf("blacklisted = %v, want exactly one executor", got)
	}
}

// TestSpeculativeExecution: a heavily slowed executor's tasks get cloned
// onto full-speed executors once most of the stage finished; the clones win
// and the result stays correct (first finisher wins, loser cancelled).
func TestSpeculativeExecution(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.Speculation = true
	e := New(cfg)
	e.SetStraggler(3, 8)
	g := e.Graph()
	src := g.Source("src", dataset(160, 16), true)
	n, jm, err := e.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 160 {
		t.Fatalf("count = %d, want 160", n)
	}
	rec := e.Recovery()
	if rec.SpeculativeLaunches == 0 {
		t.Fatal("no speculative copies launched against the straggler")
	}
	if rec.SpeculativeWins == 0 {
		t.Fatal("no speculative copy won")
	}
	if len(jm.Tasks) != 16 {
		t.Fatalf("job recorded %d task completions, want 16 (one per partition)", len(jm.Tasks))
	}
}

// TestRecoveryDelayMeasured: killing an executor mid-stage opens a recovery
// epoch that closes when the resubmitted tasks succeed, recording a
// positive bounded delay.
func TestRecoveryDelayMeasured(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	e.Loop().At(2*time.Millisecond, func() { e.KillExecutor(2) })
	if _, _, err := e.Count(pb); err != nil {
		t.Fatal(err)
	}
	rec := e.Recovery()
	if len(rec.RecoveryDelays) != 1 {
		t.Fatalf("recovery delays = %v, want exactly one epoch", rec.RecoveryDelays)
	}
	if d := rec.MaxRecoveryDelay(); d <= 0 || d > time.Second {
		t.Fatalf("recovery delay = %v, want positive and small", d)
	}
}

// TestDeterminismWithFaultSchedule is the seed-replay property: the same
// fault schedule produces bit-identical results AND a bit-identical full
// event trace (task launches, failures, retries, speculation, recovery).
func TestDeterminismWithFaultSchedule(t *testing.T) {
	run := func() (int64, []string) {
		cfg := testConfig()
		cfg.Recovery.Speculation = true
		cfg.Faults = fault.Schedule{
			Seed:             11,
			StorageErrorProb: 0.05,
			Crashes: []fault.Crash{
				{At: 2 * time.Millisecond, Executor: 2, RestartAfter: 10 * time.Millisecond},
			},
			Stragglers: []fault.Straggler{
				{At: time.Millisecond, For: 20 * time.Millisecond, Executor: 3, Factor: 5},
			},
			BlockLoss: []fault.BlockLoss{
				{At: 4 * time.Millisecond, Pick: 1},
			},
		}
		e := New(cfg)
		var events []string
		e.SetTracer(func(ev TraceEvent) { events = append(events, ev.String()) })
		g := e.Graph()
		src := g.Source("src", dataset(400, 8), true)
		pb := g.PartitionBy(src, "pb", partition.NewHash(16))
		pb.CacheFlag = true
		n, _, err := e.Count(pb)
		if err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		return n, events
	}
	n1, ev1 := run()
	n2, ev2 := run()
	if n1 != 400 || n2 != 400 {
		t.Fatalf("counts = %d, %d, want 400", n1, n2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("traces diverge at event %d:\n  a: %s\n  b: %s", i, ev1[i], ev2[i])
		}
	}
}

// TestMissingShuffleRebuiltForLaterJob: a later job reuses a shuffle that
// persisted from an earlier job, so its producer stage is skipped wholesale
// at submit — then a block-loss fault holes the shuffle while a sibling
// stage is still running. The consumer stage must not deadlock waiting on
// the skipped producer: the shuffle is rebuilt via stage resubmission for
// just the missing partition.
func TestMissingShuffleRebuiltForLaterJob(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	if _, _, err := e.Count(pb); err != nil {
		t.Fatal(err)
	}
	// The join's other parent gets a fresh shuffle, so the join stage waits
	// for it while pb's producer stage is skipped (outputs persist). Hole
	// pb's shuffle mid-wait: block 0 belongs to pb (lowest shuffle id).
	src2 := g.Source("src2", dataset(400, 8), true)
	q := g.PartitionBy(src2, "q", partition.NewHash(8))
	jn := g.Join("jn", partition.NewHash(8), pb, q)
	e.Loop().After(time.Millisecond, func() {
		if !e.LoseBlock(false, 0) {
			t.Error("no shuffle block to drop")
		}
	})
	n, _, err := e.Count(jn)
	if err != nil {
		t.Fatalf("join after block loss: %v", err)
	}
	if n != 400 {
		t.Fatalf("join count = %d, want 400", n)
	}
	if e.Recovery().StageResubmissions == 0 {
		t.Fatal("expected a stage resubmission to rebuild the holed shuffle")
	}
}

// TestBlacklistProbationHealing: a blacklisted executor whose exclusion
// window expires by virtual time (no restart involved) gets probationary
// offers while still listed; its first successful task heals the entry.
func TestBlacklistProbationHealing(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.BlacklistThreshold = 1
	cfg.Recovery.BlacklistExpiry = 2 * time.Millisecond
	e := New(cfg)
	e.noteExecutorFailure(2)
	if got := e.Blacklisted(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("blacklisted = %v, want [2]", got)
	}
	if e.schedulable(2) {
		t.Fatal("executor must be excluded inside the exclusion window")
	}

	// A long job outlives the 2ms window: probation reopens the executor
	// mid-job, it serves tasks, and the first success clears the entry.
	g := e.Graph()
	src := g.Source("src", dataset(4000, 32), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(32))
	n, jm, err := e.Count(pb)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
	served := false
	for _, tm := range jm.Tasks {
		if tm.Executor == 2 {
			served = true
		}
	}
	if !served {
		t.Fatal("probation never offered the blacklisted executor any task")
	}
	if got := e.Blacklisted(); len(got) != 0 {
		t.Fatalf("successful probation task should clear the blacklist, got %v", got)
	}
	if e.Recovery().ExecutorUnblacklists != 1 {
		t.Fatalf("unblacklists = %d, want 1", e.Recovery().ExecutorUnblacklists)
	}
}

// TestSpeculationOriginalWins: a mild straggler triggers a speculative copy
// but finishes before it — the original wins, the clone is cancelled (the
// task-speculate-lose trace), no speculative win is recorded, and the job
// counts each partition exactly once.
func TestSpeculationOriginalWins(t *testing.T) {
	cfg := testConfig()
	cfg.Recovery.Speculation = true
	e := New(cfg)
	// Factor 1.8 > the 1.5 multiplier, so copies launch at the 75% quantile;
	// but the original only has ~0.8 of a task left while the copy needs a
	// full task, so the original finishes first.
	e.SetStraggler(3, 1.8)
	var lost, won int
	e.SetTracer(func(ev TraceEvent) {
		switch ev.Kind {
		case "task-speculate-lose":
			lost++
		case "task-speculate-win":
			won++
		}
	})
	g := e.Graph()
	src := g.Source("src", dataset(160, 8), true)
	n, jm, err := e.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 160 {
		t.Fatalf("count = %d, want 160", n)
	}
	rec := e.Recovery()
	if rec.SpeculativeLaunches == 0 {
		t.Fatal("no speculative copies launched against the mild straggler")
	}
	if rec.SpeculativeWins != 0 || won != 0 {
		t.Fatalf("speculative wins = %d (trace %d), want 0 — the original should win", rec.SpeculativeWins, won)
	}
	if lost != rec.SpeculativeLaunches {
		t.Fatalf("speculate-lose traces = %d, want one per launch (%d)", lost, rec.SpeculativeLaunches)
	}
	if len(jm.Tasks) != 8 {
		t.Fatalf("job recorded %d task completions, want 8 (losing clones must not double-count)", len(jm.Tasks))
	}
}

var _ = fmt.Sprintf // keep fmt imported for debug edits
