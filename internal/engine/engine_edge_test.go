package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stark/internal/metrics"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/replication"
)

func TestEmptyRDDJob(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("empty", [][]record.Record{{}, {}}, false)
	n, jm, err := e.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(jm.Tasks) != 2 {
		t.Fatalf("n=%d tasks=%d", n, len(jm.Tasks))
	}
}

func TestZeroPartitionRDDCompletesInstantly(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("none", nil, false)
	n, jm, err := e.Count(src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(jm.Tasks) != 0 {
		t.Fatalf("n=%d tasks=%d", n, len(jm.Tasks))
	}
}

func TestAllExecutorsDeadErrors(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	for i := 0; i < cfg.Cluster.NumExecutors; i++ {
		e.KillExecutor(i)
	}
	src := e.Graph().Source("src", dataset(10, 2), false)
	if _, _, err := e.Count(src); err == nil {
		t.Fatal("job completed with no live executors")
	}
}

func TestConcurrentJobsShareShuffle(t *testing.T) {
	// Two jobs submitted back-to-back over the same un-materialized shuffle
	// must not run the map stage twice.
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), false)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	a := g.Filter(pb, "a", func(record.Record) bool { return true })
	b := g.Filter(pb, "b", func(record.Record) bool { return true })

	var done int
	var tasksA, tasksB int
	e.SubmitJob(a, ActionCount, func(r JobResult) { tasksA = len(r.Metrics.Tasks); done++ })
	e.SubmitJob(b, ActionCount, func(r JobResult) { tasksB = len(r.Metrics.Tasks); done++ })
	stepUntil(t, e, func() bool { return done == 2 }, 10000)
	// One job ran 4 map + 4 reduce tasks; the other only its 4 reduce tasks.
	if tasksA+tasksB != 12 {
		t.Fatalf("tasks = %d + %d, want 12 total (shared map stage)", tasksA, tasksB)
	}
}

func TestGroupTaskCollect(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.Extendable = true
	cfg.Groups.MaxBytes = 1 << 40
	cfg.Groups.MinBytes = 0
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 2); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(64, 2), false), "lp", p, "ns")
	res, err := e.RunJob(lp, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pi, part := range res.Partitions {
		for _, r := range part {
			if p.PartitionFor(r.Key) != pi {
				t.Fatalf("record %q in wrong partition %d", r.Key, pi)
			}
			total++
		}
	}
	if total != 64 {
		t.Fatalf("collected %d", total)
	}
}

func TestLocalityWaitExpiryLaunchesRemote(t *testing.T) {
	cfg := nsConfig()
	cfg.Sched.LocalityWait = 50 * time.Millisecond
	cfg.Cluster.SlotsPerExecutor = 1
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(2)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(4000, 2), false), "lp", p, "ns")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	// Occupy both preferred executors' single slots with a long job, then
	// submit namespace tasks: they must eventually run remotely.
	big := g.Source("big", dataset(40000, 2), true)
	var doneBig, doneNS bool
	var nsJM metrics.JobMetrics
	e.SubmitJob(big, ActionCount, func(JobResult) { doneBig = true })
	q := g.Filter(lp, "q", func(record.Record) bool { return true })
	e.SubmitJob(q, ActionCount, func(r JobResult) { nsJM = r.Metrics; doneNS = true })
	stepUntil(t, e, func() bool { return doneBig && doneNS }, 10000)
	remote := 0
	for _, tm := range nsJM.Tasks {
		if tm.Locality == metrics.Remote {
			remote++
		}
	}
	if remote == 0 {
		t.Skip("tasks found local slots; contention did not materialize under this cost model")
	}
}

func TestReplicationAdoptsHotUnit(t *testing.T) {
	cfg := nsConfig()
	cfg.Sched.LocalityWait = 10 * time.Millisecond
	cfg.Cluster.SlotsPerExecutor = 1
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(2)
	if err := e.RegisterNamespace("hot", p, 1); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(2000, 2), false), "lp", p, "hot")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	before := len(e.Locality().Preferred("hot", 0))
	// Hammer the namespace with concurrent queries so preferred slots are
	// contended and remote launches occur.
	done := 0
	n := 30
	for i := 0; i < n; i++ {
		q := g.Filter(lp, fmt.Sprintf("q%d", i), func(record.Record) bool { return true })
		e.SubmitJob(q, ActionCount, func(JobResult) { done++ })
	}
	stepUntil(t, e, func() bool { return done == n }, 10000)
	after := len(e.Locality().Preferred("hot", 0)) + len(e.Locality().Preferred("hot", 1))
	if after <= before {
		t.Fatalf("preferred executors %d -> %d: contended remote launches adopted no replica", before, after)
	}
}

// TestDeReplicationDropsEveryUnitBlock follows one replica through its life:
// a remote launch adopts it, the replica executor caches the unit's steps and
// a cogroup of them, and once the unit has cooled for several half-lives its
// next task retires the replica — every block the unit index counts under
// the unit there, and nothing of the executor's other units.
func TestDeReplicationDropsEveryUnitBlock(t *testing.T) {
	cfg := nsConfig()
	cfg.Cluster.SlotsPerExecutor = 1
	e := New(cfg)
	drops := 0
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind == "replica-drop" {
			drops++
		}
	})
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	var steps []*rdd.RDD
	for i := 0; i < 2; i++ {
		lp := g.LocalityPartitionBy(g.Source(fmt.Sprintf("s%d", i), dataset(80, 2), false), fmt.Sprintf("step%d", i), p, "ns")
		lp.CacheFlag = true
		if _, _, err := e.Count(lp); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, lp)
	}
	cg := g.CoGroup("cg", p, steps...)
	cg.CacheFlag = true

	// Unit 0's only executor is busy, so its cogroup task runs remotely once
	// the locality wait expires and the policy adopts that executor.
	home := e.Locality().Preferred("ns", 0)[0]
	e.Cluster().Executor(home).Acquire()
	if _, _, err := e.Count(cg); err != nil {
		t.Fatal(err)
	}
	e.Cluster().Executor(home).Release()
	pref := e.Locality().Preferred("ns", 0)
	if len(pref) != 2 {
		t.Fatalf("preferred = %v after a remote launch, want a second replica", pref)
	}
	victim, u := pref[1], e.unitIDFor("ns", 0)
	for _, r := range []*rdd.RDD{steps[0], steps[1], cg} {
		if !e.Cluster().Executor(victim).Store.Contains(blockID(r.ID, 0)) {
			t.Fatalf("replica executor %d does not cache %s[0]", victim, r)
		}
	}
	var victimUnits []int
	for _, unit := range e.Locality().Units("ns") {
		if e.Locality().Preferred("ns", unit)[0] == victim {
			victimUnits = append(victimUnits, unit)
		}
	}
	if len(victimUnits) == 0 {
		t.Fatalf("replica executor %d owns no unit of its own", victim)
	}

	e.Loop().RunUntil(e.Loop().Now() + 5*replication.DefaultConfig().HalfLife)
	if _, _, err := e.Count(g.Filter(cg, "q", func(record.Record) bool { return true })); err != nil {
		t.Fatal(err)
	}
	if e.Cluster().UnitCached(victim, u) {
		t.Fatalf("executor %d still caches unit 0 after de-replication: %v", victim, e.Cluster().Executor(victim).Store.Blocks())
	}
	if pref := e.Locality().Preferred("ns", 0); len(pref) != 1 || pref[0] == victim {
		t.Fatalf("preferred = %v after de-replication, want one executor other than %d", pref, victim)
	}
	if drops != 1 {
		t.Fatalf("replica-drop traced %d times, want 1", drops)
	}
	for _, unit := range victimUnits {
		if !e.Cluster().UnitCached(victim, e.unitIDFor("ns", unit)) {
			t.Fatalf("de-replicating unit 0 dropped executor %d's own unit %d", victim, unit)
		}
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDeReplicationAfterReplicaLost kills a unit's adopted replica: once
// the unit cools, its next completion finds one preferred executor, drops
// nothing and must still bring the policy's replica count down, or every
// later completion asks to de-replicate again.
func TestDeReplicationAfterReplicaLost(t *testing.T) {
	cfg := nsConfig()
	cfg.Cluster.SlotsPerExecutor = 1
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(80, 2), false), "step", p, "ns")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	home := e.Locality().Preferred("ns", 0)[0]
	e.Cluster().Executor(home).Acquire()
	if _, _, err := e.Count(g.Filter(lp, "adopt", func(record.Record) bool { return true })); err != nil {
		t.Fatal(err)
	}
	e.Cluster().Executor(home).Release()
	pref := e.Locality().Preferred("ns", 0)
	if len(pref) != 2 {
		t.Fatalf("preferred = %v after a remote launch, want a second replica", pref)
	}
	drops := 0
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind == "replica-drop" {
			drops++
		}
	})
	e.KillExecutor(pref[1])
	if pref := e.Locality().Preferred("ns", 0); len(pref) != 1 {
		t.Fatalf("preferred = %v after killing the replica, want one executor", pref)
	}

	e.Loop().RunUntil(e.Loop().Now() + 5*replication.DefaultConfig().HalfLife)
	if _, _, err := e.Count(g.Filter(lp, "q", func(record.Record) bool { return true })); err != nil {
		t.Fatal(err)
	}
	if e.repl.ShouldDeReplicate(e.unitIDFor("ns", 0), e.Loop().Now()) {
		t.Fatal("policy still counts the lost replica after the unit's task completed")
	}
	if drops != 0 {
		t.Fatalf("replica-drop traced %d times for a replica locality had already lost", drops)
	}
}

func TestDeterminismWithFailure(t *testing.T) {
	run := func() time.Duration {
		e := New(testConfig())
		g := e.Graph()
		src := g.Source("src", dataset(400, 8), true)
		pb := g.PartitionBy(src, "pb", partition.NewHash(8))
		pb.CacheFlag = true
		var done bool
		var jm metrics.JobMetrics
		e.SubmitJob(pb, ActionCount, func(r JobResult) { jm = r.Metrics; done = true })
		e.Loop().At(2*time.Millisecond, func() { e.KillExecutor(2) })
		stepUntil(t, e, func() bool { return done }, 10000)
		return jm.Finished
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("failure runs diverge: %v vs %v", a, b)
	}
}

func TestCheckpointedRDDSkipsLineage(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	f := g.Filter(pb, "f", func(record.Record) bool { return true })
	if _, _, err := e.Count(f); err != nil {
		t.Fatal(err)
	}
	e.ForceCheckpoint(f)
	if !f.Checkpointed {
		t.Fatal("not checkpointed")
	}
	// A dependent job reads the checkpoint: single stage, no shuffle reads.
	f2 := g.Filter(f, "f2", func(record.Record) bool { return true })
	_, jm, err := e.Count(f2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range jm.Tasks {
		if tm.BytesShuffle != 0 {
			t.Fatal("checkpointed lineage still read shuffle")
		}
		if tm.DiskRead == 0 {
			t.Fatal("checkpoint read did not touch disk")
		}
	}
}

func TestForceCheckpointIdempotentAndUnmaterialized(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(20, 2), false)
	// Unmaterialized RDD: no-op.
	e.ForceCheckpoint(src)
	if src.Checkpointed || e.Store().TotalCheckpointBytes() != 0 {
		t.Fatal("unmaterialized checkpoint happened")
	}
	if _, _, err := e.Count(src); err != nil {
		t.Fatal(err)
	}
	e.ForceCheckpoint(src)
	bytes := e.Store().TotalCheckpointBytes()
	if bytes == 0 {
		t.Fatal("no checkpoint written")
	}
	e.ForceCheckpoint(src) // idempotent
	if e.Store().TotalCheckpointBytes() != bytes {
		t.Fatal("double checkpoint")
	}
}

func TestGCMetricsPopulated(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.MemoryPerExecutor = 1 << 20 // tiny: heavy pressure
	cfg.Cluster.SizeScale = 100
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(4000, 4), false)
	f := g.Filter(src, "f", func(record.Record) bool { return true })
	f.CacheFlag = true
	_, jm, err := e.Count(f)
	if err != nil {
		t.Fatal(err)
	}
	var gc time.Duration
	for _, tm := range jm.Tasks {
		gc += tm.GC
	}
	if gc == 0 {
		t.Fatal("no GC charged under full memory pressure")
	}
}

// TestClusterConsistencyAfterWorkload drives a mixed workload (jobs,
// failures, checkpoints, eviction pressure) and asserts the block directory
// and slot accounting stay coherent.
func TestClusterConsistencyAfterWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.MemoryPerExecutor = 1 << 16
	cfg.Cluster.SizeScale = 10
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(4)
	for i := 0; i < 3; i++ {
		src := g.Source(fmt.Sprintf("s%d", i), dataset(300, 4), true)
		pb := g.PartitionBy(src, fmt.Sprintf("pb%d", i), p)
		pb.CacheFlag = true
		if _, _, err := e.Count(pb); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			e.KillExecutor(1)
			e.ForceCheckpoint(pb)
		}
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	e.RestartExecutor(1)
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerEmitsLifecycleEvents(t *testing.T) {
	e := New(testConfig())
	var kinds []string
	e.SetTracer(func(ev TraceEvent) {
		kinds = append(kinds, ev.Kind)
		if ev.String() == "" {
			t.Error("empty trace line")
		}
	})
	g := e.Graph()
	src := g.Source("src", dataset(40, 2), false)
	pb := g.PartitionBy(src, "pb", partition.NewHash(2))
	if _, _, err := e.Count(pb); err != nil {
		t.Fatal(err)
	}
	e.KillExecutor(1)
	e.RestartExecutor(1)
	e.ForceCheckpoint(pb)
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	for _, k := range []string{"job-submit", "stage-start", "task-launch", "task-finish", "job-finish", "executor-kill", "executor-restart", "checkpoint"} {
		if !want[k] {
			t.Errorf("missing trace kind %q (got %v)", k, kinds)
		}
	}
	// Disabling stops emission.
	e.SetTracer(nil)
	before := len(kinds)
	if _, _, err := e.Count(g.Filter(pb, "f", func(record.Record) bool { return true })); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != before {
		t.Fatal("tracer still firing after removal")
	}
}

// TestUntracedRunFormatsNoDetails pins tracing's cost when off: every event
// formats its detail only once a tracer is installed, so one job run with a
// counting tracer allocates at least one object more per event (the detail
// string) than the same job run untraced. A one-task job keeps the job and
// stage events, which run on every job, from hiding behind the task events.
func TestUntracedRunFormatsNoDetails(t *testing.T) {
	e := New(testConfig())
	src := e.Graph().Source("src", dataset(4, 1), false)
	count := func() {
		if _, _, err := e.Count(src); err != nil {
			t.Fatal(err)
		}
	}
	off := testing.AllocsPerRun(20, count)
	events := 0
	e.SetTracer(func(TraceEvent) { events++ })
	on := testing.AllocsPerRun(20, count)
	perRun := float64(events) / 21 // AllocsPerRun's warm-up run counts too
	if perRun < 5 {
		t.Fatalf("%.1f trace events per job, want job-submit, stage-start, task-launch, task-finish and job-finish", perRun)
	}
	if off > on-perRun {
		t.Fatalf("untraced job: %.0f allocs, traced %.0f with %.0f events: a detail is formatted with no tracer installed", off, on, perRun)
	}
}

func TestMapOutputsSurviveExecutorDeath(t *testing.T) {
	// Shuffle map outputs live in persistent storage (paper Sec. II-A), so
	// killing every executor that ran map tasks must not force the map
	// stage to rerun: the reduce stage alone completes the job.
	cfg := testConfig()
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), false)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	// Materialize the shuffle via a first job.
	n1, jm1, err := e.Count(pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(jm1.Tasks) != 8 {
		t.Fatalf("first job tasks = %d", len(jm1.Tasks))
	}
	// Kill all but executor 3.
	for i := 0; i < cfg.Cluster.NumExecutors; i++ {
		if i != 3 {
			e.KillExecutor(i)
		}
	}
	f := g.Filter(pb, "f", func(record.Record) bool { return true })
	n2, jm2, err := e.Count(f)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n1 {
		t.Fatalf("count = %d, want %d", n2, n1)
	}
	// Reduce-only: 4 tasks, all on the survivor, all reading the shuffle.
	if len(jm2.Tasks) != 4 {
		t.Fatalf("post-failure tasks = %d, want 4 (no map rerun)", len(jm2.Tasks))
	}
	for _, tm := range jm2.Tasks {
		if tm.Executor != 3 {
			t.Fatalf("task ran on dead executor %d", tm.Executor)
		}
		if tm.BytesShuffle == 0 {
			t.Fatal("reduce task read no shuffle data")
		}
	}
}

func TestKillDuringShuffleMapStage(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(2000, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	var done bool
	var res JobResult
	e.SubmitJob(pb, ActionCount, func(r JobResult) { res = r; done = true })
	// Kill while map tasks are in flight.
	e.Loop().At(time.Millisecond, func() { e.KillExecutor(0) })
	stepUntil(t, e, func() bool { return done }, 10000)
	if res.Count != 2000 {
		t.Fatalf("count = %d", res.Count)
	}
	if !e.Store().ShuffleComplete(pb.Deps[0].ShuffleID) {
		t.Fatal("shuffle incomplete after recovery")
	}
}

func TestStatsAndUnpersist(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	f := g.Filter(pb, "f", func(record.Record) bool { return true })
	f.CacheFlag = true
	if _, _, err := e.Count(f); err != nil {
		t.Fatal(err)
	}
	// Second job over the cached RDD: all hits.
	if _, _, err := e.Count(g.Filter(f, "f2", func(record.Record) bool { return true })); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Jobs != 2 || st.Tasks == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if st.CacheHitRate() <= 0 || st.CacheHitRate() > 1 {
		t.Fatalf("hit rate = %v", st.CacheHitRate())
	}
	if st.LocalityRate() <= 0 {
		t.Fatal("no locality recorded")
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}

	// Unpersist drops all cached blocks; the next job misses and recomputes.
	e.Unpersist(f)
	for p := 0; p < f.Parts; p++ {
		if locs := e.Cluster().AppendLocations(nil, blockID(f.ID, p)); locs != nil {
			t.Fatalf("partition %d still cached at %v", p, locs)
		}
	}
	if f.CacheFlag {
		t.Fatal("cache flag survived unpersist")
	}
	n, _, err := e.Count(g.Filter(f, "f3", func(record.Record) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("post-unpersist count = %d", n)
	}
}

// TestFig2Vs3Semantics reproduces the paper's Fig. 2 vs Fig. 3 contrast in
// miniature: the same cogroup over a cached collection recomputes scattered
// parents from shuffle outputs without co-locality (Fig. 2's bold red
// recompute paths) and touches nothing but local caches with it (Fig. 3).
func TestFig2Vs3Semantics(t *testing.T) {
	run := func(coloc bool) (shuffleBytes int64, localFrac float64) {
		cfg := testConfig()
		cfg.Features.CoLocality = coloc
		e := New(cfg)
		g := e.Graph()
		p := partition.NewHash(4)
		if coloc {
			if err := e.RegisterNamespace("ns", p, 1); err != nil {
				t.Fatal(err)
			}
		}
		var rdds []*rdd.RDD
		for i := 0; i < 2; i++ {
			src := g.Source(fmt.Sprintf("s%d", i), dataset(200, 4), true)
			var lp *rdd.RDD
			if coloc {
				lp = g.LocalityPartitionBy(src, "lp", p, "ns")
			} else {
				lp = g.PartitionBy(src, "lp", p)
			}
			lp.CacheFlag = true
			if _, _, err := e.Count(lp); err != nil {
				t.Fatal(err)
			}
			rdds = append(rdds, lp)
		}
		cg := g.CoGroup("cg", p, rdds...)
		_, jm, err := e.Count(cg)
		if err != nil {
			t.Fatal(err)
		}
		var sb int64
		for _, tm := range jm.Tasks {
			sb += tm.BytesShuffle
		}
		return sb, jm.LocalityFraction()
	}
	// Try a few seeds: without co-locality, random placement usually
	// scatters at least one collection partition.
	scattered, _ := run(false)
	cShuffle, cLocal := run(true)
	if cShuffle != 0 || cLocal != 1.0 {
		t.Fatalf("co-located cogroup: shuffle=%d locality=%v", cShuffle, cLocal)
	}
	if scattered == 0 {
		t.Skip("random placement happened to co-locate; acceptable on this seed")
	}
}

// TestRandomOperationsConsistency stresses the whole control plane with a
// random mix of jobs, caching, kills, restarts, checkpoints, and unpersists,
// asserting cluster invariants hold and results stay correct throughout.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// checkCacheInvariant checks the rule the engine relies on instead of
// re-checking it (DESIGN §4, "Block directory"): an executor cache holds a
// block only if the block's RDD has CacheFlag set and the executor is
// alive. It then checks the cluster's own books (CheckConsistency).
func checkCacheInvariant(e *Engine) error {
	for _, ex := range e.cl.Executors() {
		for _, id := range ex.Store.Blocks() {
			if ex.Dead() {
				return fmt.Errorf("dead executor %d holds %v", ex.ID, id)
			}
			if r := e.graph.ByID(id.RDD); r == nil || !r.CacheFlag {
				return fmt.Errorf("executor %d holds %v, whose RDD %v has no CacheFlag", ex.ID, id, r)
			}
		}
	}
	return e.cl.CheckConsistency()
}

func TestRandomOperationsConsistency(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := newRand(seed)
		cfg := testConfig()
		cfg.Cluster.MemoryPerExecutor = 1 << 18
		cfg.Cluster.SizeScale = 5
		e := New(cfg)
		g := e.Graph()
		p := partition.NewHash(4)
		base := g.PartitionBy(g.Source("src", dataset(200, 4), true), "pb", p)
		base.CacheFlag = true
		want, _, err := e.Count(base)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]bool{}
		for op := 0; op < 25; op++ {
			switch rng.Intn(6) {
			case 0:
				victim := rng.Intn(cfg.Cluster.NumExecutors)
				if len(live) < cfg.Cluster.NumExecutors-1 {
					e.KillExecutor(victim)
					live[victim] = true
				}
			case 1:
				for id := range live {
					e.RestartExecutor(id)
					delete(live, id)
					break
				}
			case 2:
				e.ForceCheckpoint(base)
			case 3:
				e.Unpersist(base)
				if err := checkCacheInvariant(e); err != nil {
					t.Fatalf("seed %d op %d: after Unpersist: %v", seed, op, err)
				}
				base.CacheFlag = true // re-enable for later jobs
			default:
				f := g.Filter(base, "q", func(record.Record) bool { return true })
				got, _, err := e.Count(f)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if got != want {
					t.Fatalf("seed %d op %d: count %d, want %d", seed, op, got, want)
				}
			}
			if err := checkCacheInvariant(e); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// TestGroupShuffleMapTasks: when the map side of a shuffle is an extendable
// namespace RDD, the map stage runs as group tasks (the paper's
// GroupShuffleMapTask), one per Group Tree leaf.
func TestGroupShuffleMapTasks(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.Extendable = true
	cfg.Groups.MaxBytes = 1 << 40
	cfg.Groups.MinBytes = 0
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 2); err != nil {
		t.Fatal(err)
	}
	lp := g.LocalityPartitionBy(g.Source("s", dataset(80, 2), false), "lp", p, "ns")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	// Re-shuffle the namespace RDD with a different partitioner: the map
	// stage's output RDD is lp (8 partitions, ns) -> 2 group map tasks; the
	// reduce stage has 4 plain tasks.
	re := g.PartitionBy(lp, "re", partition.NewHash(4))
	n, jm, err := e.Count(re)
	if err != nil {
		t.Fatal(err)
	}
	if n != 80 {
		t.Fatalf("count = %d", n)
	}
	mapTasks, reduceTasks := 0, 0
	for _, tm := range jm.Tasks {
		if tm.BytesShuffle > 0 {
			reduceTasks++
		} else {
			mapTasks++
		}
	}
	if mapTasks != 2 {
		t.Fatalf("map tasks = %d, want 2 group tasks", mapTasks)
	}
	if reduceTasks != 4 {
		t.Fatalf("reduce tasks = %d, want 4", reduceTasks)
	}
}

// TestNamespaceGeometryMismatch: an RDD carrying a namespace whose
// registered partition count differs must fall back to plain per-partition
// tasks rather than mis-mapping units.
func TestNamespaceGeometryMismatch(t *testing.T) {
	cfg := nsConfig()
	e := New(cfg)
	g := e.Graph()
	if err := e.RegisterNamespace("ns", partition.NewHash(4), 1); err != nil {
		t.Fatal(err)
	}
	// Build an RDD claiming namespace "ns" but with 8 partitions.
	rogue := g.LocalityPartitionBy(g.Source("s", dataset(40, 2), false), "lp", partition.NewHash(8), "ns")
	n, jm, err := e.Count(rogue)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("count = %d", n)
	}
	// 2 map + 8 reduce tasks, reduce side NOT unit-scheduled (no panic, no
	// bogus preferred executors beyond what the cluster has).
	if len(jm.Tasks) != 10 {
		t.Fatalf("tasks = %d", len(jm.Tasks))
	}
}

// TestSortByKeyLeavesCheckpointedParentIntact pins the purity of SortByKey:
// a checkpoint of its "-range" shuffle parent hands the sort the stored
// block's own rows, so a sort that reorders its input breaks the block's
// order-dependent checksum and every later read reports corruption.
func TestSortByKeyLeavesCheckpointedParentIntact(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	parts := make([][]record.Record, 4)
	for i := 0; i < 200; i++ {
		parts[i%4] = append(parts[i%4], record.Pair(fmt.Sprintf("k%03d", (i*37)%101), int64(i)))
	}
	sorted := g.SortByKey(g.Source("src", parts, false), "sorted", []string{"k025", "k050", "k075"}, 4)
	want, _, err := e.Collect(sorted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].Key > want[i].Key {
			t.Fatalf("record %d out of order: %q after %q", i, want[i].Key, want[i-1].Key)
		}
	}
	e.ForceCheckpoint(sorted.Deps[0].Parent)
	if !sorted.Deps[0].Parent.Checkpointed {
		t.Fatal("range shuffle was not checkpointed")
	}
	for run := 0; run < 2; run++ {
		got, _, err := e.Collect(sorted)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("collect %d after the checkpoint differs from the first", run+2)
		}
	}
	if n := e.Recovery().CorruptBlocks; n != 0 {
		t.Fatalf("CorruptBlocks = %d after reading a checkpointed sort parent, want 0", n)
	}
}
