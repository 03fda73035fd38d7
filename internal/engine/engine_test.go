package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"stark/internal/metrics"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// testConfig returns a small fast cluster for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Cluster.SlotsPerExecutor = 2
	cfg.Cluster.MemoryPerExecutor = 1 << 30
	cfg.Sched.LocalityWait = 100 * time.Millisecond
	return cfg
}

// stepUntil steps e's loop until done reports true. It fails the test when
// the loop drains first or after maxSteps steps, naming the jobs still live,
// so a job stranded under heartbeats (whose timers keep the loop busy) fails
// instead of spinning. done is called before every step.
func stepUntil(t testing.TB, e *Engine, done func() bool, maxSteps int) {
	t.Helper()
	for steps := 0; !done(); steps++ {
		if steps == maxSteps {
			t.Fatalf("not done after %d loop steps (virtual %v); live jobs %v", maxSteps, e.Now(), sortedIDs(e.jobTab))
		}
		if !e.Loop().Step() {
			t.Fatalf("loop drained after %d steps (virtual %v); live jobs %v", steps, e.Now(), sortedIDs(e.jobTab))
		}
	}
}

// dataset builds n records "k<i>" -> i spread over parts partitions.
func dataset(n, parts int) [][]record.Record {
	out := make([][]record.Record, parts)
	for i := 0; i < n; i++ {
		p := i % parts
		out[p] = append(out[p], record.Pair(fmt.Sprintf("k%04d", i), int64(i)))
	}
	return out
}

func TestCountSimple(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), true)
	f := g.Filter(src, "even", func(r record.Record) bool {
		v, _ := record.AsInt64(r.Value)
		return v%2 == 0
	})
	n, jm, err := e.Count(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
	if len(jm.Tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(jm.Tasks))
	}
	if jm.Makespan() <= 0 {
		t.Fatalf("makespan = %v", jm.Makespan())
	}
}

func TestShuffleCorrectness(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), false)
	p := partition.NewHash(8)
	pb := g.PartitionBy(src, "pb", p)
	recs, _, err := e.Collect(pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("collected %d records", len(recs))
	}
	// Every record must be in its hash partition.
	res, err := e.RunJob(pb, ActionCollect)
	if err != nil {
		t.Fatal(err)
	}
	for pi, part := range res.Partitions {
		for _, r := range part {
			if p.PartitionFor(r.Key) != pi {
				t.Fatalf("record %q in partition %d, want %d", r.Key, pi, p.PartitionFor(r.Key))
			}
		}
	}
}

func TestReduceByKeySums(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	parts := [][]record.Record{
		{record.Pair("a", int64(1)), record.Pair("b", int64(2))},
		{record.Pair("a", int64(3)), record.Pair("c", int64(4))},
	}
	src := g.Source("src", parts, false)
	rbk := g.ReduceByKey(src, "sum", partition.NewHash(2), func(a, b any) any {
		x, _ := record.AsInt64(a)
		y, _ := record.AsInt64(b)
		return x + y
	})
	recs, _, err := e.Collect(rbk)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range recs {
		v, _ := record.AsInt64(r.Value)
		got[r.Key] = v
	}
	if got["a"] != 4 || got["b"] != 2 || got["c"] != 4 {
		t.Fatalf("sums = %v", got)
	}
}

func TestShuffleOutputsReused(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	c := g.Filter(pb, "c", func(r record.Record) bool { return true })

	_, jm1, err := e.Count(c)
	if err != nil {
		t.Fatal(err)
	}
	// Second job over the same shuffle: map stage must be skipped.
	d := g.Filter(pb, "d", func(r record.Record) bool { return strings.HasPrefix(r.Key, "k0") })
	_, jm2, err := e.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(jm1.Tasks) != 8 { // 4 map + 4 reduce
		t.Fatalf("job1 tasks = %d, want 8", len(jm1.Tasks))
	}
	if len(jm2.Tasks) != 4 { // reduce only
		t.Fatalf("job2 tasks = %d, want 4 (map stage skipped)", len(jm2.Tasks))
	}
}

func TestCachedRDDFastPath(t *testing.T) {
	// The Fig. 1 semantics: a cached RDD makes the follow-up job far
	// faster; without the cache the job recomputes from the shuffle.
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(4000, 2), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(2))
	c := g.Filter(pb, "c", func(r record.Record) bool { return true })
	c.CacheFlag = true
	_, jmC, err := e.Count(c)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Filter(c, "d", func(r record.Record) bool { return len(r.Key) > 3 })
	_, jmD, err := e.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	if jmD.Makespan() >= jmC.Makespan() {
		t.Fatalf("cached job %v not faster than cold job %v", jmD.Makespan(), jmC.Makespan())
	}
	// Locality must be NODE_LOCAL for the cached job.
	if jmD.LocalityFraction() != 1.0 {
		t.Fatalf("cached job locality = %v", jmD.LocalityFraction())
	}
}

func TestLocalityViolationRecomputes(t *testing.T) {
	// Fig. 1's D- case: same chain but cache dropped; the stage restarts
	// from the shuffle read and is much slower than the cached run.
	cfg := testConfig()
	cfg.Cluster.SizeScale = 2000 // ~320 MB simulated dataset
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(4000, 2), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(2))
	c := g.Filter(pb, "c", func(r record.Record) bool { return true })
	c.CacheFlag = true
	if _, _, err := e.Count(c); err != nil {
		t.Fatal(err)
	}
	d := g.Filter(c, "d", func(r record.Record) bool { return true })
	_, jmCached, err := e.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the cache everywhere: locality is violated, recompute happens.
	for exec := 0; exec < cfg.Cluster.NumExecutors; exec++ {
		for p := 0; p < c.Parts; p++ {
			e.Cluster().DropBlock(exec, blockID(c.ID, p))
		}
	}
	d2 := g.Filter(c, "d2", func(r record.Record) bool { return true })
	_, jmViolated, err := e.Count(d2)
	if err != nil {
		t.Fatal(err)
	}
	if jmViolated.Makespan() <= 2*jmCached.Makespan() {
		t.Fatalf("violated %v vs cached %v: recompute penalty missing",
			jmViolated.Makespan(), jmCached.Makespan())
	}
	var shuffleRead int64
	for _, tm := range jmViolated.Tasks {
		shuffleRead += tm.BytesShuffle
	}
	if shuffleRead == 0 {
		t.Fatal("violated job read no shuffle data")
	}
}

func TestCoGroupAcrossDatasets(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	p := partition.NewHash(4)
	a := g.PartitionBy(g.Source("a", dataset(50, 2), false), "ap", p)
	b := g.PartitionBy(g.Source("b", dataset(50, 2), false), "bp", p)
	cg := g.CoGroup("cg", p, a, b)
	recs, _, err := e.Collect(cg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("cogroup keys = %d, want 50", len(recs))
	}
	for _, r := range recs {
		v := r.Value.(record.CoGrouped)
		if len(v.Groups) != 2 || len(v.Groups[0]) != 1 || len(v.Groups[1]) != 1 {
			t.Fatalf("bad cogroup value for %q: %+v", r.Key, v)
		}
	}
}

func nsConfig() Config {
	cfg := testConfig()
	cfg.Features.CoLocality = true
	return cfg
}

func TestCoLocalityAllLocal(t *testing.T) {
	e := New(nsConfig())
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("logs", p, 1); err != nil {
		t.Fatal(err)
	}
	var cached []*rdd.RDD
	for i := 0; i < 3; i++ {
		src := g.Source(fmt.Sprintf("src%d", i), dataset(100, 2), true)
		lp := g.LocalityPartitionBy(src, fmt.Sprintf("lp%d", i), p, "logs")
		lp.CacheFlag = true
		if _, _, err := e.Count(lp); err != nil {
			t.Fatal(err)
		}
		cached = append(cached, lp)
	}
	cg := g.CoGroup("cg", p, cached...)
	_, jm, err := e.Count(cg)
	if err != nil {
		t.Fatal(err)
	}
	if jm.LocalityFraction() != 1.0 {
		t.Fatalf("co-locality fraction = %v, want 1.0", jm.LocalityFraction())
	}
	// No shuffle reads: all parents cached locally.
	for _, tm := range jm.Tasks {
		if tm.BytesShuffle != 0 {
			t.Fatalf("co-located cogroup read %d shuffle bytes", tm.BytesShuffle)
		}
	}
}

func TestCoLocalityConsistentPlacement(t *testing.T) {
	e := New(nsConfig())
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	// Two RDDs in the namespace: partition i of both must be cached on the
	// same executor.
	var rdds []*rdd.RDD
	for i := 0; i < 2; i++ {
		src := g.Source(fmt.Sprintf("s%d", i), dataset(80, 2), false)
		lp := g.LocalityPartitionBy(src, fmt.Sprintf("lp%d", i), p, "ns")
		lp.CacheFlag = true
		if _, _, err := e.Count(lp); err != nil {
			t.Fatal(err)
		}
		rdds = append(rdds, lp)
	}
	for part := 0; part < 4; part++ {
		l0 := e.Cluster().AppendLocations(nil, blockID(rdds[0].ID, part))
		l1 := e.Cluster().AppendLocations(nil, blockID(rdds[1].ID, part))
		if len(l0) == 0 || len(l1) == 0 {
			t.Fatalf("partition %d not cached: %v %v", part, l0, l1)
		}
		if l0[0] != l1[0] {
			t.Fatalf("partition %d on executors %v and %v: co-locality violated", part, l0, l1)
		}
	}
}

func TestGroupTasks(t *testing.T) {
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
	src := g.Source("src", dataset(100, 2), false)
	lp := g.LocalityPartitionBy(src, "lp", p, "ns")
	lp.CacheFlag = true
	n, jm, err := e.Count(lp)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("count = %d", n)
	}
	// Reduce side runs as 2 group tasks, not 8 partition tasks; plus 2 map
	// tasks for the shuffle.
	reduceTasks := 0
	for _, tm := range jm.Tasks {
		if tm.BytesShuffle > 0 {
			reduceTasks++
		}
	}
	if reduceTasks != 2 {
		t.Fatalf("reduce tasks = %d, want 2 group tasks", reduceTasks)
	}
}

func TestGroupSplitRebalances(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.Extendable = true
	cfg.Groups.MaxBytes = 1 // any data forces splits down to single partitions
	cfg.Groups.MinBytes = 0
	cfg.Groups.Window = 1
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	src := g.Source("src", dataset(100, 2), false)
	lp := g.LocalityPartitionBy(src, "lp", p, "ns")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	changes, err := e.ReportRDD(lp)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 3 { // 1 -> 2 -> 4 groups: three splits
		t.Fatalf("changes = %+v", changes)
	}
	groups, err := e.Groups().Groups("ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %v", groups)
	}
	// Locality units now are the 4 single-partition groups.
	units := e.Locality().Units("ns")
	if len(units) != 4 {
		t.Fatalf("units = %v", units)
	}
}

func TestFailureRecovery(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	c := g.Filter(pb, "c", func(r record.Record) bool { return true })
	c.CacheFlag = true
	n1, _, err := e.Count(c)
	if err != nil {
		t.Fatal(err)
	}
	// Kill an executor holding cached partitions, then run a dependent job:
	// lost partitions must recompute from the persisted shuffle.
	e.KillExecutor(0)
	d := g.Filter(c, "d", func(r record.Record) bool { return true })
	n2, jm, err := e.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n1 {
		t.Fatalf("post-failure count = %d, want %d", n2, n1)
	}
	for _, tm := range jm.Tasks {
		if tm.Executor == 0 {
			t.Fatal("task scheduled on dead executor")
		}
	}
}

func TestKillMidJobResubmits(t *testing.T) {
	cfg := testConfig()
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	f := g.Filter(src, "f", func(r record.Record) bool { return true })

	var res JobResult
	done := false
	e.SubmitJob(f, ActionCount, func(r JobResult) { res = r; done = true })
	// Let some tasks start, then kill executor 1 mid-flight.
	e.Loop().At(time.Millisecond, func() { e.KillExecutor(1) })
	stepUntil(t, e, func() bool { return done }, 10000)
	if res.Count != 400 {
		t.Fatalf("count = %d, want 400", res.Count)
	}
}

func TestCheckpointTriggerBoundsChain(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.SizeScale = 500
	cfg.Checkpoint.Mode = CheckpointOptimal
	cfg.Checkpoint.Bound = 50 * time.Millisecond
	cfg.Checkpoint.Relax = 1
	e := New(cfg)
	g := e.Graph()
	cur := g.Source("src", dataset(20000, 4), false)
	for i := 0; i < 6; i++ {
		cur = g.Map(cur, fmt.Sprintf("m%d", i), true, func(r record.Record) record.Record { return r })
		if _, _, err := e.Count(cur); err != nil {
			t.Fatal(err)
		}
	}
	if e.Store().TotalCheckpointBytes() == 0 {
		t.Fatal("no checkpoints written despite growing chain")
	}
	// The engine keeps the longest uncheckpointed path bounded after each
	// trigger (up to one new RDD's delay).
	cp := 0
	for _, r := range g.RDDs() {
		if r.Checkpointed {
			cp++
		}
	}
	if cp == 0 {
		t.Fatal("no RDD marked checkpointed")
	}
}

func TestCheckpointEdgeWritesMore(t *testing.T) {
	run := func(mode CheckpointMode) int64 {
		cfg := testConfig()
		cfg.Cluster.SizeScale = 500
		cfg.Checkpoint.Mode = mode
		cfg.Checkpoint.Bound = 700 * time.Millisecond
		e := New(cfg)
		g := e.Graph()
		pad := strings.Repeat("x", 200)
		cur := g.Source("src", dataset(20000, 4), false)
		for i := 0; i < 6; i++ {
			// Each step materializes a heavy side output (a leaf nothing
			// depends on, like Fig. 16's per-step results) and continues the
			// chain with a same-sized map. Edge checkpoints the heavy
			// leaves; the optimizer cuts the cheap chain instead.
			side := g.Map(cur, fmt.Sprintf("side%d", i), true, func(r record.Record) record.Record {
				return record.Pair(r.Key, pad)
			})
			if _, err := e.Materialize(side); err != nil {
				t.Fatal(err)
			}
			cur = g.Map(cur, fmt.Sprintf("m%d", i), true, func(r record.Record) record.Record { return r })
			if _, _, err := e.Count(cur); err != nil {
				t.Fatal(err)
			}
		}
		return e.Store().TotalCheckpointBytes()
	}
	opt := run(CheckpointOptimal)
	edge := run(CheckpointEdge)
	if opt == 0 || edge == 0 {
		t.Fatalf("checkpoint bytes: opt=%d edge=%d", opt, edge)
	}
	if opt >= edge {
		t.Fatalf("optimal wrote %d >= edge %d", opt, edge)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() time.Duration {
		e := New(testConfig())
		g := e.Graph()
		src := g.Source("src", dataset(500, 8), true)
		pb := g.PartitionBy(src, "pb", partition.NewHash(8))
		f := g.Filter(pb, "f", func(r record.Record) bool { return true })
		_, jm, err := e.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		return jm.Makespan()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic makespans: %v vs %v", a, b)
	}
}

func TestMaterializeActionCaches(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(50, 2), false)
	f := g.Filter(src, "f", func(r record.Record) bool { return true })
	f.CacheFlag = true
	if _, err := e.Materialize(f); err != nil {
		t.Fatal(err)
	}
	cachedParts := 0
	for p := 0; p < f.Parts; p++ {
		if len(e.Cluster().AppendLocations(nil, blockID(f.ID, p))) > 0 {
			cachedParts++
		}
	}
	if cachedParts != f.Parts {
		t.Fatalf("cached %d/%d partitions", cachedParts, f.Parts)
	}
}

func TestJobMetricsRecorded(t *testing.T) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(50, 2), true)
	if _, _, err := e.Count(src); err != nil {
		t.Fatal(err)
	}
	if len(e.CompletedJobs()) != 1 {
		t.Fatalf("completed = %d", len(e.CompletedJobs()))
	}
	jm := e.CompletedJobs()[0]
	for _, tm := range jm.Tasks {
		if tm.Locality != metrics.NodeLocal && tm.Locality != metrics.Remote {
			t.Fatalf("task locality unset: %+v", tm)
		}
		if tm.Finished < tm.Started || tm.Started < tm.Submitted {
			t.Fatalf("task times inverted: %+v", tm)
		}
		if tm.DiskRead == 0 {
			t.Fatalf("source-from-disk task has no disk read: %+v", tm)
		}
	}
}

// taskComponents sums the named parts of a task's time.
func taskComponents(tm metrics.TaskMetrics) time.Duration {
	return tm.Compute + tm.GC + tm.ShuffleRead + tm.DiskRead + tm.DiskWrite + tm.Net + tm.Overhead
}

// TestTaskComponentsSumToDuration: on the default zero-latency network with
// no straggler, a task's slot time is exactly its named components — compute,
// GC, shuffle read, disk read and write, network and the fixed overhead
// (per-task, plus per partition for a group task). Checked for a plain
// one-stage job, a shuffle job and a group-task job, at parallelism 1 and 2.
func TestTaskComponentsSumToDuration(t *testing.T) {
	sum := func(a, b any) any {
		x, _ := record.AsInt64(a)
		y, _ := record.AsInt64(b)
		return x + y
	}
	for _, par := range []int{1, 2} {
		for _, tc := range []struct {
			name  string
			cfg   Config
			build func(e *Engine) *rdd.RDD
			// groupWidth is the partitions per group task, 0 for none.
			groupWidth int
		}{
			{"plain", testConfig(), func(e *Engine) *rdd.RDD {
				g := e.Graph()
				return g.Filter(g.Source("src", dataset(400, 8), true), "even", func(r record.Record) bool {
					v, _ := record.AsInt64(r.Value)
					return v%2 == 0
				})
			}, 0},
			{"shuffle", testConfig(), func(e *Engine) *rdd.RDD {
				g := e.Graph()
				return g.ReduceByKey(g.Source("src", dataset(400, 8), false), "sum", partition.NewHash(4), sum)
			}, 0},
			{"group", mcfConfig(), func(e *Engine) *rdd.RDD {
				p := partition.NewHash(8)
				// Two initial groups of four partitions each.
				if err := e.RegisterNamespace("ns", p, 2); err != nil {
					t.Fatal(err)
				}
				g := e.Graph()
				return g.LocalityPartitionBy(g.Source("src", dataset(400, 8), false), "lp", p, "ns")
			}, 4},
		} {
			cfg := tc.cfg
			cfg.Execution.Parallelism = par
			e := New(cfg)
			_, jm, err := e.Count(tc.build(e))
			if err != nil {
				t.Fatalf("%s, parallelism %d: %v", tc.name, par, err)
			}
			if len(jm.Tasks) == 0 {
				t.Fatalf("%s, parallelism %d: no tasks", tc.name, par)
			}
			groupTasks := 0
			for _, tm := range jm.Tasks {
				if got := taskComponents(tm); got != tm.Duration() {
					t.Errorf("%s, parallelism %d, task %d: components sum to %v, duration %v (overhead %v)",
						tc.name, par, tm.TaskID, got, tm.Duration(), tm.Overhead)
				}
				want := taskOverhead
				if tm.Overhead != want {
					want += time.Duration(tc.groupWidth) * cfg.Cluster.GroupPartitionOverhead
					groupTasks++
				}
				if tm.Overhead != want {
					t.Errorf("%s, parallelism %d, task %d: overhead %v, want %v", tc.name, par, tm.TaskID, tm.Overhead, want)
				}
			}
			if (groupTasks > 0) != (tc.groupWidth > 0) {
				t.Errorf("%s, parallelism %d: %d of %d tasks carry a group overhead", tc.name, par, groupTasks, len(jm.Tasks))
			}
		}
	}
}
