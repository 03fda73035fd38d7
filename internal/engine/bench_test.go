package engine

import (
	"runtime"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

// BenchmarkEngineJob measures the full driver path: stage build, schedule,
// data plane, completion — one shuffle job per iteration.
func BenchmarkEngineJob(b *testing.B) {
	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", dataset(1000, 8), false)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	if _, _, err := e.Count(pb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := g.Filter(pb, "f", func(r record.Record) bool { return true })
		if _, _, err := e.Count(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine100kTasks pins the scheduler's fast path: a 20k-partition
// shuffle (40k tasks) must stay near linear.
func BenchmarkEngine100kTasks(b *testing.B) {
	benchmark100kTasks(b, 1)
}

// BenchmarkEngine100kTasksParallel runs the same workload with a 4-worker
// data plane; results and virtual time are identical, only wall clock moves
// (see plane.go). Compare against BenchmarkEngine100kTasks for the speedup.
func BenchmarkEngine100kTasksParallel(b *testing.B) {
	benchmark100kTasks(b, 4)
}

func benchmark100kTasks(b *testing.B, par int) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig()
		cfg.Cluster.NumExecutors = 8
		cfg.Cluster.SlotsPerExecutor = 4
		cfg.Execution.Parallelism = par
		e := New(cfg)
		g := e.Graph()
		src := g.Source("src", dataset(20000, 64), false)
		pb := g.PartitionBy(src, "pb", partition.NewHash(20000))
		if _, _, err := e.Count(pb); err != nil {
			b.Fatal(err)
		}
	}
}

// taxiShapeMCF builds an MCF engine whose caches have the taxi-window
// shape: 8 executors each holding 96 blocks (12 window steps x 8
// partitions) of one extendable namespace, four partitions to a group.
func taxiShapeMCF(tb testing.TB) *Engine {
	cfg := testConfig()
	cfg.Cluster.NumExecutors = 8
	cfg.Features.CoLocality = true
	cfg.Features.Extendable = true
	cfg.Features.MCF = true
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(64)
	if err := e.RegisterNamespace("taxi", p, 16); err != nil {
		tb.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		lp := g.LocalityPartitionBy(g.Source("src", dataset(64, 1), false), "step", p, "taxi")
		for exec := 0; exec < 8; exec++ {
			for part := exec * 8; part < exec*8+8; part++ {
				e.Cluster().CachePut(exec, blockID(lp.ID, part), nil, 1024)
			}
		}
	}
	return e
}

var offersSink int

// TestRemoteOffersMCFAllocCeiling is the scheduler-side twin of the record
// package's TestKernelAllocCeilings: scoring and ordering MCF offers in the
// steady state (caches populated, unit mapping unchanged) allocates nothing,
// however many blocks the executors hold.
func TestRemoteOffersMCFAllocCeiling(t *testing.T) {
	e := taxiShapeMCF(t)
	if n := len(e.remoteOffers()); n != 8 {
		t.Fatalf("offers = %d, want 8", n)
	}
	if avg := testing.AllocsPerRun(200, func() { offersSink += len(e.remoteOffers()) }); avg != 0 {
		t.Fatalf("remoteOffers allocates %.1f/op under MCF, want 0", avg)
	}
}

// BenchmarkRemoteOffersMCF measures one MCF offer construction — score
// every executor, order the offers — at the taxi-window cache shape.
func BenchmarkRemoteOffersMCF(b *testing.B) {
	e := taxiShapeMCF(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offersSink += len(e.remoteOffers())
	}
}

// lifecycleAllocs counts the heap allocations of one PartitionBy(Hash(n))
// Count over n one-row partitions: the job alone, with the engine and its
// source built beforehand. It reports the least of three runs, so a
// background allocation in one run cannot inflate the count.
func lifecycleAllocs(t *testing.T, n, par int) uint64 {
	t.Helper()
	best := ^uint64(0)
	for run := 0; run < 3; run++ {
		cfg := testConfig()
		cfg.Execution.Parallelism = par
		e := New(cfg)
		g := e.Graph()
		pb := g.PartitionBy(g.Source("src", dataset(n, n), false), "pb", partition.NewHash(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := e.Count(pb)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(n) {
			t.Fatalf("count = %d, want %d", got, n)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestTaskLifecycleAllocs pins what a task's life allocates: every added
// partition of a hash repartition adds one map task and one reduce task,
// and between them they may allocate only what the wide map task's
// partition kernel allocates (TestKernelAllocCeilings' PartitionRowsWide
// ceiling, 4). Launch, executor receipt, the plane batch, the join, the
// completion and the result report add nothing: their events are bound
// handlers carrying the task, the batch entry and staged outputs live in the
// task, and a stage's tasks share one slab. A closure or a per-task object
// re-added anywhere on that path adds one allocation per task, two per
// partition, and fails here. Like testing.AllocsPerRun, the average is
// truncated to an integer: the engine's queues grow by doubling, a few
// allocations per doubling of the job, which stays below one per partition.
func TestTaskLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector: among other things sync.Pool drops a quarter of its Puts, so pooled plane contexts are rebuilt")
	}
	const n, ceiling = 1000, 4
	for _, par := range []int{1, 2} {
		small, large := lifecycleAllocs(t, n, par), lifecycleAllocs(t, 2*n, par)
		perPart := (int64(large) - int64(small)) / n
		t.Logf("parallelism %d: %d allocs at %d partitions, %d at %d", par, small, n, large, 2*n)
		if perPart > ceiling {
			t.Errorf("parallelism %d: %d allocations per added partition (one map plus one reduce task), ceiling %d", par, perPart, ceiling)
		}
	}
}
