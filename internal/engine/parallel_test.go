package engine

// Two-clock determinism oracle: the data-plane worker pool must be
// invisible to the simulation. Every run here executes the same workload
// under parallelism 1 and parallelism N (same seed) and requires the full
// observable state — job results, collected records, engine stats,
// recovery metrics, and the per-task virtual-time Gantt — to be
// byte-identical, with and without chaos fault schedules. Run with
// -cpu 1,4 and -race in CI.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"stark/internal/fault"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// parallelWorkloadTranscript builds a multi-stage workload (cached sources,
// narrow chains, shuffles, one large enough to split its index build,
// cogroup, join, sort), runs several jobs plus an
// executor kill/restart, and renders everything observable into one string.
func parallelWorkloadTranscript(t *testing.T, par int, seed int64, faults fault.Schedule) string {
	t.Helper()
	cfg := testConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Cluster.SlotsPerExecutor = 4
	cfg.Seed = seed
	cfg.Faults = faults
	cfg.Recovery.Speculation = true
	cfg.Execution.Parallelism = par
	e := New(cfg)
	g := e.Graph()

	mkParts := func(tag string, nParts, perPart int) [][]record.Record {
		parts := make([][]record.Record, nParts)
		for p := 0; p < nParts; p++ {
			for i := 0; i < perPart; i++ {
				k := fmt.Sprintf("%s-%03d", tag, (p*perPart+i*7)%97)
				parts[p] = append(parts[p], record.Pair(k, int64(p*1000+i)))
			}
		}
		return parts
	}

	var sb strings.Builder
	note := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }
	run := func(name string, final *rdd.RDD, action Action) {
		res, err := e.RunJob(final, action)
		note("job %s: count=%d err=%v", name, res.Count, err)
		for p, recs := range res.Partitions {
			if len(recs) > 0 {
				note("  part %d: %v", p, recs)
			}
		}
	}

	p8 := partition.NewHash(8)
	src1 := g.Source("src1", mkParts("a", 16, 40), true)
	src2 := g.Source("src2", mkParts("b", 16, 40), false)
	pb1 := g.PartitionBy(src1, "pb1", p8)
	pb1.CacheFlag = true
	rbk := g.ReduceByKey(src2, "rbk", p8, func(a, b any) any {
		x, _ := record.AsInt64(a)
		y, _ := record.AsInt64(b)
		return x + y
	})
	rbk.CacheFlag = true
	cg := g.CoGroup("cg", p8, pb1, rbk)
	jn := g.Join("join", p8, pb1, rbk)
	sorted := g.SortByKey(rbk, "sorted", []string{"b-020", "b-050", "b-080"}, 4)
	// 12 800 rows: enough for a pooled reduce stage to split the shuffle's
	// index build over up to three goroutines (storage's minRangeRows).
	big := g.ReduceByKey(g.Source("src3", mkParts("c", 16, 800), false), "rbk-big", p8, func(a, b any) any {
		x, _ := record.AsInt64(a)
		y, _ := record.AsInt64(b)
		return x + y
	})

	run("warm-pb1", pb1, ActionCount)
	run("cogroup", cg, ActionCollect)
	if faults.Empty() {
		// Deterministic manual churn when no schedule injects any.
		e.KillExecutor(1)
	}
	run("join", jn, ActionCount)
	if faults.Empty() {
		e.RestartExecutor(1)
	}
	run("sorted", sorted, ActionCollect)
	run("cogroup-again", cg, ActionCount)
	run("big", big, ActionCollect)

	note("stats: %+v", e.Stats())
	note("recovery: %+v", e.Recovery())
	for _, jm := range e.CompletedJobs() {
		note("gantt job %d submitted=%v finished=%v", jm.JobID, jm.Submitted, jm.Finished)
		for _, tm := range jm.Tasks {
			note("  task %+v", tm)
		}
	}
	return sb.String()
}

func diffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  par1: %s\n  parN: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

func TestParallelMatchesSequential(t *testing.T) {
	pars := []int{4, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := parallelWorkloadTranscript(t, 1, seed, fault.Schedule{})
			for _, par := range pars {
				if par <= 1 {
					continue
				}
				got := parallelWorkloadTranscript(t, par, seed, fault.Schedule{})
				if got != want {
					t.Fatalf("parallelism %d diverged from sequential:\n%s", par, diffLine(want, got))
				}
			}
		})
	}
}

func TestParallelMatchesSequentialUnderChaos(t *testing.T) {
	const horizon = 2 * time.Second
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := fault.RandomSchedule(seed, horizon, 4)
			want := parallelWorkloadTranscript(t, 1, seed, sched)
			got := parallelWorkloadTranscript(t, 4, seed, sched)
			if got != want {
				t.Fatalf("chaos seed %d: parallel diverged from sequential:\n%s", seed, diffLine(want, got))
			}
		})
	}
}

// TestCowCheckDetectsSourceMutation proves the STARK_CHECK_COW debug mode
// turns a copy-on-write violation (caller mutating adopted source data)
// into a panic at materialization.
func TestCowCheckDetectsSourceMutation(t *testing.T) {
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)

	e := New(testConfig())
	g := e.Graph()
	parts := [][]record.Record{
		{record.Pair("a", int64(1)), record.Pair("b", int64(2))},
		{record.Pair("c", int64(3))},
	}
	src := g.Source("src", parts, false)
	if _, _, err := e.Count(src); err != nil {
		t.Fatalf("clean count: %v", err)
	}
	parts[0][0].Key = "mutated" // violate the adoption contract
	defer func() {
		if recover() == nil {
			t.Fatal("mutated source materialized without a COW panic")
		}
	}()
	_, _, _ = e.Count(g.Map(src, "m", false, func(r record.Record) record.Record { return r }))
}

// TestCowCheckDetectsShuffleViewMutation proves the debug mode catches a
// transform that writes a key into its shuffle input. ReadReduce hands every
// reader the store's own reduce-major rows and verifies checksums only when
// it builds them, so without the check the next read would return the
// rewritten key as if the map tasks had produced it.
func TestCowCheckDetectsShuffleViewMutation(t *testing.T) {
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)

	e := New(testConfig())
	g := e.Graph()
	src := g.Source("src", [][]record.Record{
		{record.Pair("a", int64(1)), record.Pair("b", int64(2))},
		{record.Pair("c", int64(3))},
	}, false)
	shuffled := g.PartitionBy(src, "pb", partition.NewHash(1))
	impure := g.MapPartitions(shuffled, "impure", true, 1, func(in []record.Record) []record.Record {
		in[0].Key = "mutated"
		return in
	})
	if _, _, err := e.Count(impure); err != nil {
		t.Fatalf("first count: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a rewritten shuffle view was read again without a COW panic")
		}
	}()
	_, _, _ = e.Count(shuffled)
}

// TestCowCheckCleanRun verifies the debug mode reports no false positives
// on a workload exercising collect staging, caching and shuffles.
func TestCowCheckCleanRun(t *testing.T) {
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)
	_ = parallelWorkloadTranscript(t, 2, 42, fault.Schedule{})
}
