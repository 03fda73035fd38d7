package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"stark/internal/fault"
	"stark/internal/partition"
	"stark/internal/record"
)

// stormConfig is nsConfig with a cache small enough that loading a stream
// of namespace datasets forces continuous policy evictions.
func stormConfig() Config {
	cfg := nsConfig()
	cfg.Cluster.MemoryPerExecutor = 24 << 10
	return cfg
}

// TestEvictionStormDereplicates drives a forced-eviction storm through a
// registered namespace and checks the two invariants onEvictions maintains:
// the block directory stays consistent, and the locality manager lists a
// replica only on executors that still cache at least one block of the
// unit. The two policies degrade differently — LRU evicts stale datasets,
// while the DAG policy refuses the puts outright because co-locality
// concentrates a unit's peer blocks on one executor and the put's own
// pinned peer group is the only victim pool there — and the invariants
// must hold either way.
func TestEvictionStormDereplicates(t *testing.T) {
	for _, policy := range []string{"lru", "dag"} {
		t.Run(policy, func(t *testing.T) {
			cfg := stormConfig()
			cfg.CachePolicy = policy
			e := New(cfg)
			g := e.Graph()
			p := partition.NewHash(4)
			const ns = "storm"
			if err := e.RegisterNamespace(ns, p, 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				src := g.Source(fmt.Sprintf("src%d", i), dataset(200, 2), true)
				lp := g.LocalityPartitionBy(src, fmt.Sprintf("lp%d", i), p, ns)
				lp.CacheFlag = true
				if _, _, err := e.Count(lp); err != nil {
					t.Fatal(err)
				}
			}
			switch policy {
			case "lru":
				if e.evictedEver.Len() == 0 {
					t.Fatal("no evictions occurred; the storm no longer stresses the cache")
				}
			case "dag":
				if cs := e.CacheStats(); cs.PinnedEvictionsBlocked == 0 {
					t.Fatalf("no pinned-group refusals under dag policy (stats %v); the storm no longer stresses the cache", cs)
				}
				if e.evictedEver.Len() != 0 {
					t.Errorf("dag policy evicted %d blocks from pinned peer groups", e.evictedEver.Len())
				}
			}
			if err := e.Cluster().CheckConsistency(); err != nil {
				t.Fatalf("block directory inconsistent after eviction storm: %v", err)
			}
			for unit := 0; unit < p.NumPartitions(); unit++ {
				for _, exec := range e.Locality().Preferred(ns, unit) {
					if !e.Cluster().UnitCached(exec, e.unitIDFor(ns, unit)) {
						t.Errorf("unit %d lists replica on executor %d but caches no block there", unit, exec)
					}
				}
			}
		})
	}
}

// TestCacheStatsRaceSafe reads the CacheStats and RecoveryStats snapshots
// from a second goroutine while the engine runs an eviction-heavy workload,
// so `go test -race -cpu 1,4` can catch any unsynchronized counter access.
func TestCacheStatsRaceSafe(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.MemoryPerExecutor = 24 << 10
	cfg.CachePolicy = "dag"
	e := New(cfg)
	g := e.Graph()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = e.CacheStats()
				_ = e.Recovery()
			}
		}
	}()

	for i := 0; i < 8; i++ {
		src := g.Source(fmt.Sprintf("src%d", i), dataset(200, 4), true)
		m := g.Map(src, fmt.Sprintf("m%d", i), false, func(r record.Record) record.Record { return r })
		m.CacheFlag = true
		if _, _, err := e.Count(m); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if e.CacheStats().Policy != "dag" {
		t.Fatalf("cache stats policy = %q, want dag", e.CacheStats().Policy)
	}
}

// oomSchedule opens a full-run zero-capacity pressure window plus an OOM
// window on executor 1: every cached put there fails its task with ErrOOM
// until the blacklist moves the work elsewhere.
func oomSchedule() fault.Schedule {
	return fault.Schedule{
		MemPressures: []fault.MemPressure{
			{At: time.Microsecond, For: 10 * time.Second, Executor: 1, Factor: 0},
		},
		ExecutorOOMs: []fault.ExecutorOOM{
			{At: time.Microsecond, For: 10 * time.Second, Executor: 1},
		},
	}
}

// oomRun executes a cached workload under the OOM schedule and returns the
// observable outcome.
func oomRun(t *testing.T) (int64, time.Duration, string) {
	t.Helper()
	cfg := testConfig()
	cfg.Faults = oomSchedule()
	cfg.Recovery.MaxTaskRetries = 10
	e := New(cfg)
	g := e.Graph()
	// Warmup advances virtual time past the window open (plane effects
	// apply at dispatch time, so tasks dispatched at t=0 would precede it).
	if _, _, err := e.Count(g.Source("warm", dataset(40, 4), true)); err != nil {
		t.Fatal(err)
	}
	src := g.Source("src", dataset(400, 8), true)
	m := g.Map(src, "m", false, func(r record.Record) record.Record { return r })
	m.CacheFlag = true
	n, _, err := e.Count(m)
	if err != nil {
		t.Fatalf("job under ExecutorOOM did not recover: %v", err)
	}
	// Second job re-reads the cache so recovered blocks are exercised.
	n2, _, err := e.Count(m)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("cached re-read count = %d, want %d", n2, n)
	}
	cs := e.CacheStats()
	if cs.OOMTaskFailures == 0 {
		t.Fatal("no OOM task failures recorded; the fault window missed every put")
	}
	rec := e.Recovery()
	if rec.TaskRetries == 0 {
		t.Fatal("OOM-failed tasks were never retried")
	}
	return n, e.Now(), fmt.Sprintf("%v|%v", cs, rec)
}

// TestExecutorOOMRecoversDeterministically checks both halves of the
// mem-pressure contract: an OOM-failed task recovers through the normal
// retry/blacklist path with correct results, and two identical runs are
// bit-identical in results, virtual time, and every counter.
func TestExecutorOOMRecoversDeterministically(t *testing.T) {
	n1, end1, sig1 := oomRun(t)
	n2, end2, sig2 := oomRun(t)
	if n1 != 400 {
		t.Fatalf("count = %d, want 400", n1)
	}
	if n1 != n2 || end1 != end2 || sig1 != sig2 {
		t.Fatalf("nondeterministic OOM recovery:\nrun1: n=%d end=%v %s\nrun2: n=%d end=%v %s",
			n1, end1, sig1, n2, end2, sig2)
	}
}

// forceCheckpointUnderOOM checkpoints a cache-flagged RDD whose blocks a
// policy eviction dropped, while executor 1 sits at zero capacity inside an
// armed ExecutorOOM window, and renders everything observable. The driver's
// own materialization replays through applyEffects like any task's, but it
// has no task to fail: refused puts are counted, never OOM-fatal.
func forceCheckpointUnderOOM(t *testing.T, par int) string {
	t.Helper()
	cfg := stormConfig()
	cfg.Execution.Parallelism = par
	e := New(cfg)
	g := e.Graph()
	ident := func(r record.Record) record.Record { return r }
	m := g.Map(g.Source("src", dataset(200, 8), true), "m", false, ident)
	m.CacheFlag = true
	if _, _, err := e.Count(m); err != nil {
		t.Fatal(err)
	}
	// Cache other datasets until LRU has evicted every block of m.
	cachedParts := func() (n int) {
		for p := 0; p < m.Parts; p++ {
			n += len(e.cl.AppendLocations(nil, blockID(m.ID, p)))
		}
		return n
	}
	for i := 0; cachedParts() > 0; i++ {
		if i == 32 {
			t.Fatal("m never left the cache; the storm no longer stresses it")
		}
		o := g.Map(g.Source(fmt.Sprintf("s%d", i), dataset(200, 8), true), fmt.Sprintf("o%d", i), false, ident)
		o.CacheFlag = true
		if _, _, err := e.Count(o); err != nil {
			t.Fatal(err)
		}
	}
	before := e.CacheStats()

	e.SetMemPressure(1, 0)
	e.SetOOMWindow(1, true)
	e.ForceCheckpoint(m)

	cs := e.CacheStats()
	if !m.Checkpointed {
		t.Fatal("checkpoint did not complete")
	}
	if cs.CacheRefusals == before.CacheRefusals {
		t.Fatal("no refusal counted for the puts on the zero-capacity executor")
	}
	if cs.RecomputesAfterEviction == before.RecomputesAfterEviction {
		t.Fatal("recomputing the evicted blocks was not counted")
	}
	if cs.OOMTaskFailures != 0 {
		t.Fatalf("driver materialization OOM-failed %d times", cs.OOMTaskFailures)
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatalf("cluster inconsistent after checkpoint: %v", err)
	}
	n, _, err := e.Count(m)
	if err != nil || n != 200 {
		t.Fatalf("count after checkpoint = %d, %v", n, err)
	}
	return fmt.Sprintf("now=%v\ncache=%v\nstats=%+v\nrecovery=%+v", e.Now(), e.CacheStats(), e.Stats(), e.Recovery())
}

func TestForceCheckpointUnderOOMWindow(t *testing.T) {
	want := forceCheckpointUnderOOM(t, 1)
	if got := forceCheckpointUnderOOM(t, 4); got != want {
		t.Fatalf("parallelism 4 diverged from sequential:\n%s", diffLine(want, got))
	}
}
