package stream

import (
	"fmt"
	"testing"
	"time"

	"stark/internal/cluster"
	"stark/internal/config"
	"stark/internal/engine"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

func testEngine(feat config.Features) *engine.Engine {
	cfg := engine.DefaultConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Cluster.SlotsPerExecutor = 2
	cfg.Sched.LocalityWait = 50 * time.Millisecond
	cfg.Features = feat
	return engine.New(cfg)
}

func stepData(step, n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Pair(fmt.Sprintf("k%03d", i), fmt.Sprintf("s%d-%d", step, i))
	}
	return out
}

func TestStreamRequiresPartitioner(t *testing.T) {
	if _, err := New(testEngine(config.Features{}), Config{Name: "x"}); err == nil {
		t.Fatal("missing partitioner accepted")
	}
}

func TestIngestAndWindow(t *testing.T) {
	e := testEngine(config.Features{})
	s, err := New(e, Config{Name: "s", Partitioner: partition.NewHash(4), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		s.Ingest(step, stepData(step, 50))
		e.Loop().Run()
	}
	if s.Step(0) != nil || s.Step(1) != nil {
		t.Fatal("old steps not evicted")
	}
	if s.Step(2) == nil || s.Step(3) == nil {
		t.Fatal("window steps missing")
	}
	recent := s.Recent(5)
	if len(recent) != 2 || recent[0] != s.Step(2) || recent[1] != s.Step(3) {
		t.Fatalf("recent = %v", recent)
	}
	if got := s.Range(1, 3); len(got) != 2 {
		t.Fatalf("range = %v", got)
	}
	if s.Step(-1) != nil || s.Step(99) != nil {
		t.Fatal("out-of-range step not nil")
	}
}

func TestIngestMaterializesAndCaches(t *testing.T) {
	e := testEngine(config.Features{})
	s, err := New(e, Config{Name: "s", Partitioner: partition.NewHash(4), Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Ingest(0, stepData(0, 100))
	e.Loop().Run()
	cached := 0
	for p := 0; p < r.Parts; p++ {
		if len(e.Cluster().AppendLocations(nil, blockID(r.ID, p))) > 0 {
			cached++
		}
	}
	if cached != r.Parts {
		t.Fatalf("cached %d/%d partitions", cached, r.Parts)
	}
	// Data integrity through the stream.
	n, _, err := e.Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("count = %d", n)
	}
}

func blockID(rddID, part int) cluster.BlockID {
	return cluster.BlockID{RDD: rddID, Partition: part}
}

func TestEvictionDropsCache(t *testing.T) {
	e := testEngine(config.Features{})
	s, err := New(e, Config{Name: "s", Partitioner: partition.NewHash(2), Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	r0 := s.Ingest(0, stepData(0, 20))
	e.Loop().Run()
	// One holder of the step dies and comes back with a cold cache before
	// the window moves: the eviction follows the directory, which must by
	// then list only the replicas that are really there.
	holders := e.Cluster().AppendLocations(nil, blockID(r0.ID, 0))
	if len(holders) == 0 {
		t.Fatal("step 0 was never cached")
	}
	e.KillExecutor(holders[0])
	e.RestartExecutor(holders[0])
	s.Ingest(1, stepData(1, 20))
	e.Loop().Run()
	for p := 0; p < r0.Parts; p++ {
		if len(e.Cluster().AppendLocations(nil, blockID(r0.ID, p))) != 0 {
			t.Fatal("evicted step still cached")
		}
		// The directory is not the only witness: probe every store.
		for _, ex := range e.Cluster().Executors() {
			if ex.Store.Contains(blockID(r0.ID, p)) {
				t.Fatalf("executor %d still holds evicted block %v", ex.ID, blockID(r0.ID, p))
			}
		}
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeIngestBottleneck(t *testing.T) {
	// Spark Streaming's single-receiver ingest must be slower than
	// pre-chunked ingest for the same data.
	run := func(single bool) time.Duration {
		e := testEngine(config.Features{})
		s, err := New(e, Config{
			Name:             "s",
			Partitioner:      partition.NewHash(4),
			Window:           2,
			SingleNodeIngest: single,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Ingest(0, stepData(0, 2000))
		e.Loop().Run()
		jobs := e.CompletedJobs()
		return jobs[len(jobs)-1].Makespan()
	}
	if single, chunked := run(true), run(false); single <= chunked {
		t.Fatalf("single-node ingest %v not slower than chunked %v", single, chunked)
	}
}

func TestStreamCoLocality(t *testing.T) {
	e := testEngine(config.Features{CoLocality: true})
	p := partition.NewHash(4)
	s, err := New(e, Config{Name: "s", Partitioner: p, Namespace: "stream", Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	var rdds []int
	for step := 0; step < 3; step++ {
		r := s.Ingest(step, stepData(step, 50))
		rdds = append(rdds, r.ID)
		e.Loop().Run()
	}
	// Collection partitions co-located across steps.
	for part := 0; part < 4; part++ {
		var first []int
		for _, id := range rdds {
			locs := e.Cluster().AppendLocations(nil, blockID(id, part))
			if len(locs) == 0 {
				t.Fatalf("rdd %d partition %d not cached", id, part)
			}
			if first == nil {
				first = locs
			} else if locs[0] != first[0] {
				t.Fatalf("partition %d scattered: %v vs %v", part, first, locs)
			}
		}
	}
	// A cogroup over the window is fully local.
	window := s.Recent(3)
	cg := e.Graph().CoGroup("cg", p, window...)
	_, jm, err := e.Count(cg)
	if err != nil {
		t.Fatal(err)
	}
	if jm.LocalityFraction() != 1.0 {
		t.Fatalf("window cogroup locality = %v", jm.LocalityFraction())
	}
}

func TestOpenLoopDelaysGrowWithRate(t *testing.T) {
	run := func(interarrival time.Duration) time.Duration {
		e := testEngine(config.Features{})
		g := e.Graph()
		src := g.Source("src", [][]record.Record{stepData(0, 2000), stepData(1, 2000)}, false)
		pb := g.PartitionBy(src, "pb", partition.NewHash(4))
		pb.CacheFlag = true
		if _, _, err := e.Count(pb); err != nil {
			t.Fatal(err)
		}
		results := OpenLoop(e, interarrival, 40, func(i int) *rdd.RDD {
			return g.Filter(pb, fmt.Sprintf("q%d", i), func(record.Record) bool { return true })
		})
		return MeanDelay(results)
	}
	slow := run(50 * time.Millisecond)
	fast := run(100 * time.Microsecond)
	if fast <= slow {
		t.Fatalf("overload delay %v not above light-load delay %v", fast, slow)
	}
}

func TestOpenLoopCompletesAll(t *testing.T) {
	e := testEngine(config.Features{})
	g := e.Graph()
	src := g.Source("src", [][]record.Record{stepData(0, 100)}, false)
	src.CacheFlag = true
	if _, err := e.Materialize(src); err != nil {
		t.Fatal(err)
	}
	results := OpenLoop(e, time.Millisecond, 10, func(i int) *rdd.RDD {
		return g.Filter(src, fmt.Sprintf("q%d", i), func(record.Record) bool { return true })
	})
	for _, r := range results {
		if r.Count != 100 {
			t.Fatalf("query %d count = %d", r.Index, r.Count)
		}
		if r.Delay <= 0 {
			t.Fatalf("query %d delay = %v", r.Index, r.Delay)
		}
	}
	if MeanDelay(nil) != 0 {
		t.Fatal("MeanDelay(nil) != 0")
	}
}

func TestWindowCoGroup(t *testing.T) {
	e := testEngine(config.Features{CoLocality: true})
	p := partition.NewHash(4)
	s, err := New(e, Config{Name: "w", Partitioner: p, Namespace: "w", Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Recent(3)) != 0 {
		t.Fatal("window over empty stream")
	}
	for step := 0; step < 3; step++ {
		s.Ingest(step, stepData(step, 40))
		e.Loop().Run()
	}
	// Steps ingested under the stream's partitioner are co-partitioned, so a
	// cogroup over the window is narrow.
	cg := e.Graph().CoGroup("w-window", p, s.Recent(2)...)
	if !cg.Narrow() {
		t.Fatalf("window cogroup = %v", cg)
	}
	n, _, err := e.Count(cg)
	if err != nil || n != 40 {
		t.Fatalf("count = %d err = %v", n, err)
	}
}

func TestStreamExtendableReporting(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Features = config.Features{CoLocality: true, Extendable: true}
	cfg.Groups.MaxBytes = 1 // force splits on any data
	cfg.Groups.MinBytes = 0
	cfg.Groups.Window = 2
	e := engine.New(cfg)
	s, err := New(e, Config{
		Name: "x", Partitioner: partition.NewHash(8),
		Namespace: "x", InitialGroups: 2, Window: 3, ReportSizes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(0, stepData(0, 100))
	e.Loop().Run()
	groups, err := e.Groups().Groups("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) <= 2 {
		t.Fatalf("groups = %d, expected splits from tiny MaxBytes", len(groups))
	}
	// The locality units followed the splits.
	if units := e.Locality().Units("x"); len(units) != len(groups) {
		t.Fatalf("units = %d, groups = %d", len(units), len(groups))
	}
}

// TestWindowEvictionKeepsUnitIndex: window eviction drops blocks through
// Cluster().DropBlock directly, behind the engine's back, and size
// reporting splits groups between steps; after every step the cluster's
// unit index (the MCF score) must equal the naive recount.
func TestWindowEvictionKeepsUnitIndex(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Features = config.Features{CoLocality: true, Extendable: true, MCF: true}
	cfg.Groups.MaxBytes = 4000
	cfg.Groups.MinBytes = 0
	cfg.Groups.Window = 1
	e := engine.New(cfg)
	s, err := New(e, Config{
		Name: "x", Partitioner: partition.NewHash(8),
		Namespace: "x", InitialGroups: 2, Window: 2, ReportSizes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := func(id cluster.BlockID) string {
		r := e.Graph().ByID(id.RDD)
		if r == nil || r.Namespace == "" {
			return ""
		}
		g, err := e.Groups().GroupOf(r.Namespace, id.Partition)
		if err != nil {
			return ""
		}
		return fmt.Sprintf("%s/%d", r.Namespace, g.ID)
	}
	cached := 0
	for step := 0; step < 6; step++ {
		s.Ingest(step, stepData(step, 40*(step+1)))
		e.Loop().Run()
		for exec := 0; exec < e.Cluster().NumExecutors(); exec++ {
			got, want := e.Cluster().UnitsCached(exec), e.Cluster().UniqueKeysCached(exec, key)
			if got != want {
				t.Fatalf("step %d: executor %d indexes %d units, recount says %d", step, exec, got, want)
			}
			cached += got
		}
		if err := e.Cluster().CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if cached == 0 {
		t.Fatal("no unit ever cached")
	}
	if groups, _ := e.Groups().Groups("x"); len(groups) <= 2 {
		t.Fatalf("groups = %d, expected splits as steps grow", len(groups))
	}
	if s.Step(0) != nil {
		t.Fatal("window never evicted")
	}
}

// TestIngestAdoptsItsInput pins Ingest's adopt-not-copy contract: the step's
// source partitions are views of the caller's slice, and under
// STARK_CHECK_COW a caller that mutates that slice after Ingest is caught at
// the step's materialization.
func TestIngestAdoptsItsInput(t *testing.T) {
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)

	e := testEngine(config.Features{})
	s, err := New(e, Config{Name: "s", Partitioner: partition.NewHash(4), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := stepData(0, 40)
	src := s.Ingest(0, recs).Deps[0].Parent
	off := 0
	for p, part := range src.Source {
		if len(part) == 0 {
			continue
		}
		if &part[0] != &recs[off] {
			t.Fatalf("source partition %d is a copy, not a view of the ingested slice", p)
		}
		off += len(part)
	}
	if off != len(recs) {
		t.Fatalf("source partitions hold %d records, want %d", off, len(recs))
	}

	recs[17].Key = "mutated"
	defer func() {
		if recover() == nil {
			t.Fatal("a mutated step materialized without a COW panic")
		}
	}()
	e.Loop().Run()
}
