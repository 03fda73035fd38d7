package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"stark/internal/cluster"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// naiveUnitKey re-derives a block's collection unit from the public
// managers, independently of the engine's unitOf/unitIDOf and of the
// cluster's unit index: namespace from the lineage graph, registration
// and partition count from the LocalityManager's units (plain co-locality:
// one unit per partition) or the Group Tree's leaves (extendable: the last
// leaf ends at the partition count), group from the Group Tree.
func naiveUnitKey(e *Engine) func(cluster.BlockID) string {
	return func(id cluster.BlockID) string {
		r := e.Graph().ByID(id.RDD)
		if r == nil || r.Namespace == "" {
			return ""
		}
		units := e.Locality().Units(r.Namespace)
		if len(units) == 0 {
			return ""
		}
		if !e.cfg.Features.Extendable {
			if r.Parts != len(units) {
				return ""
			}
			return fmt.Sprintf("%s/%d", r.Namespace, id.Partition)
		}
		groups, err := e.Groups().Groups(r.Namespace)
		if err != nil || r.Parts != groups[len(groups)-1].Hi {
			return ""
		}
		g, err := e.Groups().GroupOf(r.Namespace, id.Partition)
		if err != nil {
			return ""
		}
		return fmt.Sprintf("%s/%d", r.Namespace, g.ID)
	}
}

// naiveOffers is the MCF offer order computed the slow way: every
// offerable executor scored by the O(blocks) UniqueKeysCached recount,
// sorted ascending by score, ties by id.
func naiveOffers(e *Engine) []int {
	key := naiveUnitKey(e)
	score := make(map[int]int)
	var offers []int
	for _, ex := range e.Cluster().Executors() {
		if e.schedulable(ex.ID) && ex.FreeSlots() > 0 {
			offers = append(offers, ex.ID)
			score[ex.ID] = e.Cluster().UniqueKeysCached(ex.ID, key)
		}
	}
	sort.SliceStable(offers, func(a, b int) bool {
		if score[offers[a]] != score[offers[b]] {
			return score[offers[a]] < score[offers[b]]
		}
		return offers[a] < offers[b]
	})
	return offers
}

// checkOffers asserts that the indexed MCF order equals the naive one, that
// every executor's indexed score equals its recount, and that the cluster's
// books (directory and unit index) are consistent.
func checkOffers(t *testing.T, e *Engine, when string) {
	t.Helper()
	key := naiveUnitKey(e)
	for _, ex := range e.Cluster().Executors() {
		if got, want := e.Cluster().UnitsCached(ex.ID), e.Cluster().UniqueKeysCached(ex.ID, key); got != want {
			t.Fatalf("%s: executor %d indexes %d units, recount says %d", when, ex.ID, got, want)
		}
	}
	got := append([]int(nil), e.remoteOffers()...)
	if want := naiveOffers(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: remoteOffers = %v, naive recount order = %v", when, got, want)
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// mcfConfig is a Stark-E style configuration: co-locality, extendable
// partition groups, MCF.
func mcfConfig() Config {
	cfg := nsConfig()
	cfg.Features.Extendable = true
	cfg.Features.MCF = true
	cfg.Groups.Window = 1
	return cfg
}

// sizedDataset builds parts partitions of n records each whose values are
// pad bytes long, so partition byte sizes are controllable.
func sizedDataset(n, parts, pad int) [][]record.Record {
	v := make([]byte, pad)
	for i := range v {
		v[i] = 'x'
	}
	out := make([][]record.Record, parts)
	for i := 0; i < n*parts; i++ {
		out[i%parts] = append(out[i%parts], record.Pair(fmt.Sprintf("k%05d", i), string(v)))
	}
	return out
}

// cacheNS materializes and caches one RDD of the namespace.
func cacheNS(t *testing.T, e *Engine, name string, parts [][]record.Record, p partition.Partitioner) *rdd.RDD {
	t.Helper()
	g := e.Graph()
	lp := g.LocalityPartitionBy(g.Source(name+"-src", parts, false), name, p, "ns")
	lp.CacheFlag = true
	if _, _, err := e.Count(lp); err != nil {
		t.Fatal(err)
	}
	return lp
}

func TestMCFPrefersLeastContended(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.MCF = true
	e := New(cfg)
	p := partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	lp := cacheNS(t, e, "lp", dataset(40, 2), p)
	checkOffers(t, e, "after caching")
	// Load executor 0 with a block of every unit: MCF must offer it last.
	for part := 0; part < lp.Parts; part++ {
		e.Cluster().CachePut(0, blockID(lp.ID, part), nil, 64)
	}
	checkOffers(t, e, "after loading executor 0")
	offers := e.remoteOffers()
	if len(offers) != 4 || offers[3] != 0 {
		t.Fatalf("most contended executor 0 not offered last: %v", offers)
	}
}

// TestMCFIndexFollowsSplitAndMerge drives a Stark-E namespace through a
// real Group Tree split and a real merge via ReportRDD: both change which
// unit already-cached blocks belong to, so the index must be recounted.
func TestMCFIndexFollowsSplitAndMerge(t *testing.T) {
	cfg := mcfConfig()
	cfg.Groups.MaxBytes = 20_000
	cfg.Groups.MinBytes = 2_000
	e := New(cfg)
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 2); err != nil {
		t.Fatal(err)
	}
	big := cacheNS(t, e, "big", sizedDataset(40, 8, 400), p)
	checkOffers(t, e, "before split")
	changes, err := e.ReportRDD(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatalf("no split; partition bytes = %v", big.PartBytes)
	}
	checkOffers(t, e, "after split")
	split, _ := e.Groups().Groups("ns")

	small := cacheNS(t, e, "small", sizedDataset(1, 8, 1), p)
	checkOffers(t, e, "after caching into split groups")
	changes, err = e.ReportRDD(small)
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := e.Groups().Groups("ns")
	if len(changes) == 0 || len(merged) >= len(split) {
		t.Fatalf("no merge: %d -> %d groups, partition bytes = %v", len(split), len(merged), small.PartBytes)
	}
	checkOffers(t, e, "after merge")
}

// TestMCFIndexFollowsDrops covers removals that bypass the engine's put
// path: a stream-style window eviction (DropCached, as stream.evictBefore
// calls it), Unpersist, and a late namespace registration that adopts blocks
// cached before it.
func TestMCFIndexFollowsDrops(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.MCF = true
	e := New(cfg)
	p := partition.NewHash(8)
	g := e.Graph()
	// Cached before the namespace exists: counted under no unit.
	early := g.LocalityPartitionBy(g.Source("early-src", dataset(80, 4), false), "early", p, "ns")
	early.CacheFlag = true
	if _, _, err := e.Count(early); err != nil {
		t.Fatal(err)
	}
	checkOffers(t, e, "before registration")
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	checkOffers(t, e, "after late registration")
	total := 0
	for _, ex := range e.Cluster().Executors() {
		total += e.Cluster().UnitsCached(ex.ID)
	}
	if total == 0 {
		t.Fatal("late registration adopted no cached block")
	}

	a := cacheNS(t, e, "a", dataset(80, 4), p)
	b := cacheNS(t, e, "b", dataset(80, 4), p)
	checkOffers(t, e, "after caching")

	// Window eviction: every replica of every partition, replica lists
	// untouched.
	e.DropCached(a)
	for exec := 0; exec < e.Cluster().NumExecutors(); exec++ {
		for part := 0; part < a.Parts; part++ {
			if e.Cluster().Executor(exec).Store.Contains(blockID(a.ID, part)) {
				t.Fatalf("executor %d still holds %v after DropCached", exec, blockID(a.ID, part))
			}
		}
	}
	checkOffers(t, e, "after window eviction")

	e.Unpersist(b)
	checkOffers(t, e, "after unpersist")
	e.Unpersist(early)
	checkOffers(t, e, "after unpersisting everything")
	for _, ex := range e.Cluster().Executors() {
		if n := e.Cluster().UnitsCached(ex.ID); n != 0 {
			t.Fatalf("executor %d still indexes %d units with nothing cached", ex.ID, n)
		}
	}
}

// TestMCFIndexFollowsExecutorLoss: a kill empties the executor's index and
// removes it from the offers; the restarted process offers again with a
// score of zero and is re-counted as blocks land on it.
func TestMCFIndexFollowsExecutorLoss(t *testing.T) {
	cfg := nsConfig()
	cfg.Features.MCF = true
	e := New(cfg)
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	cacheNS(t, e, "a", dataset(80, 4), p)
	victim := -1
	for _, ex := range e.Cluster().Executors() {
		if e.Cluster().UnitsCached(ex.ID) > 0 {
			victim = ex.ID
		}
	}
	if victim < 0 {
		t.Fatal("nothing cached")
	}
	e.KillExecutor(victim)
	checkOffers(t, e, "after kill")
	e.RestartExecutor(victim)
	checkOffers(t, e, "after restart")
	if n := e.Cluster().UnitsCached(victim); n != 0 {
		t.Fatalf("restarted executor %d scores %d with a cold cache", victim, n)
	}
	cacheNS(t, e, "b", dataset(80, 4), p)
	checkOffers(t, e, "after caching on the restarted cluster")
}

// TestMCFIndexFollowsDriverReplay: a driver crash forgets every namespace
// (all scores drop to zero), and the restart replays the journaled
// registration, split and merge records; after each the indexed order must
// equal the recount under the replayed geometry.
func TestMCFIndexFollowsDriverReplay(t *testing.T) {
	cfg := mcfConfig()
	cfg.DriverRecovery = true
	cfg.Groups.MaxBytes = 20_000
	cfg.Groups.MinBytes = 2_000
	e := New(cfg)
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 2); err != nil {
		t.Fatal(err)
	}
	big := cacheNS(t, e, "big", sizedDataset(40, 8, 400), p)
	if changes, err := e.ReportRDD(big); err != nil || len(changes) == 0 {
		t.Fatalf("split: changes=%v err=%v", changes, err)
	}
	small := cacheNS(t, e, "small", sizedDataset(1, 8, 1), p)
	changes, err := e.ReportRDD(small)
	if err != nil || len(changes) == 0 {
		t.Fatalf("merge: changes=%v err=%v", changes, err)
	}
	// Leave the tree in a split state so replay order matters.
	if changes, err := e.ReportRDD(big); err != nil || len(changes) == 0 {
		t.Fatalf("re-split: changes=%v err=%v", changes, err)
	}
	checkOffers(t, e, "before crash")
	before, _ := e.Groups().Groups("ns")
	scores := make([]int, e.Cluster().NumExecutors())
	for i := range scores {
		scores[i] = e.Cluster().UnitsCached(i)
	}

	e.CrashDriver(0)
	for _, ex := range e.Cluster().Executors() {
		if n := e.Cluster().UnitsCached(ex.ID); n != 0 {
			t.Fatalf("driver down: executor %d indexes %d units of forgotten namespaces", ex.ID, n)
		}
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatalf("driver down: %v", err)
	}
	e.RestartDriver()
	e.Loop().RunUntil(e.Now() + time.Second)
	after, _ := e.Groups().Groups("ns")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("replayed geometry %v != pre-crash %v", after, before)
	}
	checkOffers(t, e, "after replay")
	for i, want := range scores {
		if got := e.Cluster().UnitsCached(i); got != want {
			t.Fatalf("executor %d scores %d after replay, %d before the crash", i, got, want)
		}
	}
}
