package engine

// Fused filter-over-cogroup oracle: a Filter whose CoGroup parent the plane
// would recompute anyway runs as one kernel call that builds only the kept
// groups. Its results and recorded sizes must match rows computed here
// without the kernel, its task metrics must match the two-step path's and
// not depend on the worker pool, and a cached or checkpointed parent must
// still be read, not recomputed.

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// naiveCoGroup is a map-based cogroup sharing no code with the kernel: one
// record per key in first-seen order, Groups[s] nil for a side without it.
func naiveCoGroup(sides [][]record.Record) []record.Record {
	byKey := make(map[string]*record.CoGroupedSides)
	var out []record.Record
	for s, side := range sides {
		for _, r := range side {
			cg, ok := byKey[r.Key]
			if !ok {
				cg = &record.CoGroupedSides{Groups: make([][]any, len(sides))}
				byKey[r.Key] = cg
				out = append(out, record.Record{Key: r.Key, Value: cg})
			}
			cg.Groups[s] = append(cg.Groups[s], r.Value)
		}
	}
	return out
}

// countingCoGroup wraps cg's two transforms so the test sees which path
// computed it: fused counts CoGroupKeep calls, plain Transform calls.
func countingCoGroup(cg *rdd.RDD) (fused, plain *atomic.Int64) {
	fused, plain = new(atomic.Int64), new(atomic.Int64)
	keep, transform := cg.CoGroupKeep, cg.Transform
	cg.CoGroupKeep = func(in [][]record.Record, k func(record.Record) bool, measure bool) ([]record.Record, int64) {
		fused.Add(1)
		return keep(in, k, measure)
	}
	cg.Transform = func(p int, in [][]record.Record) []record.Record {
		plain.Add(1)
		return transform(p, in)
	}
	return fused, plain
}

// fusedScenario runs three filtered three-side cogroups — one the plane
// recomputes, one cached, one checkpointed — at the given parallelism and
// checks each against independently computed rows. With fuse false the
// filters' predicates are hidden from the engine, so every step runs
// unfused. It returns the sizes, task metrics and stats for comparison
// across runs.
func fusedScenario(t *testing.T, par int, fuse bool) string {
	t.Helper()
	cfg := testConfig()
	cfg.Execution.Parallelism = par
	// Small enough that a task's working set lifts the memory pressure past
	// the GC model's knee, so every byte charged to it moves task time.
	cfg.Cluster.MemoryPerExecutor = 24 << 10
	e := New(cfg)
	g := e.Graph()
	what := fmt.Sprintf("par %d fuse %v", par, fuse)

	const parts = 4
	hp := partition.NewHash(parts)
	// Sides a and b arrive partitioned by hp (narrow dependencies); c does
	// not, so the cogroup shuffles it.
	aRows, bRows := make([][]record.Record, parts), make([][]record.Record, parts)
	for i := 0; i < 240; i++ {
		k := fmt.Sprintf("k%03d", i%90)
		p := hp.PartitionFor(k)
		if i%3 == 0 {
			bRows[p] = append(bRows[p], record.Pair(k, fmt.Sprintf("b%d", i)))
		} else {
			aRows[p] = append(aRows[p], record.Pair(k, fmt.Sprintf("a%d", i)))
		}
	}
	cRows := make([][]record.Record, 3)
	for i := 0; i < 150; i++ {
		cRows[i%3] = append(cRows[i%3], record.Pair(fmt.Sprintf("k%03d", (i*7)%120), fmt.Sprintf("c%d", i)))
	}
	a := g.SourceWithPartitioner("a", aRows, false, hp, "")
	b := g.SourceWithPartitioner("b", bRows, false, hp, "")
	c := g.Source("c", cRows, false)

	// A key range and a predicate that reads the values.
	inRange := func(r record.Record) bool { return r.Key >= "k020" && r.Key < "k050" }
	fromC := func(r record.Record) bool {
		for _, v := range r.Value.(record.CoGrouped).Groups[2] {
			if strings.HasSuffix(v.(string), "1") {
				return true
			}
		}
		return false
	}

	// The reference rows: each partition's three inputs, c's in map
	// partition order, cogrouped by naiveCoGroup.
	refCoGroup := make([][]record.Record, parts)
	for p := range refCoGroup {
		var cp []record.Record
		for _, rows := range cRows {
			for _, r := range rows {
				if hp.PartitionFor(r.Key) == p {
					cp = append(cp, r)
				}
			}
		}
		refCoGroup[p] = naiveCoGroup([][]record.Record{aRows[p], bRows[p], cp})
	}
	refFilter := func(keep func(record.Record) bool) [][]record.Record {
		out := make([][]record.Record, parts)
		for p, rows := range refCoGroup {
			for _, r := range rows {
				if keep(r) {
					out[p] = append(out[p], r)
				}
			}
		}
		return out
	}
	checkSizes := func(r *rdd.RDD, rows [][]record.Record) {
		t.Helper()
		if len(r.PartBytes) != parts {
			t.Fatalf("%s: %s has %d recorded sizes, want %d", what, r, len(r.PartBytes), parts)
		}
		for p := range rows {
			if want := cfg.Cluster.ScaleBytes(record.SizeOfSlice(rows[p])); r.PartBytes[p] != want {
				t.Fatalf("%s: %s[%d] recorded %d bytes, its rows measure %d", what, r, p, r.PartBytes[p], want)
			}
		}
	}
	filter := func(cg *rdd.RDD, name string, keep func(record.Record) bool) *rdd.RDD {
		f := g.Filter(cg, name, keep)
		if !fuse {
			f.FilterPred = nil
		}
		return f
	}
	// run counts f, then collects it and checks every partition against
	// want, and returns how many times cg ran fused and plain.
	run := func(f *rdd.RDD, want [][]record.Record, fused, plain *atomic.Int64) (int64, int64) {
		t.Helper()
		fused0, plain0 := fused.Load(), plain.Load()
		n, _, err := e.Count(f)
		if err != nil {
			t.Fatalf("%s: count %s: %v", what, f, err)
		}
		total := 0
		for _, rows := range want {
			total += len(rows)
		}
		if n != int64(total) {
			t.Fatalf("%s: count %s = %d, want %d", what, f, n, total)
		}
		res, err := e.RunJob(f, ActionCollect)
		if err != nil {
			t.Fatalf("%s: collect %s: %v", what, f, err)
		}
		for p := range want {
			if !reflect.DeepEqual(res.Partitions[p], want[p]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, f, p, res.Partitions[p], want[p])
			}
		}
		return fused.Load() - fused0, plain.Load() - plain0
	}

	// Recomputed parent: fused whenever the engine sees the predicate.
	cg := g.CoGroup("cg", hp, a, b, c)
	fused, plain := countingCoGroup(cg)
	for _, tc := range []struct {
		name string
		keep func(record.Record) bool
	}{{"range", inRange}, {"values", fromC}} {
		f := filter(cg, tc.name, tc.keep)
		want := refFilter(tc.keep)
		nf, np := run(f, want, fused, plain)
		if fuse && (nf != 2*parts || np != 0) {
			t.Fatalf("%s: filter %s ran its parent fused %d and plain %d times, want %d and 0", what, tc.name, nf, np, 2*parts)
		}
		if !fuse && (nf != 0 || np != 2*parts) {
			t.Fatalf("%s: filter %s ran its parent fused %d and plain %d times, want 0 and %d", what, tc.name, nf, np, 2*parts)
		}
		checkSizes(cg, refCoGroup)
		checkSizes(f, want)
	}

	// Cached parent: the first job computes and caches it, the second hits.
	cached := g.CoGroup("cached", hp, a, b, c)
	cached.CacheFlag = true
	fused, plain = countingCoGroup(cached)
	fc := filter(cached, "over-cached", inRange)
	before := e.Stats()
	nf, np := run(fc, refFilter(inRange), fused, plain)
	st := e.Stats()
	if nf != 0 || np != parts {
		t.Fatalf("%s: cached parent ran fused %d and plain %d times, want 0 and %d", what, nf, np, parts)
	}
	if misses, hits := st.CacheMisses-before.CacheMisses, st.CacheHits-before.CacheHits; misses != parts || hits != parts {
		t.Fatalf("%s: cached parent: %d misses and %d hits over two jobs, want %d each", what, misses, hits, parts)
	}
	checkSizes(cached, refCoGroup)

	// Checkpointed parent: read back from storage, never recomputed.
	cp := g.CoGroup("checkpointed", hp, a, b, c)
	if _, _, err := e.Count(cp); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	e.ForceCheckpoint(cp)
	if !cp.Checkpointed {
		t.Fatalf("%s: %s not checkpointed", what, cp)
	}
	fused, plain = countingCoGroup(cp)
	fcp := filter(cp, "over-checkpoint", fromC)
	if nf, np := run(fcp, refFilter(fromC), fused, plain); nf != 0 || np != 0 {
		t.Fatalf("%s: checkpointed parent ran fused %d and plain %d times, want 0 and 0", what, nf, np)
	}
	jobs := e.CompletedJobs()
	for _, tm := range jobs[len(jobs)-1].Tasks {
		if tm.DiskRead == 0 || tm.BytesShuffle != 0 {
			t.Fatalf("%s: a task over the checkpointed parent read %v off disk and %d shuffle bytes, want the checkpoint only", what, tm.DiskRead, tm.BytesShuffle)
		}
	}
	checkSizes(cp, refCoGroup)

	var sb strings.Builder
	for _, r := range g.RDDs() {
		fmt.Fprintf(&sb, "%s sizes=%v maxTransform=%v\n", r, r.PartBytes, r.MaxTransformTime)
	}
	for _, jm := range e.CompletedJobs() {
		for _, tm := range jm.Tasks {
			fmt.Fprintf(&sb, "job %d task %+v\n", jm.JobID, tm)
		}
	}
	fmt.Fprintf(&sb, "stats %+v\n", e.Stats())
	return sb.String()
}

// TestFilteredCoGroupMatchesTwoSteps runs fusedScenario fused at
// parallelism 1 and 4 and unfused at 1: all three must agree on every size,
// task metric and stat.
func TestFilteredCoGroupMatchesTwoSteps(t *testing.T) {
	seq := fusedScenario(t, 1, true)
	if pooled := fusedScenario(t, 4, true); pooled != seq {
		t.Fatalf("parallelism 1 and 4 disagree: %s", diffLine(seq, pooled))
	}
	if twoSteps := fusedScenario(t, 1, false); twoSteps != seq {
		t.Fatalf("the fused and the two-step path disagree: %s", diffLine(twoSteps, seq))
	}
}
