package engine

// Size oracle: the bytes a plane prices a partition at flow back through
// materialize instead of being looked up, so every path that hands a
// partition to its consumer — a fresh compute, a recompute inside the same
// plane, the plane's own deferred cache put, another plane's cached block,
// a checkpoint — must report the size an independent walk of the rows
// gives, and the task metrics built from those sizes must not depend on
// the worker pool.

import (
	"fmt"
	"strings"
	"testing"

	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// sizeScenario runs the four shapes at the given parallelism, checks every
// recorded partition size against its independently computed rows, and
// renders the task metrics and sizes for the cross-parallelism comparison.
func sizeScenario(t *testing.T, par int) string {
	t.Helper()
	cfg := testConfig()
	cfg.Execution.Parallelism = par
	e := New(cfg)
	g := e.Graph()

	const parts = 4
	hp := partition.NewHash(parts)
	src := make([][]record.Record, parts)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		p := hp.PartitionFor(k)
		src[p] = append(src[p], record.Pair(k, int64(i)))
	}
	scaled := func(f int64) func(record.Record) record.Record {
		return func(r record.Record) record.Record {
			v, _ := record.AsInt64(r.Value)
			return record.Pair(r.Key, v*f)
		}
	}
	apply := func(f func(record.Record) record.Record, in [][]record.Record) [][]record.Record {
		out := make([][]record.Record, len(in))
		for p, rows := range in {
			for _, r := range rows {
				out[p] = append(out[p], f(r))
			}
		}
		return out
	}
	selfCoGroup := func(in [][]record.Record) [][]record.Record {
		out := make([][]record.Record, len(in))
		for p, rows := range in {
			out[p], _ = record.CoGroupRecords([][]record.Record{rows, rows}, nil, false)
		}
		return out
	}
	checkSizes := func(what string, r *rdd.RDD, rows [][]record.Record) {
		t.Helper()
		if len(r.PartBytes) != parts {
			t.Fatalf("par %d %s: %s has %d recorded sizes, want %d", par, what, r, len(r.PartBytes), parts)
		}
		for p := range rows {
			if want := cfg.Cluster.ScaleBytes(record.SizeOfSlice(rows[p])); r.PartBytes[p] != want {
				t.Fatalf("par %d %s: %s[%d] recorded %d bytes, its rows measure %d", par, what, r, p, r.PartBytes[p], want)
			}
		}
	}
	count := func(what string, r *rdd.RDD) {
		t.Helper()
		if _, _, err := e.Count(r); err != nil {
			t.Fatalf("par %d %s: %v", par, what, err)
		}
	}
	lastJobInput := func() int64 {
		jobs := e.CompletedJobs()
		var sum int64
		for _, tm := range jobs[len(jobs)-1].Tasks {
			sum += tm.BytesInput
		}
		return sum
	}

	base := g.SourceWithPartitioner("base", src, false, hp, "")
	doubled, tripled := apply(scaled(2), src), apply(scaled(3), src)

	// An uncached diamond: each plane materializes x twice, pricing it twice.
	x := g.Map(base, "x", true, scaled(2))
	diamond := g.CoGroup("diamond", hp, x, x)
	count("uncached diamond", diamond)
	checkSizes("uncached diamond", base, src)
	checkSizes("uncached diamond", x, doubled)
	checkSizes("uncached diamond", diamond, selfCoGroup(doubled))
	// Each of the two x computes reads the source and feeds x its bytes;
	// the cogroup reads x twice.
	if got, want := lastJobInput(), 4*base.TotalBytes()+2*x.TotalBytes(); got != want {
		t.Fatalf("par %d uncached diamond: tasks read %d input bytes, want %d", par, got, want)
	}

	// A cached RDD re-read by the plane that put it: the second read hits
	// the plane's own deferred put.
	c := g.Map(base, "c", true, scaled(3))
	c.CacheFlag = true
	hits := e.Stats().CacheHits
	cached := g.CoGroup("cached-diamond", hp, c, c)
	count("cached diamond", cached)
	if got := e.Stats().CacheHits - hits; got != parts {
		t.Fatalf("par %d cached diamond: %d cache hits, want one per partition (%d)", par, got, parts)
	}
	checkSizes("cached diamond", c, tripled)
	checkSizes("cached diamond", cached, selfCoGroup(tripled))
	// c is computed once (the source read and c's input), then read twice.
	if got, want := lastJobInput(), 2*base.TotalBytes()+2*c.TotalBytes(); got != want {
		t.Fatalf("par %d cached diamond: tasks read %d input bytes, want %d", par, got, want)
	}

	// The cached parent read by a later job: every plane hits a block an
	// earlier join put, and its input is the recorded size.
	hits = e.Stats().CacheHits
	later := g.Map(c, "later", true, scaled(2))
	count("cached parent", later)
	if got := e.Stats().CacheHits - hits; got != parts {
		t.Fatalf("par %d cached parent: %d cache hits, want %d", par, got, parts)
	}
	checkSizes("cached parent", later, apply(scaled(2), tripled))
	if got, want := lastJobInput(), c.TotalBytes(); got != want {
		t.Fatalf("par %d cached parent: tasks read %d input bytes, the cached parent holds %d", par, got, want)
	}

	// A checkpointed parent: the later job reads the checkpoint, not the
	// lineage.
	k := g.Map(base, "k", true, scaled(5))
	count("checkpointed parent", k)
	e.ForceCheckpoint(k)
	if !k.Checkpointed {
		t.Fatalf("par %d: %s not checkpointed", par, k)
	}
	afterCP := g.Map(k, "after-checkpoint", true, scaled(3))
	count("checkpointed parent", afterCP)
	fived := apply(scaled(5), src)
	checkSizes("checkpointed parent", k, fived)
	checkSizes("checkpointed parent", afterCP, apply(scaled(3), fived))
	if got, want := lastJobInput(), k.TotalBytes(); got != want {
		t.Fatalf("par %d checkpointed parent: tasks read %d input bytes, the checkpointed parent holds %d", par, got, want)
	}

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

func TestPartitionSizesMatchRows(t *testing.T) {
	seq, pooled := sizeScenario(t, 1), sizeScenario(t, 2)
	if seq != pooled {
		t.Fatalf("parallelism 1 and 2 disagree: %s", diffLine(seq, pooled))
	}
}
