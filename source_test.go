package stark

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"stark/internal/record"
)

// TestParallelizeAdoptsItsInput pins the adopt-not-copy contract of
// Parallelize and TextFile: under STARK_CHECK_COW a caller that mutates the
// slice it handed over is caught at the next materialization.
func TestParallelizeAdoptsItsInput(t *testing.T) {
	prev := record.SetCowCheckForTesting(true)
	defer record.SetCowCheckForTesting(prev)

	for _, source := range []string{"Parallelize", "TextFile"} {
		t.Run(source, func(t *testing.T) {
			ctx := NewContext()
			recs := makeRecords(40)
			var src *RDD
			if source == "Parallelize" {
				src = ctx.Parallelize("d", recs, 4)
			} else {
				src = ctx.TextFile("d", recs, 4)
			}
			if n := src.MustCount(); n != 40 {
				t.Fatalf("clean count = %d", n)
			}
			recs[17].Key = "mutated"
			defer func() {
				if recover() == nil {
					t.Fatal("a mutated source materialized without a COW panic")
				}
			}()
			_, _, _ = src.Map(func(r Record) Record { return r }).Count()
		})
	}
}

// TestKernelPipelinesIdenticalAcrossParallelism runs the two pipeline shapes
// the co-group kernel serves end to end — join → mapValues → reduceByKey
// (the reduce groups the join's sorted output) and a four-parent cogroup over
// a mix of shuffled and co-partitioned parents — at parallelism 1 and N and
// requires identical rows and identical virtual time.
func TestKernelPipelinesIdenticalAcrossParallelism(t *testing.T) {
	side := func(seed int64, n, keys int) []Record {
		rng := rand.New(rand.NewSource(seed))
		out := make([]Record, n)
		for i := range out {
			out[i] = Pair(fmt.Sprintf("k%d", rng.Intn(keys)), i)
		}
		return out
	}
	run := func(par int) (join, cogroup []Record, makespans [2]string) {
		ctx := NewContext(WithExecutors(4), WithSlots(2), WithSeed(7), WithParallelism(par))
		p := NewHashPartitioner(8)
		joined := ctx.Parallelize("l", side(1, 3000, 900), 6).
			Join(p, ctx.Parallelize("r", side(2, 3000, 900), 5)).
			MapValues(func(r Record) Record { return Pair(r.Key, 1) }).
			ReduceByKey(p, func(a, b any) any { return a.(int) + b.(int) })
		join, js, err := joined.Collect()
		if err != nil {
			t.Fatal(err)
		}
		parents := []*RDD{
			ctx.Parallelize("a", side(3, 800, 300), 4).PartitionBy(p).Cache(),
			ctx.Parallelize("b", side(4, 800, 300), 3),
			ctx.Parallelize("c", nil, 2),
			ctx.Parallelize("d", side(5, 40, 300), 8).PartitionBy(p),
		}
		cogroup, cs, err := ctx.CoGroup(p, parents...).
			MapValues(func(r Record) Record {
				sizes := make([]int64, 0, 4)
				for _, g := range r.Value.(CoGrouped).Groups {
					sizes = append(sizes, int64(len(g)))
				}
				return Pair(r.Key, sizes)
			}).Collect()
		if err != nil {
			t.Fatal(err)
		}
		return join, cogroup, [2]string{js.Makespan().String(), cs.Makespan().String()}
	}
	j1, c1, m1 := run(1)
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatalf("degenerate pipelines: %d join rows, %d cogroup rows", len(j1), len(c1))
	}
	for _, par := range []int{2, max(4, runtime.GOMAXPROCS(0))} {
		jn, cn, mn := run(par)
		if !reflect.DeepEqual(j1, jn) {
			t.Errorf("join pipeline differs between parallelism 1 and %d", par)
		}
		if !reflect.DeepEqual(c1, cn) {
			t.Errorf("cogroup pipeline differs between parallelism 1 and %d", par)
		}
		if m1 != mn {
			t.Errorf("virtual makespans differ between parallelism 1 and %d: %v vs %v", par, m1, mn)
		}
	}
}
