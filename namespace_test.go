package stark

import (
	"fmt"
	"strings"
	"testing"
)

// TestNonMemberCoGroupCountsUnderNoUnit cogroups two cached members of a
// 4-partition namespace with a wider (8) and a narrower (2) partitioner. The
// cogroup inherits the namespace's name but not its partition count, so it
// is no member of the collection: it must run, count right, leave the
// cluster consistent, add nothing to the executors' unit counts and take no
// NODE_LOCAL placement from the namespace.
func TestNonMemberCoGroupCountsUnderNoUnit(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"stark", []Option{WithStark()}},
		{"colocality", []Option{WithCoLocality()}},
		{"colocality+mcf", []Option{WithCoLocality(), WithMCF()}},
	}
	for _, cfg := range configs {
		for _, width := range []int{8, 2} {
			t.Run(fmt.Sprintf("%s/width=%d", cfg.name, width), func(t *testing.T) {
				ctx := NewContext(append([]Option{WithExecutors(4), WithSeed(5)}, cfg.opts...)...)
				p := NewHashPartitioner(4)
				if err := ctx.RegisterNamespace("ns", p, 2); err != nil {
					t.Fatal(err)
				}
				cl := ctx.Engine().Cluster()
				units := len(ctx.Engine().Locality().Units("ns"))
				checkUnits := func(when string) {
					t.Helper()
					sum := 0
					for exec := 0; exec < cl.NumExecutors(); exec++ {
						sum += cl.UnitsCached(exec)
					}
					if sum > units {
						t.Fatalf("%s: executors count %d cached units, the namespace has %d", when, sum, units)
					}
					if err := ctx.CheckClusterConsistency(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}

				var members []*RDD
				for i := 0; i < 2; i++ {
					m := ctx.TextFile(fmt.Sprintf("m%d", i), makeRecords(120), 3).LocalityPartitionBy(p, "ns").Cache()
					if n := m.MustCount(); n != 120 {
						t.Fatalf("member %d counts %d, want 120", i, n)
					}
					members = append(members, m)
				}
				checkUnits("members cached")

				var launches []string
				ctx.SetTracer(func(ev TraceEvent) {
					if ev.Kind == "task-launch" && strings.HasPrefix(ev.Detail, "rdd=cogroup ") {
						launches = append(launches, ev.Detail)
					}
				})
				cg := ctx.CoGroup(NewHashPartitioner(width), members...).Cache()
				if got := cg.NumPartitions(); got != width {
					t.Fatalf("cogroup has %d partitions, want %d", got, width)
				}
				n, _, err := cg.Count()
				if err != nil {
					t.Fatal(err)
				}
				if n != 120 {
					t.Fatalf("cogroup counts %d keys, want 120", n)
				}
				ctx.SetTracer(nil)
				if len(launches) != width {
					t.Fatalf("cogroup launched %d tasks, want %d: %v", len(launches), width, launches)
				}
				for _, l := range launches {
					if strings.Contains(l, "NODE_LOCAL") {
						t.Fatalf("non-member task placed through the namespace: %s", l)
					}
				}
				checkUnits("cogroup cached")

				if n := cg.MustCount(); n != 120 {
					t.Fatalf("cached cogroup counts %d keys, want 120", n)
				}
				checkUnits("cogroup re-read")
				cg.Unpersist()
				checkUnits("cogroup unpersisted")
			})
		}
	}
}
