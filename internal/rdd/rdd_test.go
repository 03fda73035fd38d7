package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stark/internal/partition"
	"stark/internal/record"
)

func sourceParts() [][]record.Record {
	return [][]record.Record{
		{record.Pair("a", int64(1)), record.Pair("b", int64(2))},
		{record.Pair("c", int64(3))},
	}
}

func TestSourceAdoptsDataCopyOnWrite(t *testing.T) {
	g := NewGraph()
	parts := sourceParts()
	r := g.Source("src", parts, true)
	// The source adopts the caller's slices without a defensive clone; the
	// caller contract (enforced under STARK_CHECK_COW=1) is to never mutate
	// them afterwards.
	if &r.Source[0][0] != &parts[0][0] {
		t.Fatal("Source cloned caller data; expected copy-on-write adoption")
	}
	if r.ID != 0 || r.Parts != 2 || !r.SourceFromDisk || r.Kind != KindSource {
		t.Fatalf("source = %+v", r)
	}
}

func TestMapTransform(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", sourceParts(), false)
	m := g.Map(src, "upper", false, func(r record.Record) record.Record {
		return record.Pair(strings.ToUpper(r.Key), r.Value)
	})
	out := m.Transform(0, [][]record.Record{src.Source[0]})
	if len(out) != 2 || out[0].Key != "A" || out[1].Key != "B" {
		t.Fatalf("out = %v", out)
	}
	if m.Partitioner != nil {
		t.Fatal("key-changing map preserved partitioner")
	}
}

func TestFilterPreservesPartitioningAndNamespace(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", sourceParts(), false)
	p := partition.NewHash(2)
	lp := g.LocalityPartitionBy(src, "lp", p, "ns1")
	f := g.Filter(lp, "f", func(r record.Record) bool { return r.Key != "b" })
	if f.Partitioner == nil || !f.Partitioner.Equivalent(p) {
		t.Fatal("filter dropped partitioner")
	}
	if f.Namespace != "ns1" {
		t.Fatalf("namespace = %q, want ns1 (narrow propagation)", f.Namespace)
	}
	out := f.Transform(0, [][]record.Record{{record.Pair("a", 1), record.Pair("b", 2)}})
	if len(out) != 1 || out[0].Key != "a" {
		t.Fatalf("out = %v", out)
	}
}

func TestKeyChangingMapDropsNamespace(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", sourceParts(), false)
	lp := g.LocalityPartitionBy(src, "lp", partition.NewHash(2), "ns1")
	m := g.Map(lp, "rekey", false, func(r record.Record) record.Record { return r })
	if m.Namespace != "" || m.Partitioner != nil {
		t.Fatalf("rekeying map kept namespace %q / partitioner %v", m.Namespace, m.Partitioner)
	}
	mv := g.Map(lp, "mapValues", true, func(r record.Record) record.Record { return r })
	if mv.Namespace != "ns1" || mv.Partitioner == nil {
		t.Fatal("value-only map lost namespace or partitioner")
	}
}

func TestFlatMap(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", sourceParts(), false)
	fm := g.FlatMap(src, "dup", func(r record.Record) []record.Record {
		return []record.Record{r, r}
	})
	out := fm.Transform(0, [][]record.Record{src.Source[0]})
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
}

func TestPartitionByIsShuffle(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", sourceParts(), false)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	if pb.Narrow() {
		t.Fatal("partitionBy narrow")
	}
	if pb.Parts != 4 || pb.Deps[0].ShuffleID != 0 {
		t.Fatalf("pb = %+v", pb)
	}
	pb2 := g.PartitionBy(src, "pb2", partition.NewHash(4))
	if pb2.Deps[0].ShuffleID != 1 {
		t.Fatal("shuffle ids not unique")
	}
}

func TestReduceByKeyCombines(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", nil, false)
	rbk := g.ReduceByKey(src, "sum", partition.NewHash(2), func(a, b any) any {
		ai, _ := record.AsInt64(a)
		bi, _ := record.AsInt64(b)
		return ai + bi
	})
	in := []record.Record{record.Pair("x", int64(1)), record.Pair("y", int64(5)), record.Pair("x", int64(2))}
	out := rbk.Transform(0, [][]record.Record{in})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	byKey := map[string]any{}
	for _, r := range out {
		byKey[r.Key] = r.Value
	}
	if byKey["x"] != int64(3) || byKey["y"] != int64(5) {
		t.Fatalf("byKey = %v", byKey)
	}
}

func TestCoGroupNarrowWhenCoPartitioned(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(2)
	a := g.PartitionBy(g.Source("a", nil, false), "ap", p)
	b := g.PartitionBy(g.Source("b", nil, false), "bp", p)
	cg := g.CoGroup("cg", p, a, b)
	if !cg.Narrow() {
		t.Fatal("co-partitioned cogroup not narrow")
	}
	// Different partitioner forces shuffle deps.
	c := g.PartitionBy(g.Source("c", nil, false), "cp", partition.NewHash(3))
	cg2 := g.CoGroup("cg2", p, a, c)
	if cg2.Deps[0].Shuffle || !cg2.Deps[1].Shuffle {
		t.Fatalf("deps = %+v", cg2.Deps)
	}
}

func TestCoGroupNamespacePropagation(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(2)
	a := g.LocalityPartitionBy(g.Source("a", nil, false), "ap", p, "ns")
	b := g.LocalityPartitionBy(g.Source("b", nil, false), "bp", p, "ns")
	c := g.LocalityPartitionBy(g.Source("c", nil, false), "cp", p, "other")
	if cg := g.CoGroup("cg", p, a, b); cg.Namespace != "ns" {
		t.Fatalf("namespace = %q", cg.Namespace)
	}
	if cg := g.CoGroup("cg2", p, a, c); cg.Namespace != "" {
		t.Fatal("mixed namespaces propagated")
	}
}

func TestCoGroupTransform(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(1)
	a := g.Source("a", nil, false)
	b := g.Source("b", nil, false)
	cg := g.CoGroup("cg", p, a, b)
	out := cg.Transform(0, [][]record.Record{
		{record.Pair("k", "a1"), record.Pair("k", "a2")},
		{record.Pair("k", "b1"), record.Pair("z", "b2")},
	})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	var k, z record.CoGrouped
	for _, r := range out {
		cgv := r.Value.(record.CoGrouped)
		switch r.Key {
		case "k":
			k = cgv
		case "z":
			z = cgv
		}
	}
	if len(k.Groups[0]) != 2 || len(k.Groups[1]) != 1 {
		t.Fatalf("k groups = %v", k.Groups)
	}
	if len(z.Groups[0]) != 0 || len(z.Groups[1]) != 1 {
		t.Fatalf("z groups = %v", z.Groups)
	}
}

func TestJoinTransform(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(1)
	j := g.Join("j", p, g.Source("a", nil, false), g.Source("b", nil, false))
	out := j.Transform(0, [][]record.Record{
		{record.Pair("k", "l1"), record.Pair("k", "l2"), record.Pair("only", "x")},
		{record.Pair("k", "r1")},
	})
	if len(out) != 2 {
		t.Fatalf("join out = %v", out)
	}
	for _, r := range out {
		jv := r.Value.(record.Joined)
		if r.Key != "k" || jv.Right != "r1" {
			t.Fatalf("bad joined %v", r)
		}
	}
}

func TestAncestors(t *testing.T) {
	g := NewGraph()
	src := g.Source("src", nil, false)
	p := partition.NewHash(2)
	pb := g.PartitionBy(src, "pb", p)
	f := g.Filter(pb, "f", func(record.Record) bool { return true })
	cg := g.CoGroup("cg", p, f, pb)
	anc := Ancestors(cg)
	if len(anc) != 3 {
		t.Fatalf("ancestors = %v", anc)
	}
	if len(Ancestors(src)) != 0 {
		t.Fatal("source has ancestors")
	}
}

func TestGraphByID(t *testing.T) {
	g := NewGraph()
	r := g.Source("s", nil, false)
	if g.ByID(r.ID) != r || g.ByID(99) != nil || g.ByID(-1) != nil {
		t.Fatal("ByID wrong")
	}
	if len(g.RDDs()) != 1 {
		t.Fatal("RDDs wrong")
	}
}

func TestTotalBytesAndString(t *testing.T) {
	g := NewGraph()
	r := g.Source("s", nil, false)
	r.PartBytes = []int64{10, 20}
	if r.TotalBytes() != 30 {
		t.Fatalf("TotalBytes = %d", r.TotalBytes())
	}
	if r.String() != "s#0(0 parts)" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestCoGroupNoParentsPanics(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.CoGroup("cg", partition.NewHash(1))
}

func TestUnionPartitionMapping(t *testing.T) {
	g := NewGraph()
	a := g.Source("a", [][]record.Record{{record.Pair("a0", 1)}, {record.Pair("a1", 2)}}, false)
	b := g.Source("b", [][]record.Record{{record.Pair("b0", 3)}}, false)
	u := g.Union("u", a, b)
	if u.Parts != 3 || !u.Narrow() || u.Partitioner != nil {
		t.Fatalf("union = %+v", u)
	}
	// Child partition 0,1 -> a's 0,1; child 2 -> b's 0.
	cases := []struct {
		child  int
		parent int // index into deps
		pp     int
	}{{0, 0, 0}, {1, 0, 1}, {2, 1, 0}}
	for _, c := range cases {
		for di, d := range u.Deps {
			pp, ok := d.Map(c.child)
			if di == c.parent {
				if !ok || pp != c.pp {
					t.Fatalf("child %d dep %d -> %d,%v", c.child, di, pp, ok)
				}
			} else if ok {
				t.Fatalf("child %d claimed by dep %d", c.child, di)
			}
		}
	}
	// Transform picks the sole non-nil input.
	out := u.Transform(2, [][]record.Record{nil, {record.Pair("b0", 3)}})
	if len(out) != 1 || out[0].Key != "b0" {
		t.Fatalf("transform = %v", out)
	}
}

func TestUnionNoParentsPanics(t *testing.T) {
	g := NewGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Union("u")
}

func TestDistinctKeepsFirst(t *testing.T) {
	g := NewGraph()
	src := g.Source("s", nil, false)
	d := g.Distinct(src, "d", partition.NewHash(2))
	out := d.Transform(0, [][]record.Record{{
		record.Pair("k", "first"), record.Pair("k", "second"), record.Pair("j", "x"),
	}})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	for _, r := range out {
		if r.Key == "k" && r.Value != "first" {
			t.Fatalf("distinct kept %v", r.Value)
		}
	}
}

func TestGroupByKeyNarrowWhenCoPartitioned(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(2)
	pre := g.PartitionBy(g.Source("s", nil, false), "pre", p)
	gb := g.GroupByKey(pre, "gb", p)
	if !gb.Narrow() {
		t.Fatal("co-partitioned groupByKey not narrow")
	}
	if gb.Partitioner == nil || !gb.Partitioner.Equivalent(p) {
		t.Fatal("groupByKey lost partitioner")
	}
	// Different partitioner shuffles.
	gb2 := g.GroupByKey(pre, "gb2", partition.NewHash(4))
	if gb2.Narrow() {
		t.Fatal("repartitioning groupByKey narrow")
	}
	out := gb.Transform(0, [][]record.Record{{record.Pair("a", 1), record.Pair("a", 2)}})
	if len(out) != 1 || len(out[0].Value.([]any)) != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestSampleDeterministicAndClamped(t *testing.T) {
	g := NewGraph()
	src := g.Source("s", nil, false)
	var in []record.Record
	for i := 0; i < 1000; i++ {
		in = append(in, record.Pair(fmt.Sprintf("k%04d", i), i))
	}
	s := g.Sample(src, "half", 0.5, 7)
	out1 := s.Transform(0, [][]record.Record{in})
	out2 := s.Transform(0, [][]record.Record{in})
	if len(out1) != len(out2) {
		t.Fatal("sample not deterministic")
	}
	if len(out1) < 400 || len(out1) > 600 {
		t.Fatalf("sample(0.5) kept %d of 1000", len(out1))
	}
	none := g.Sample(src, "none", -1, 7)
	if got := none.Transform(0, [][]record.Record{in}); len(got) != 0 {
		t.Fatalf("sample(-1) kept %d", len(got))
	}
	all := g.Sample(src, "all", 2, 7)
	if got := all.Transform(0, [][]record.Record{in}); len(got) != 1000 {
		t.Fatalf("sample(2) kept %d", len(got))
	}
}

// TestKeyedOperatorsMatchNaiveReference holds the four operators that run on
// the record package's co-group kernel — ReduceByKey, GroupByKey, Join,
// CoGroup — to map-and-sort.Strings evaluations of their definitions, on
// random, sorted (the kernel's run-length path) and reverse-sorted
// partitions with duplicate keys, keys sharing an 8-byte prefix and empty
// sides. Order is part of the contract: keys ascending for the first three,
// first-seen for CoGroup, values in input order, absent cogroup sides nil.
func TestKeyedOperatorsMatchNaiveReference(t *testing.T) {
	g := NewGraph()
	p := partition.NewHash(1)
	src := func() *RDD { return g.Source("s", nil, false) }
	concat := func(a, b any) any { return fmt.Sprint(a, "+", b) } // order-sensitive on purpose
	reduce := g.ReduceByKey(src(), "rbk", p, concat)
	group := g.GroupByKey(src(), "gbk", p)
	join := g.Join("j", p, src(), src())
	cogroup := g.CoGroup("cg", p, src(), src(), src())

	collate := func(in []record.Record) (map[string][]any, []string) {
		m := map[string][]any{}
		var firstSeen []string
		for _, r := range in {
			if _, ok := m[r.Key]; !ok {
				firstSeen = append(firstSeen, r.Key)
			}
			m[r.Key] = append(m[r.Key], r.Value)
		}
		return m, firstSeen
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sides := make([][]record.Record, 3)
		for s := range sides {
			n := []int{0, 1, rng.Intn(8), rng.Intn(300)}[rng.Intn(4)]
			keys := 1 + rng.Intn(40)
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("shared-prefix-%d", rng.Intn(keys))
				if seed%2 == 0 {
					k = fmt.Sprintf("%d", rng.Intn(keys))
				}
				sides[s] = append(sides[s], record.Pair(k, fmt.Sprintf("s%d#%d", s, i)))
			}
			switch rng.Intn(3) {
			case 0:
				sort.SliceStable(sides[s], func(i, j int) bool { return sides[s][i].Key < sides[s][j].Key })
			case 1:
				sort.SliceStable(sides[s], func(i, j int) bool { return sides[s][i].Key > sides[s][j].Key })
			}
		}

		m0, seen0 := collate(sides[0])
		sorted0 := append([]string(nil), seen0...)
		sort.Strings(sorted0)
		var wantReduce, wantGroup, wantJoin []record.Record
		m1, _ := collate(sides[1])
		for _, k := range sorted0 {
			acc := m0[k][0]
			for _, v := range m0[k][1:] {
				acc = concat(acc, v)
			}
			wantReduce = append(wantReduce, record.Pair(k, acc))
			wantGroup = append(wantGroup, record.Pair(k, m0[k]))
			for _, lv := range m0[k] {
				for _, rv := range m1[k] {
					wantJoin = append(wantJoin, record.Pair(k, &record.JoinedPair{Left: lv, Right: rv}))
				}
			}
		}
		var wantCoGroup []record.Record
		all := append(append(append([]record.Record(nil), sides[0]...), sides[1]...), sides[2]...)
		_, seenAll := collate(all)
		m2, _ := collate(sides[2])
		for _, k := range seenAll {
			wantCoGroup = append(wantCoGroup, record.Pair(k, &record.CoGroupedSides{Groups: [][]any{m0[k], m1[k], m2[k]}}))
		}

		for _, tc := range []struct {
			name      string
			got, want []record.Record
		}{
			{"ReduceByKey", reduce.Transform(0, sides[:1]), wantReduce},
			{"GroupByKey", group.Transform(0, sides[:1]), wantGroup},
			{"Join", join.Transform(0, sides[:2]), wantJoin},
			{"CoGroup", cogroup.Transform(0, sides), wantCoGroup},
		} {
			if len(tc.got) != len(tc.want) || (len(tc.want) > 0 && !reflect.DeepEqual(tc.got, tc.want)) {
				t.Fatalf("seed %d: %s = %v, want %v", seed, tc.name, tc.got, tc.want)
			}
		}
	}
}

// TestFilterMatchesNaiveReference holds Filter to append-if-pred over the
// shapes that matter to its sizing — everything kept, nothing kept,
// alternating, random — and to its contract: pred once per record in input
// order, input untouched, output allocated once at its exact size (nil when
// empty). Sample is a Filter and inherits all of it.
func TestFilterMatchesNaiveReference(t *testing.T) {
	g := NewGraph()
	src := g.Source("s", nil, false)
	rng := rand.New(rand.NewSource(5))
	in := make([]record.Record, 1000)
	for i := range in {
		in[i] = record.Pair(fmt.Sprintf("k%d", rng.Intn(100)), i)
	}
	input := append([]record.Record(nil), in...)
	for name, keep := range map[string]func(i int) bool{
		"all":         func(int) bool { return true },
		"none":        func(int) bool { return false },
		"alternating": func(i int) bool { return i%2 == 1 },
		"random":      func(i int) bool { return (i*2654435761)>>7%3 == 0 },
	} {
		for _, n := range []int{0, 1, len(in)} {
			var want []record.Record
			for i, r := range in[:n] {
				if keep(i) {
					want = append(want, r)
				}
			}
			calls := 0
			f := g.Filter(src, name, func(r record.Record) bool {
				if r != in[calls] {
					t.Fatalf("%s n=%d: call %d of pred saw %v, want %v", name, n, calls, r, in[calls])
				}
				calls++
				return keep(calls - 1)
			})
			got := f.Transform(0, [][]record.Record{in[:n]})
			if calls != n {
				t.Fatalf("%s n=%d: pred ran %d times", name, n, calls)
			}
			if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
				t.Fatalf("%s n=%d: %d records (cap %d), want %d (nil when empty)", name, n, len(got), cap(got), len(want))
			}
		}
	}
	if !reflect.DeepEqual(in, input) {
		t.Fatal("Filter wrote into its input")
	}

	third := g.Filter(src, "third", func(r record.Record) bool { return r.Value.(int)%3 == 0 })
	inputs := [][]record.Record{in}
	if raceEnabled {
		return // sync.Pool drops a quarter of its Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(20, func() { third.Transform(0, inputs) }); allocs > 1 {
		t.Fatalf("Filter keeping a third of %d records: %.0f allocs/op on a warm pool, want its one output", len(in), allocs)
	}
}
