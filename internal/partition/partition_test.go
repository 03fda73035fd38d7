package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stark/internal/zorder"
)

func TestHashInRangeAndDeterministic(t *testing.T) {
	h := NewHash(8)
	f := func(key string) bool {
		p := h.PartitionFor(key)
		return p >= 0 && p < 8 && p == h.PartitionFor(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashEquivalence(t *testing.T) {
	if !NewHash(4).Equivalent(NewHash(4)) {
		t.Error("hash(4) not equivalent to hash(4)")
	}
	if NewHash(4).Equivalent(NewHash(8)) {
		t.Error("hash(4) equivalent to hash(8)")
	}
	if NewHash(4).Equivalent(NewStaticRange(UniformBounds(4))) {
		t.Error("hash equivalent to range")
	}
}

func TestHashSpreads(t *testing.T) {
	h := NewHash(8)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[h.PartitionFor(fmt.Sprintf("key-%d", i))]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d got %d of 8000 keys", p, c)
		}
	}
}

func TestRangeFitBalances(t *testing.T) {
	var sample []string
	for i := 0; i < 1000; i++ {
		sample = append(sample, fmt.Sprintf("%04d", i))
	}
	r := NewRange(sample, 4)
	if r.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", r.NumPartitions())
	}
	counts := make([]int, 4)
	for _, k := range sample {
		counts[r.PartitionFor(k)]++
	}
	for p, c := range counts {
		if c < 200 || c > 300 {
			t.Errorf("partition %d got %d of 1000", p, c)
		}
	}
}

func TestRangeOrderPreserving(t *testing.T) {
	r := NewStaticRange([]string{"b", "d", "f"})
	f := func(a, b string) bool {
		if a > b {
			a, b = b, a
		}
		return r.PartitionFor(a) <= r.PartitionFor(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBoundsPlacement(t *testing.T) {
	r := NewStaticRange([]string{"b", "d"})
	cases := map[string]int{"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "zz": 2, "": 0}
	for k, want := range cases {
		if got := r.PartitionFor(k); got != want {
			t.Errorf("PartitionFor(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestFreshRangeNotEquivalent(t *testing.T) {
	sample := []string{"a", "b", "c", "d"}
	r1 := NewRange(sample, 2)
	r2 := NewRange(sample, 2)
	if r1.Equivalent(r2) {
		t.Error("independently fitted RangePartitioners must not be equivalent (Spark-R semantics)")
	}
	if !r1.Equivalent(r1) {
		t.Error("partitioner not equivalent to itself")
	}
}

func TestStaticRangeEquivalence(t *testing.T) {
	a := NewStaticRange([]string{"m"})
	b := NewStaticRange([]string{"m"})
	c := NewStaticRange([]string{"n"})
	if !a.Equivalent(b) {
		t.Error("equal static ranges not equivalent")
	}
	if a.Equivalent(c) {
		t.Error("different bounds equivalent")
	}
}

func TestRangeDuplicateBoundaryCollapse(t *testing.T) {
	sample := make([]string, 100)
	for i := range sample {
		sample[i] = "same"
	}
	r := NewRange(sample, 4)
	// All keys identical: boundaries collapse, everything lands somewhere valid.
	p := r.PartitionFor("same")
	if p < 0 || p >= r.NumPartitions() {
		t.Fatalf("partition %d out of range %d", p, r.NumPartitions())
	}
}

func TestUniformBounds(t *testing.T) {
	b := UniformBounds(8)
	if len(b) != 7 {
		t.Fatalf("len = %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i-1] >= b[i] {
			t.Fatalf("bounds not increasing: %q", b)
		}
	}
}

func TestHexBounds(t *testing.T) {
	b := HexBounds(4, 16)
	if len(b) != 3 {
		t.Fatalf("len = %d", len(b))
	}
	r := NewStaticRange(b)
	// Uniform hex keys spread evenly.
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		counts[r.PartitionFor(fmt.Sprintf("%016x", uint64(i)<<52))]++
	}
	for p, c := range counts {
		if c < 800 || c > 1300 {
			t.Errorf("partition %d got %d of 4096", p, c)
		}
	}
}

func TestPanicsOnBadN(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHash(0) },
		func() { NewRange(nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestRangePartitionForMatchesSearch: routing is the first bound >= key,
// as sort.Search finds it, over random keys, keys equal to a bound or
// between two, every prefix of a bound and keys leaving it there, the empty
// key, duplicate bounds, bounds sharing a long prefix (one of them equal to
// it), an empty bound and no bounds at all.
func TestRangePartitionForMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randKey := func() string {
		b := make([]byte, rng.Intn(5))
		for i := range b {
			b[i] = "abcdz\x00\xff"[rng.Intn(7)]
		}
		return string(b)
	}
	var zBounds []string
	for i := 1; i < 256; i++ {
		zBounds = append(zBounds, zorder.Key(uint64(i*16)))
	}
	sets := [][]string{nil, {""}, {"m"}, HexBounds(256, 16), zBounds, {"b", "b", "d", "d", "d", "q"},
		{"ab", "abc", "abd", "abd"}, {"abcdefghijk1", "abcdefghijk2", "abcdefghijk2x"}}
	for i := 0; i < 50; i++ {
		set := make([]string, rng.Intn(12))
		for j := range set {
			set[j] = randKey()
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		r := NewStaticRange(set)
		var keys []string
		for _, b := range r.bounds {
			keys = append(keys, b, b+"\x00", b+"z")
			for i := range b {
				keys = append(keys, b[:i], b[:i]+"\x00", b[:i]+"\xff", b[:i]+string(b[i]+1))
			}
		}
		keys = append(keys, "", "\xff\xff")
		for i := 0; i < 200; i++ {
			keys = append(keys, randKey(), zorder.Key(rng.Uint64()), zorder.Key(uint64(rng.Intn(4096))))
		}
		for _, k := range keys {
			want := sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] >= k })
			if got := r.PartitionFor(k); got != want {
				t.Fatalf("bounds %q: PartitionFor(%q) = %d, sort.Search says %d", r.bounds, k, got, want)
			}
		}
	}
}

var partSink int

// BenchmarkRangePartitionFor is the taxi ingest's range routing: 255
// static bounds cutting a 64×64 Z-order grid into 256 equal runs of cells,
// over the grid's 16-hex-digit Z-code keys, which all share their first 13
// digits with every bound.
func BenchmarkRangePartitionFor(b *testing.B) {
	const cells, parts = 64 * 64, 256
	bounds := make([]string, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, zorder.Key(uint64(i*cells/parts)))
	}
	r := NewStaticRange(bounds)
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = zorder.Key(zorder.Encode(uint32(rng.Intn(64)), uint32(rng.Intn(64))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partSink += r.PartitionFor(keys[i%len(keys)])
	}
}
