package record_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"stark/internal/record"
)

// corpora the batch properties run over: uniform and mixed value types
// (values ride along in the rows, whatever they are), keys with embedded
// separators and NULs, empty and single-key partitions.
func batchCorpora() map[string][]record.Record {
	mixed := []record.Record{
		{Key: "a", Value: int64(1)},
		{Key: "b", Value: "text"},
		{Key: "a", Value: 3.5},
		{Key: "", Value: &record.JoinedPair{Left: int64(1), Right: "r"}},
		{Key: "z\xff\x00z", Value: nil},
	}
	ints := []record.Record{
		{Key: "k1", Value: int64(10)},
		{Key: "k2", Value: int64(-3)},
		{Key: "k1", Value: int64(0)},
	}
	floats := []record.Record{
		{Key: "f", Value: 1.25},
		{Key: "g", Value: -0.5},
	}
	strs := []record.Record{
		{Key: "s", Value: "alpha"},
		{Key: "t", Value: ""},
	}
	singleKey := []record.Record{
		{Key: "only", Value: int64(1)},
		{Key: "only", Value: int64(2)},
		{Key: "only", Value: int64(3)},
	}
	rng := rand.New(rand.NewSource(7))
	big := make([]record.Record, 500)
	for i := range big {
		big[i] = record.Record{Key: fmt.Sprintf("key-%03d", rng.Intn(40)), Value: int64(i)}
	}
	return map[string][]record.Record{
		"mixed-spill": mixed,
		"int64":       ints,
		"float64":     floats,
		"string":      strs,
		"empty":       nil,
		"single-key":  singleKey,
		"big":         big,
	}
}

// TestBatchRoundTripIdentity: the identity partition (every row to bucket 0
// of 1) hands back the rows it was given — same order, same values, input
// untouched — and a batch rebuilt from that output reports the hashes and
// key sums the first one did.
func TestBatchRoundTripIdentity(t *testing.T) {
	var scr record.Scratch
	for name, rs := range batchCorpora() {
		t.Run(name, func(t *testing.T) {
			input := slices.Clone(rs)
			b := record.FromRecords(rs)
			pb := b.PartitionStable(make([]int32, len(rs)), 1, &scr)
			scr.Reset()
			if !reflect.DeepEqual(rs, input) {
				t.Fatalf("the round trip mutated its input rows")
			}
			out := make([]record.Record, len(pb.Perm))
			for j, i := range pb.Perm {
				if int(i) != j {
					t.Fatalf("identity partition moved row %d to position %d", i, j)
				}
				out[j] = pb.Rows[i]
			}
			if len(out) != len(rs) || (len(rs) > 0 && !reflect.DeepEqual(out, rs)) {
				t.Fatalf("identity partition changed the rows:\n got %v\nwant %v", out, rs)
			}
			b2 := record.FromRecords(out)
			if b2.Len() != b.Len() {
				t.Fatalf("round-trip Len = %d, want %d", b2.Len(), b.Len())
			}
			for i := 0; i < b.Len(); i++ {
				if b2.Hash32(i) != b.Hash32(i) {
					t.Fatalf("round-trip Hash32(%d) changed", i)
				}
				if b2.KeySumRange(i, i+1) != b.KeySumRange(i, i+1) {
					t.Fatalf("round-trip KeySumRange(%d,%d) changed", i, i+1)
				}
			}
			if got, want := b2.KeySumRange(0, b2.Len()), b.KeySumRange(0, b.Len()); got != want {
				t.Fatalf("round-trip key sum changed: %#x != %#x", got, want)
			}
		})
	}
}

func TestBatchMatchesRowPaths(t *testing.T) {
	for name, rs := range batchCorpora() {
		t.Run(name, func(t *testing.T) {
			b := record.FromRecords(rs)
			if b.Len() != len(rs) {
				t.Fatalf("Len = %d, want %d", b.Len(), len(rs))
			}
			for i, r := range rs {
				f := fnv.New32a()
				f.Write([]byte(r.Key))
				if b.Hash32(i) != f.Sum32() || record.Hash32(r.Key) != f.Sum32() {
					t.Fatalf("Hash32(%d) diverges from hash/fnv", i)
				}
			}
			// KeySumRange over every sub-range matches the per-record checksum.
			for lo := 0; lo <= len(rs); lo++ {
				for hi := lo; hi <= len(rs); hi++ {
					if got, want := b.KeySumRange(lo, hi), record.KeySum64(rs[lo:hi]); got != want {
						t.Fatalf("KeySumRange(%d,%d) = %#x, want %#x", lo, hi, got, want)
					}
				}
			}
		})
	}
}

// TestKeySum64DetectsEveryChange holds the bucket checksum to what the
// store relies on it for. Over seeded buckets whose keys are 0–17 bytes long
// (every tail size, below, at and past the 8-byte word), each of these must
// change the sum: flipping any bit of any key byte, moving a byte across a
// key boundary ("ab","c" against "a","bc"), growing or shrinking a key by a
// zero byte at its end, and dropping the last record. KeySumRange over the
// bucket's slab agrees with KeySum64 on every sub-range.
func TestKeySum64DetectsEveryChange(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	key := func(n int) string {
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	var buckets [][]string
	for n := 0; n <= 17; n++ {
		// A bucket of one key length, and one mixing it with its neighbours.
		buckets = append(buckets,
			[]string{key(n), key(n), key(n)},
			[]string{key(n), key((n + 1) % 18), key(n), key(17 - n)})
	}
	for _, keys := range buckets {
		rs := recordsOf(keys)
		sum := record.KeySum64(rs)
		changed := func(what string, edit func(keys []string)) {
			t.Helper()
			cp := slices.Clone(keys)
			edit(cp)
			if record.KeySum64(recordsOf(cp)) == sum {
				t.Fatalf("keys %q: %s leaves the sum at %#x", keys, what, sum)
			}
		}
		for r, k := range keys {
			for j := 0; j < len(k); j++ {
				for bit := 0; bit < 8; bit++ {
					changed(fmt.Sprintf("flipping bit %d of key %d byte %d", bit, r, j), func(cp []string) {
						b := []byte(k)
						b[j] ^= 1 << bit
						cp[r] = string(b)
					})
				}
			}
			changed(fmt.Sprintf("appending a zero byte to key %d", r), func(cp []string) { cp[r] += "\x00" })
			if k != "" {
				changed(fmt.Sprintf("dropping key %d's last byte", r), func(cp []string) { cp[r] = k[:len(k)-1] })
			}
			if r+1 == len(keys) {
				continue
			}
			if next := keys[r+1]; k != "" {
				changed(fmt.Sprintf("moving key %d's last byte to key %d", r, r+1), func(cp []string) {
					cp[r], cp[r+1] = k[:len(k)-1], k[len(k)-1:]+next
				})
			}
			if next := keys[r+1]; next != "" {
				changed(fmt.Sprintf("moving key %d's first byte to key %d", r+1, r), func(cp []string) {
					cp[r], cp[r+1] = k+next[:1], next[1:]
				})
			}
		}
		if record.KeySum64(rs[:len(rs)-1]) == sum {
			t.Fatalf("keys %q: dropping the last record leaves the sum at %#x", keys, sum)
		}
		b := record.FromRecords(rs)
		for lo := 0; lo <= len(rs); lo++ {
			for hi := lo; hi <= len(rs); hi++ {
				if got, want := b.KeySumRange(lo, hi), record.KeySum64(rs[lo:hi]); got != want {
					t.Fatalf("keys %q: KeySumRange(%d,%d) = %#x, want %#x", keys, lo, hi, got, want)
				}
			}
		}
	}
	// The boundary case spelled out, and empty keys: one "" and two differ.
	for _, pair := range [][2][]string{{{"ab", "c"}, {"a", "bc"}}, {{""}, {"", ""}}, {{"", "a"}, {"a", ""}}} {
		if record.KeySum64(recordsOf(pair[0])) == record.KeySum64(recordsOf(pair[1])) {
			t.Fatalf("keys %q and %q sum alike", pair[0], pair[1])
		}
	}
}

func recordsOf(keys []string) []record.Record {
	rs := make([]record.Record, len(keys))
	for i, k := range keys {
		rs[i] = record.Record{Key: k}
	}
	return rs
}

// TestPartitionStableMatchesNaive holds the partition kernel to a naive
// stable append-bucketing on every pass count its radix sort can take: a
// routing with parts <= 4096, or with at least parts/2 rows, sorts in one
// counting pass; any other in passes of at most 8-bit digits (8000 and 65536
// parts in two, 65537 in three, 1<<24+1 in four). Each parts value runs with
// n on both sides of parts/2, except 1<<24+1, whose one-pass side would need
// 8 M rows. Keys are kernelKey's, empty, NUL-ended and long ones among them.
func TestPartitionStableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scr record.Scratch
	// Routings: "hash" scatters by key hash; "descending" sends runs of
	// consecutive rows to ever lower partitions, so buckets are first seen in
	// the reverse of their output order; "last" sends every row to the last
	// partition (one bucket); "ends" alternates the first and last partition,
	// so every digit of the partition id differs between the two buckets.
	cases := []struct {
		n, parts int
		route    string
	}{
		{0, 4, "hash"}, {1, 1, "hash"}, {64, 8, "hash"}, {500, 3, "hash"}, {64, 8, "descending"}, {500, 3, "last"},
		{0, 10000, "hash"}, {40, 10000, "hash"}, {3, 5000, "hash"}, {5000, 20000, "hash"}, {5000, 20000, "descending"},
		{2047, 4097, "hash"}, {2047, 4097, "descending"}, {2047, 4097, "last"}, {5000, 20000, "last"},
		{64, 1<<24 + 1, "hash"}, {3000, 1<<24 + 1, "descending"}, {64, 1<<24 + 1, "ends"},
	}
	for _, parts := range []int{256, 257, 4096, 4097, 8000, 65536, 65537} {
		for _, n := range []int{64, parts/2 - 1, parts/2 + 1, 2 * parts} {
			for _, route := range []string{"hash", "descending", "ends"} {
				cases = append(cases, struct {
					n, parts int
					route    string
				}{n, parts, route})
			}
		}
	}
	for _, tc := range cases {
		rs := make([]record.Record, tc.n)
		for i := range rs {
			rs[i] = record.Record{Key: kernelKey(rng, 200), Value: int64(i)}
		}
		idx := make([]int32, tc.n)
		for i := range idx {
			switch tc.route {
			case "hash":
				idx[i] = int32(int(record.Hash32(rs[i].Key)) % tc.parts)
			case "descending":
				idx[i] = int32(max(tc.parts-1-i/37, 0))
			case "last":
				idx[i] = int32(tc.parts - 1)
			case "ends":
				idx[i] = int32(i % 2 * (tc.parts - 1))
			}
		}
		checkPartitionRows(t, fmt.Sprintf("n=%d parts=%d %s", tc.n, tc.parts, tc.route), rs, idx, tc.parts, &scr)
	}
}

// FuzzPartitionRows holds the partition kernel to the naive stable
// append-bucketing on random rows, part counts and routings. The routing
// draws each row's partition from `distinct` partitions picked uniformly
// from [0, parts), so buckets hold one row or many; parts reaches past
// 1<<30, which takes four 8-bit passes. Keys are kernelKey's.
func FuzzPartitionRows(f *testing.F) {
	f.Add(int64(1), uint16(64), uint32(8000), uint8(255))
	f.Add(int64(2), uint16(64), uint32(8000), uint8(3))
	f.Add(int64(3), uint16(2049), uint32(4097), uint8(200))
	f.Add(int64(4), uint16(2048), uint32(4097), uint8(200))
	f.Add(int64(5), uint16(32768), uint32(65537), uint8(255))
	f.Add(int64(6), uint16(100), uint32(math.MaxInt32-1), uint8(7))
	f.Add(int64(7), uint16(0), uint32(1), uint8(0))
	f.Add(int64(8), uint16(500), uint32(256), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, parts uint32, distinct uint8) {
		nparts := 1 + int(parts%math.MaxInt32)
		if nparts <= 2*int(n) && nparts > 1<<17 {
			t.Skip("one counting pass over more than 128 Ki partitions")
		}
		rng := rand.New(rand.NewSource(seed))
		targets := make([]int32, 1+int(distinct))
		for i := range targets {
			targets[i] = int32(rng.Intn(nparts))
		}
		rs := make([]record.Record, n)
		idx := make([]int32, n)
		for i := range rs {
			rs[i] = record.Record{Key: kernelKey(rng, 1+int(n)), Value: int64(i)}
			idx[i] = targets[rng.Intn(len(targets))]
		}
		var scr record.Scratch
		checkPartitionRows(t, fmt.Sprintf("seed=%d n=%d parts=%d", seed, n, nparts), rs, idx, nparts, &scr)
	})
}

// kernelKey draws one of n short keys, or one time in eight each an empty
// key, a NUL-ended one or one longer than the checksum's 8-byte word.
func kernelKey(rng *rand.Rand, n int) string {
	k := fmt.Sprintf("k%d", rng.Intn(n))
	switch rng.Intn(8) {
	case 0:
		return ""
	case 1:
		return k + "\x00"
	case 2:
		return k + "-past-one-word"
	}
	return k
}

// checkPartitionRows runs the kernel over rs routed by idx and holds the
// result to a naive stable append-bucketing, which shares no code with it:
// the permutation, every span's bounds, raw bytes and checksum, the key slab
// (every bucket's keys in permutation order, from its span's Key on, the
// buckets back to back), the input left untouched and adopted rather than
// copied.
func checkPartitionRows(t *testing.T, name string, rs []record.Record, idx []int32, parts int, scr *record.Scratch) {
	t.Helper()
	n := len(rs)
	input := slices.Clone(rs)
	b := record.FromRecords(rs)
	pb := b.PartitionStable(idx, parts, scr)
	for i, h := range record.HashKeys(rs, scr) {
		if h != b.Hash32(i) {
			t.Fatalf("%s: HashKeys[%d] diverges from the batch's hash column", name, i)
		}
	}
	scr.Reset()
	if !slices.Equal(rs, input) {
		t.Fatalf("%s: the kernel mutated its input rows", name)
	}
	// The output adopts the input: no row is copied.
	if len(pb.Rows) != n || (n > 0 && &pb.Rows[0] != &rs[0]) {
		t.Fatalf("%s: %d output rows, not the %d input rows adopted", name, len(pb.Rows), n)
	}
	if len(pb.Perm) != n || pb.Perm == nil {
		t.Fatalf("%s: permutation of %d positions (nil %v) over %d rows", name, len(pb.Perm), pb.Perm == nil, n)
	}

	// Naive reference: stable bucketing by append.
	naive := make(map[int][]int32)
	for i := range rs {
		naive[int(idx[i])] = append(naive[int(idx[i])], int32(i))
	}
	var ps []int
	for p := range naive {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	if len(pb.Spans) != len(ps) {
		t.Fatalf("%s: %d spans, want %d", name, len(pb.Spans), len(ps))
	}
	ref := record.FromRecords(input) // the slab twin of the store's checksum
	next := int32(0)                 // spans tile [0, n): buckets are disjoint and gap-free
	key := 0                         // and their keys tile the slab the same way
	for si, p := range ps {
		sp := pb.Spans[si]
		if int(sp.Part) != p || sp.Lo != next || sp.Hi <= sp.Lo {
			t.Fatalf("%s: span %d = %+v, want part %d starting at position %d", name, si, sp, p, next)
		}
		next = sp.Hi
		if int(sp.Key) != key {
			t.Fatalf("%s: span %d's keys start at slab byte %d, want %d", name, si, sp.Key, key)
		}
		var keys strings.Builder
		for _, i := range naive[p] {
			keys.WriteString(input[i].Key)
		}
		if key += keys.Len(); key > len(pb.Keys) || pb.Keys[sp.Key:key] != keys.String() {
			t.Fatalf("%s: bucket %d's keys are not the slab's bytes from %d on", name, p, sp.Key)
		}
		// The bucket lists the naive one's rows in input order.
		if !slices.Equal(pb.Perm[sp.Lo:sp.Hi], naive[p]) {
			t.Fatalf("%s: bucket %d = rows %v, want %v", name, p, pb.Perm[sp.Lo:sp.Hi], naive[p])
		}
		bucket := make([]record.Record, 0, sp.Hi-sp.Lo)
		var raw int64
		for _, i := range naive[p] {
			bucket = append(bucket, input[i])
			raw += record.SizeOfRecord(input[i])
		}
		if sp.Bytes != raw {
			t.Fatalf("%s: bucket %d Bytes = %d, want %d", name, p, sp.Bytes, raw)
		}
		// The checksum the store stamps the bucket with.
		if want := record.KeySum64(bucket); sp.Sum != want {
			t.Fatalf("%s: bucket %d Sum = %#x, want %#x", name, p, sp.Sum, want)
		}
		// Where a bucket is a contiguous run of the input (one bucket, or
		// runs of a descending routing), the slab path agrees too. Input
		// positions ascend inside a bucket, so its first and last bound
		// such a run exactly when they are len-1 apart.
		if lo := int(pb.Perm[sp.Lo]); int(pb.Perm[sp.Hi-1]) == lo+int(sp.Hi-sp.Lo)-1 {
			if ref.KeySumRange(lo, lo+int(sp.Hi-sp.Lo)) != sp.Sum {
				t.Fatalf("%s: bucket %d Sum diverges from the slab checksum", name, p)
			}
		}
	}
	if int(next) != n {
		t.Fatalf("%s: spans end at position %d of %d", name, next, n)
	}
	if key != len(pb.Keys) || len(pb.Keys) != keyBytes(input) {
		t.Fatalf("%s: spans' keys end at slab byte %d of %d, want %d bytes, the keys' sum", name, key, len(pb.Keys), keyBytes(input))
	}
}

func keyBytes(rs []record.Record) int {
	n := 0
	for _, r := range rs {
		n += len(r.Key)
	}
	return n
}

// TestPartitionRowsPanicsPastInt32KeyBytes: span key offsets are int32, so a
// batch whose keys sum past MaxInt32 bytes is refused with a named error
// before anything is allocated. The rows share one 1 MiB key, so the test
// holds 2 GiB of key lengths in 1 MiB of memory.
func TestPartitionRowsPanicsPastInt32KeyBytes(t *testing.T) {
	key := strings.Repeat("k", 1<<20)
	rs := make([]record.Record, (math.MaxInt32+1)/len(key))
	for i := range rs {
		rs[i].Key = key
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, record.ErrKeySlabTooLarge) {
			t.Fatalf("PartitionRows over %d key bytes: panic %v, want ErrKeySlabTooLarge", len(rs)*len(key), err)
		}
	}()
	var scr record.Scratch
	record.PartitionRows(rs, make([]int32, len(rs)), 1, &scr)
	t.Fatal("PartitionRows accepted more key bytes than an int32 offset reaches")
}

// TestPartitionRowsCopiesNoRow caps the bytes one partition-kernel call
// allocates at the batch-join shape (25 k rows over 16 partitions, warm
// scratch): the permutation, 4 B a row, plus the key slab, the keys' bytes,
// plus the span table, 32 B a bucket, plus the header. A bucket-major copy of
// the rows would add 32 B a row. The runtime charges an allocation past 32 KiB
// whole 8 KiB pages, so the permutation's and the slab's shares are each
// rounded up to one.
func TestPartitionRowsCopiesNoRow(t *testing.T) {
	const n, parts, page = 25000, 16, 8192
	rs := make([]record.Record, n)
	idx := make([]int32, n)
	for i := range rs {
		rs[i] = record.Record{Key: fmt.Sprintf("key-%06d", i), Value: int64(i)}
		idx[i] = int32(record.Hash32(rs[i].Key) % parts)
	}
	var scr record.Scratch
	record.PartitionRows(rs, idx, parts, &scr) // warm the scratch
	scr.Reset()
	ceiling := uint64((4*n+page-1)/page*page + (keyBytes(rs)+page-1)/page*page + 32*parts + 256)
	best := ^uint64(0)
	var before, after runtime.MemStats
	for run := 0; run < 5; run++ {
		runtime.ReadMemStats(&before)
		pb := record.PartitionRows(rs, idx, parts, &scr)
		runtime.ReadMemStats(&after)
		scr.Reset()
		if len(pb.Spans) != parts {
			t.Fatalf("%d spans, want %d", len(pb.Spans), parts)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > ceiling {
		t.Fatalf("PartitionRows over %d rows: %d bytes allocated, ceiling %d", n, best, ceiling)
	}
}

func TestJoinRecordsEmptySides(t *testing.T) {
	rs := []record.Record{{Key: "k", Value: 1}}
	if out := record.JoinRecords(nil, rs); out != nil {
		t.Fatalf("join with empty left = %v, want nil", out)
	}
	if out := record.JoinRecords(rs, nil); out != nil {
		t.Fatalf("join with empty right = %v, want nil", out)
	}
}
