package record_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
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

func TestPartitionStableMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scr record.Scratch
	// Routings: "hash" scatters by key hash; "descending" sends runs of
	// consecutive rows to ever lower partitions, so buckets are first seen in
	// the reverse of their output order; "last" sends every row to the last
	// partition (one bucket).
	for _, tc := range []struct {
		n, parts int
		route    string
	}{
		{0, 4, "hash"}, {1, 1, "hash"}, {64, 8, "hash"}, {500, 3, "hash"}, {64, 8, "descending"}, {500, 3, "last"},
		// The sparse path (parts > 4096 and parts > 2n), a few rows and many
		// rows per bucket.
		{0, 10000, "hash"}, {40, 10000, "hash"}, {3, 5000, "hash"}, {5000, 20000, "hash"}, {5000, 20000, "descending"},
		{2047, 4097, "hash"}, {2047, 4097, "descending"}, {2047, 4097, "last"}, {5000, 20000, "last"},
	} {
		name := fmt.Sprintf("n=%d parts=%d %s", tc.n, tc.parts, tc.route)
		rs := make([]record.Record, tc.n)
		for i := range rs {
			rs[i] = record.Record{Key: fmt.Sprintf("k%04d", rng.Intn(200)), Value: int64(i)}
		}
		input := slices.Clone(rs)
		b := record.FromRecords(rs)
		idx := make([]int32, tc.n)
		for i := range idx {
			switch tc.route {
			case "hash":
				idx[i] = int32(int(b.Hash32(i)) % tc.parts)
			case "descending":
				idx[i] = int32(tc.parts - 1 - i/37)
			case "last":
				idx[i] = int32(tc.parts - 1)
			}
		}
		pb := b.PartitionStable(idx, tc.parts, &scr)
		for i, h := range record.HashKeys(rs, &scr) {
			if h != b.Hash32(i) {
				t.Fatalf("%s: HashKeys[%d] diverges from the batch's hash column", name, i)
			}
		}
		scr.Reset()
		if !slices.Equal(rs, input) {
			t.Fatalf("%s: the kernel mutated its input rows", name)
		}
		// The output adopts the input: no row is copied.
		if len(pb.Rows) != tc.n || (tc.n > 0 && &pb.Rows[0] != &rs[0]) {
			t.Fatalf("%s: %d output rows, not the %d input rows adopted", name, len(pb.Rows), tc.n)
		}
		if len(pb.Perm) != tc.n || pb.Perm == nil {
			t.Fatalf("%s: permutation of %d positions (nil %v) over %d rows", name, len(pb.Perm), pb.Perm == nil, tc.n)
		}

		// Naive reference: stable bucketing by append.
		naive := make(map[int][]record.Record)
		for i, r := range rs {
			naive[int(idx[i])] = append(naive[int(idx[i])], r)
		}
		var parts []int
		for p := range naive {
			parts = append(parts, p)
		}
		sort.Ints(parts)
		if len(pb.Spans) != len(parts) {
			t.Fatalf("%s: %d spans, want %d", name, len(pb.Spans), len(parts))
		}
		ref := record.FromRecords(input) // the slab twin of the store's checksum
		next := int32(0)                 // spans tile [0, n): buckets are disjoint and gap-free
		for si, p := range parts {
			sp := pb.Spans[si]
			if int(sp.Part) != p || sp.Lo != next || sp.Hi <= sp.Lo {
				t.Fatalf("%s: span %d = %+v, want part %d starting at position %d", name, si, sp, p, next)
			}
			next = sp.Hi
			// Read through the permutation, the bucket equals the naive one
			// element by element: input order survives inside the bucket
			// (values are the input positions).
			got := make([]record.Record, 0, sp.Hi-sp.Lo)
			for _, i := range pb.Perm[sp.Lo:sp.Hi] {
				got = append(got, pb.Rows[i])
			}
			if !reflect.DeepEqual(got, naive[p]) {
				t.Fatalf("%s: bucket %d rows differ", name, p)
			}
			var raw int64
			for _, r := range naive[p] {
				raw += record.SizeOfRecord(r)
			}
			if sp.Bytes != raw {
				t.Fatalf("%s: bucket %d Bytes = %d, want %d", name, p, sp.Bytes, raw)
			}
			// The checksum the store stamps the bucket with.
			if want := record.KeySum64(naive[p]); sp.Sum != want || record.KeySum64(got) != want {
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
		if int(next) != tc.n {
			t.Fatalf("%s: spans end at position %d of %d", name, next, tc.n)
		}
	}
}

// TestPartitionRowsCopiesNoRow caps the bytes one partition-kernel call
// allocates at the batch-join shape (25 k rows over 16 partitions, warm
// scratch): the permutation, 4 B a row, plus the span table, 32 B a bucket,
// plus the header. A bucket-major copy of the rows would add 32 B a row. The
// runtime charges an allocation past 32 KiB whole 8 KiB pages, so the
// permutation's share is rounded up to one.
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
	ceiling := uint64((4*n+page-1)/page*page + 32*parts + 256)
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
