package record

import (
	"slices"
	"strings"

	"stark/internal/arena"
)

// FNV-1a constants shared by the key hashers. They must track hash/fnv
// exactly: partition.Hash uses fnv.New32a and storage block checksums use
// fnv.New64a, and the allocation-free loops here have to be bit-identical to
// what those produce.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mixInt64 folds n into h as 8 little-endian bytes, one FNV-64a step each.
func mixInt64(h uint64, n int) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(n>>(8*i)))) * fnvPrime64
	}
	return h
}

// Hash32 is FNV-32a over the key's bytes with no allocation — the bits
// partition.Hash routes on (hash/fnv's New32a), and the one hash the shuffle
// map side, the co-group kernel and rdd.Sample share.
func Hash32(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// KeySum64 is the allocation-free twin of the storage package's block
// checksum: FNV-64a over every key followed by a 0xff separator, then the
// record count as 8 little-endian bytes. storage delegates here so the
// per-record, batch-slab and partition-kernel paths can never drift.
func KeySum64(rs []Record) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range rs {
		h = mixKey(h, r.Key)
	}
	return mixInt64(h, len(rs))
}

// mixKey folds one key and its 0xff separator into a KeySum64 state.
func mixKey(h uint64, key string) uint64 {
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64
}

// Batch is the slab/offset/hash view of one partition's rows that the layer
// benchmark times: its only caller outside tests is bench/layers.go, which
// compiles against exactly FromRecords, Len, Hash32, KeySumRange and
// PartitionStable. The engine's data plane is rows end to end — a map task
// hashes with HashKeys and routes with PartitionRows, which also sums each
// bucket with KeySum64; the store verifies those sums over its reduce-major
// rows — so nothing here is on a production path, and the tests hold each
// method bit-equal to the row function the engine does call.
type Batch struct {
	keys string   // concatenated key bytes
	offs []int32  // len n+1; key i is keys[offs[i]:offs[i+1]]
	hash []uint32 // Hash32 of each key
	recs []Record // the adopted rows, never written
}

// FromRecords builds a batch over rs in one pass: key slab, offsets and
// FNV-32a hashes. The row slice is adopted (not copied) under the
// copy-on-write contract.
//
//starklint:hotpath
//starklint:ignore unreachable bench/layers.go (record.* layer drivers)
func FromRecords(rs []Record) *Batch {
	n := len(rs)
	total := 0
	for i := 0; i < n; i++ {
		total += len(rs[i].Key)
	}
	var sb strings.Builder
	sb.Grow(total)
	offs := make([]int32, n+1)
	hash := make([]uint32, n)
	for i := 0; i < n; i++ {
		key := rs[i].Key
		sb.WriteString(key)
		offs[i+1] = offs[i] + int32(len(key))
		hash[i] = Hash32(key)
	}
	return &Batch{keys: sb.String(), offs: offs, hash: hash, recs: rs}
}

// Len reports the number of records.
//
//starklint:ignore unreachable bench/layers.go (record.* layer drivers)
func (b *Batch) Len() int { return len(b.offs) - 1 }

// Hash32 returns the FNV-32a hash of record i's key, bit-identical to
// hashing the key through hash/fnv as partition.Hash does.
//
//starklint:ignore unreachable bench/layers.go (record.* layer drivers)
func (b *Batch) Hash32(i int) uint32 { return b.hash[i] }

// KeySumRange computes the storage block checksum of rows [lo, hi) straight
// off the key slab — bit-identical to KeySum64(rows[lo:hi]) with zero
// allocations and no per-record byte-slice conversions.
//
//starklint:ignore unreachable bench/layers.go (record.keysum_ns_op)
func (b *Batch) KeySumRange(lo, hi int) uint64 {
	keys, offs := b.keys, b.offs
	h := uint64(fnvOffset64)
	for i := lo; i < hi; i++ {
		for j := offs[i]; j < offs[i+1]; j++ {
			h = (h ^ uint64(keys[j])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
	}
	return mixInt64(h, hi-lo)
}

// Scratch bundles the arena pools the batch kernels carve their transient
// tables from. The engine keeps one Scratch per plane context and resets it
// at the batch boundary; standalone callers may use a zero Scratch.
type Scratch struct {
	I32 arena.Pool[int32]
	I64 arena.Pool[int64]
	U32 arena.Pool[uint32]
}

// Reset reclaims all scratch memory taken since the last reset.
func (s *Scratch) Reset() {
	s.I32.Reset()
	s.I64.Reset()
	s.U32.Reset()
}

// Span describes one shuffle bucket of a partitioned batch: the rows
// Rows[Perm[Lo]], ..., Rows[Perm[Hi-1]] belong to reduce partition Part, in
// that order. The kernel sets Bytes to the unscaled sum of SizeOfRecord over
// them, which the engine then prices in place (cluster byte scaling plus
// slice overhead), and Sum to their KeySum64 — the checksum the store stamps
// the bucket with. 32 B, no pointers.
type Span struct {
	Part   int32
	Lo, Hi int32
	Bytes  int64
	Sum    uint64
}

// PartitionedBatch is one map task's shuffle output as a routing, not a
// copy: Rows is the task's own row slice, adopted unwritten; Perm lists it
// bucket-major (Perm[j] is the row at bucket-major position j, input order
// kept inside each bucket); Spans describes each non-empty bucket. Storage
// adopts all three as they are, so none may be written once committed —
// Rows included, which makes a committed output pin whatever the task read
// (a source partition, a cached block, an earlier shuffle's reduce view).
type PartitionedBatch struct {
	Rows  []Record
	Perm  []int32
	Spans []Span
}

// sparsePartitionThreshold mirrors the dense/sparse split the shuffle
// bucketer has used since PR 3: with far more target partitions than
// records, per-partition counting arrays cost more than sorting the handful
// of occupied buckets.
const sparsePartitionThreshold = 4096

// HashKeys returns the FNV-32a hash of every row's key — the bits
// partition.Hash.PartitionForHash routes on and Batch.Hash32 reports — in
// scratch memory that dies at scr's next Reset.
func HashKeys(rs []Record, scr *Scratch) []uint32 {
	hash := scr.U32.Take(len(rs))
	for i := range rs {
		hash[i] = Hash32(rs[i].Key)
	}
	return hash
}

// PartitionStable routes the batch's rows bucket-major by idx; see
// PartitionRows, which it calls with the batch's own rows (adopted by the
// result, as the batch adopted them).
//
//starklint:hotpath
//starklint:ignore unreachable bench/layers.go and bench/profile.go (record.partition_*, prof.record_partition_pct)
func (b *Batch) PartitionStable(idx []int32, nparts int, scr *Scratch) *PartitionedBatch {
	return PartitionRows(b.recs, idx, nparts, scr)
}

// PartitionRows is the shuffle map side's one partition kernel. Given rows
// and a routing (idx[i] = target partition of row i, in [0, nparts)), it
// derives the stable bucket-major permutation and, in the same pass over it,
// the span of every non-empty bucket in ascending partition order with its
// raw Bytes and its KeySum64 — so the checksum is computed on the data plane,
// where the task runs, and the store only copies it. The rows themselves are
// neither copied nor written: the result adopts rs. All transient tables
// come from scr; only Perm (4 B a row), the span table (32 B a bucket) and
// the header escape.
//
//starklint:hotpath
func PartitionRows(rs []Record, idx []int32, nparts int, scr *Scratch) *PartitionedBatch {
	n := len(rs)
	// perm[j] = source row of bucket-major position j; buckets contiguous and
	// ascending.
	perm := make([]int32, n)
	var occupied int
	if nparts > sparsePartitionThreshold && nparts > 2*n {
		// Sparse: sort packed part<<32|row integers instead of touching
		// O(nparts) counting arrays. The row number in the low word makes
		// every element distinct, so the order is stable by construction.
		packed := scr.I64.Take(n)
		for i, p := range idx {
			packed[i] = int64(p)<<32 | int64(i)
		}
		slices.Sort(packed)
		for j, v := range packed {
			perm[j] = int32(v) // low word: the row
			if j == 0 || v>>32 != packed[j-1]>>32 {
				occupied++
			}
		}
	} else {
		starts := scr.I32.Take(nparts + 1)
		for _, p := range idx {
			starts[p+1]++
		}
		for p := 0; p < nparts; p++ {
			if starts[p+1] > 0 {
				occupied++
			}
			starts[p+1] += starts[p]
		}
		for i, p := range idx {
			perm[starts[p]] = int32(i)
			starts[p]++
		}
	}

	spans := make([]Span, 0, occupied)
	for j, i := range perm {
		r := &rs[i]
		if p := idx[i]; len(spans) == 0 || spans[len(spans)-1].Part != p {
			spans = append(spans, Span{Part: p, Lo: int32(j), Sum: fnvOffset64})
		}
		sp := &spans[len(spans)-1]
		sp.Hi = int32(j + 1)
		sp.Bytes += SizeOfRecord(*r)
		sp.Sum = mixKey(sp.Sum, r.Key)
	}
	for s := range spans {
		spans[s].Sum = mixInt64(spans[s].Sum, int(spans[s].Hi-spans[s].Lo))
	}
	return &PartitionedBatch{Rows: rs, Perm: perm, Spans: spans}
}
