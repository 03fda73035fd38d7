package record

import (
	"slices"
	"strings"

	"stark/internal/arena"
)

// FNV-1a constants shared by the slab hashers. They must track hash/fnv
// exactly: partition.Hash uses fnv.New32a and storage block checksums use
// fnv.New64a, and the batch's amortized hashes have to be bit-identical to
// what those per-record paths produce.
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

func fnv32aString(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// KeySum64 is the allocation-free twin of the storage package's block
// checksum: FNV-64a over every key followed by a 0xff separator, then the
// record count as 8 little-endian bytes. storage delegates here so the
// per-record and batch-slab paths can never drift.
func KeySum64(rs []Record) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range rs {
		for i := 0; i < len(r.Key); i++ {
			h = (h ^ uint64(r.Key[i])) * fnvPrime64
		}
		h = (h ^ 0xff) * fnvPrime64
	}
	return mixInt64(h, len(rs))
}

// ColKind tags the typed value column a batch carries. A batch whose values
// are uniformly int64 / float64 / string gets the matching typed column; any
// other mix spills to the boxed []any column.
type ColKind uint8

const (
	// ColSpill is the boxed fallback column for mixed or uncommon value
	// types.
	ColSpill ColKind = iota
	// ColInt64 marks a uniform []int64 value column.
	ColInt64
	// ColFloat64 marks a uniform []float64 value column.
	ColFloat64
	// ColString marks a uniform []string value column.
	ColString
)

// Batch is a columnar view of one partition's records: a contiguous
// key-bytes slab with offsets, per-key FNV hashes computed in one amortized
// pass, and a memoized byte size. The row form ([]Record) stays canonical —
// a batch built by FromRecords adopts the row slice copy-on-write, so
// Records() is zero-alloc and values are never re-boxed at API boundaries.
// Typed value columns (int64/float64/string with a boxed spill) are derived
// lazily for kernels that want them.
//
// Batches follow the engine's COW contract: neither the adopted rows nor any
// slice returned by a Batch method may be mutated once shared.
type Batch struct {
	keys string   // concatenated key bytes
	offs []int32  // len n+1; key i is keys[offs[i]:offs[i+1]]
	hash []uint32 // FNV-32a per key, matches partition.Hash.PartitionFor
	recs []Record // canonical rows (nil only after WithoutRows, for tests)

	bytes int64   // memoized SizeOfSlice equivalent
	sizes []int64 // lazy per-record SizeOfRecord

	kind     ColKind
	colsDone bool
	ints     []int64
	floats   []float64
	strs     []string
	spill    []any
}

// FromRecords builds a batch over rs in one pass: key slab, offsets, FNV-32a
// hashes, and the exact SizeOfSlice byte total. The row slice is adopted
// (not copied) under the copy-on-write contract.
//
//starklint:hotpath
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
	bytes := int64(sliceOverhead)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		r := rs[i]
		sb.WriteString(r.Key)
		offs[i+1] = offs[i] + int32(len(r.Key))
		hash[i] = fnv32aString(r.Key)
		sz := recordOverhead + stringOverhead + int64(len(r.Key)) + SizeOf(r.Value)
		sizes[i] = sz
		bytes += sz
	}
	return &Batch{keys: sb.String(), offs: offs, hash: hash, recs: rs, bytes: bytes, sizes: sizes}
}

// Len reports the number of records.
func (b *Batch) Len() int { return len(b.offs) - 1 }

// Key returns record i's key as a zero-copy substring of the slab.
func (b *Batch) Key(i int) string { return b.keys[b.offs[i]:b.offs[i+1]] }

// Hash32 returns the FNV-32a hash of record i's key, bit-identical to
// hashing the key through hash/fnv as partition.Hash does.
func (b *Batch) Hash32(i int) uint32 { return b.hash[i] }

// Bytes returns the memoized SizeOfSlice of the batch's rows. Shuffle and
// cache accounting read this instead of re-walking the partition.
func (b *Batch) Bytes() int64 { return b.bytes }

// Sizes returns the per-record SizeOfRecord column.
func (b *Batch) Sizes() []int64 { return b.sizes }

// Records returns the canonical row view without copying or re-boxing. If
// the rows were stripped (WithoutRows), they are rebuilt from the columns —
// the only path that re-boxes values.
func (b *Batch) Records() []Record {
	if b.recs != nil || b.Len() == 0 {
		return b.recs
	}
	n := b.Len()
	rs := make([]Record, n)
	for i := 0; i < n; i++ {
		rs[i].Key = b.Key(i)
		switch b.kind {
		case ColInt64:
			rs[i].Value = b.ints[i]
		case ColFloat64:
			rs[i].Value = b.floats[i]
		case ColString:
			rs[i].Value = b.strs[i]
		default:
			rs[i].Value = b.spill[i]
		}
	}
	b.recs = rs
	return rs
}

// ToRecords is Records under the name the round-trip property uses:
// FromRecords(ToRecords(b)) must be identical to b observably (keys, hashes,
// bytes, fingerprint).
func (b *Batch) ToRecords() []Record { return b.Records() }

// Columnize derives the typed value column (or the boxed spill column) from
// the rows and reports the batch's column kind. It is lazy and memoized;
// kernels that can exploit unboxed values call it, everything else never
// pays for it.
func (b *Batch) Columnize() ColKind {
	if b.colsDone {
		return b.kind
	}
	b.colsDone = true
	rs := b.Records()
	n := len(rs)
	if n == 0 {
		b.kind = ColSpill
		return b.kind
	}
	switch rs[0].Value.(type) {
	case int64:
		col := make([]int64, n)
		for i, r := range rs {
			v, ok := r.Value.(int64)
			if !ok {
				b.spillColumn(rs)
				return b.kind
			}
			col[i] = v
		}
		b.kind, b.ints = ColInt64, col
	case float64:
		col := make([]float64, n)
		for i, r := range rs {
			v, ok := r.Value.(float64)
			if !ok {
				b.spillColumn(rs)
				return b.kind
			}
			col[i] = v
		}
		b.kind, b.floats = ColFloat64, col
	case string:
		col := make([]string, n)
		for i, r := range rs {
			v, ok := r.Value.(string)
			if !ok {
				b.spillColumn(rs)
				return b.kind
			}
			col[i] = v
		}
		b.kind, b.strs = ColString, col
	default:
		b.spillColumn(rs)
	}
	return b.kind
}

func (b *Batch) spillColumn(rs []Record) {
	col := make([]any, len(rs))
	for i, r := range rs {
		col[i] = r.Value
	}
	b.kind, b.spill = ColSpill, col
}

// Float64s returns the typed column after Columnize reported ColFloat64.
func (b *Batch) Float64s() []float64 { return b.floats }

// Strings returns the typed column after Columnize reported ColString.
func (b *Batch) Strings() []string { return b.strs }

// WithoutRows returns a copy of the batch with the row view dropped, forcing
// Records() down the column-materialization path. Tests use it to exercise
// re-boxing; the engine never does.
func (b *Batch) WithoutRows() *Batch {
	b.Columnize()
	cp := *b
	cp.recs = nil
	return &cp
}

// KeySumRange computes the storage block checksum of rows [lo, hi) straight
// off the key slab — bit-identical to KeySum64(rows[lo:hi]) with zero
// allocations and no per-record byte-slice conversions.
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

// Fingerprint hashes the batch's observable shape off the slab, bit-exact
// with Fingerprint over its rows.
func (b *Batch) Fingerprint() uint64 {
	n := b.Len()
	h := mixInt64(fnvOffset64, n)
	for i := 0; i < n; i++ {
		for j := b.offs[i]; j < b.offs[i+1]; j++ {
			h = (h ^ uint64(b.keys[j])) * fnvPrime64
		}
		h = (h ^ 0) * fnvPrime64
	}
	return h
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

// Span describes one shuffle bucket inside a partitioned batch: rows
// [Lo, Hi) of the reordered batch belong to reduce partition Part. RawBytes
// is the unscaled sum of per-record sizes; Bytes is filled by the engine
// after applying cluster byte scaling and slice overhead.
type Span struct {
	Part     int
	Lo, Hi   int32
	RawBytes int64
	Bytes    int64
}

// PartitionedBatch is one map task's shuffle output: its rows reordered
// bucket-major plus the span table describing each non-empty bucket. Storage
// adopts the one backing row array and the spans as they are instead of
// copying per bucket, so neither may be written once committed.
type PartitionedBatch struct {
	Rows  []Record
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
		hash[i] = fnv32aString(rs[i].Key)
	}
	return hash
}

// PartitionStable reorders the batch's rows bucket-major by idx; see
// PartitionRows, which it calls with the batch's own rows.
//
//starklint:hotpath
func (b *Batch) PartitionStable(idx []int32, nparts int, scr *Scratch) *PartitionedBatch {
	return PartitionRows(b.Records(), idx, nparts, scr)
}

// PartitionRows is the shuffle map side's one partition kernel. Given rows
// and a routing (idx[i] = target partition of row i, in [0, nparts)), it
// builds the bucket-major rows, preserving input order within each bucket,
// plus the span of every non-empty bucket in ascending partition order with
// its RawBytes. The input rows are read, never written. All transient tables
// come from scr; only the rows and the span table escape (the store gathers
// key bytes itself, once per shuffle, in the order reducers read them).
//
//starklint:hotpath
func PartitionRows(rs []Record, idx []int32, nparts int, scr *Scratch) *PartitionedBatch {
	n := len(rs)
	// perm[j] = source row of output row j; buckets contiguous and ascending.
	perm := scr.I32.Take(n)
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

	out := make([]Record, n)
	spans := make([]Span, 0, occupied)
	for j, i := range perm {
		r := rs[i]
		out[j] = r
		p := int(idx[i])
		if len(spans) == 0 || spans[len(spans)-1].Part != p {
			spans = append(spans, Span{Part: p, Lo: int32(j)})
		}
		sp := &spans[len(spans)-1]
		sp.Hi = int32(j + 1)
		sp.RawBytes += SizeOfRecord(r)
	}
	return &PartitionedBatch{Rows: out, Spans: spans}
}
