package record

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"stark/internal/arena"
)

// FNV-1a constants for the hashes that must track hash/fnv exactly:
// Hash32 is the FNV-32a partition.Hash routes on (fnv.New32a), and
// Fingerprint's FNV-64a is the copy-on-write check and the bench digest.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeySum64's word fold: a seed and an odd, bit-dense multiplier (2^64/φ).
const (
	sumSeed  = fnvOffset64
	sumPrime = 0x9e3779b97f4a7c15
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
// map side and rdd.Sample share.
func Hash32(s string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// KeySum64 is the storage block checksum, and its one implementation: the
// partition kernel stamps every shuffle bucket with it, the store verifies
// every bucket and checkpoint block with it, and Batch.KeySumRange computes
// it off a key slab. It folds every key eight bytes a step (see mixKey),
// then the record count in one step.
//
// Every step maps the state through a bijection (xor a word, multiply by an
// odd constant, rotate), and each step's word is an injective encoding of
// its bytes, so any single changed key byte, and any key-length change that
// keeps the number of whole words, always changes the sum. The sum catches
// injected corruption deterministically; it is not built to survive
// adversarial collisions.
func KeySum64(rs []Record) uint64 {
	h := uint64(sumSeed)
	for i := range rs {
		h = mixKey(h, rs[i].Key)
	}
	return sumStep(h, uint64(len(rs)))
}

// sumStep folds one 64-bit word into a KeySum64 state.
func sumStep(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*sumPrime, 31)
}

// mixKey folds one key into a KeySum64 state: one step per whole 8-byte
// little-endian word, then one for the tail, whose up to 7 bytes load in at
// most three pieces (4, 2, 1) under the key's length in the top byte. The
// tail step always runs, so it also ends the key: "ab","c" and "a","bc" fold
// different words.
func mixKey(h uint64, key string) uint64 {
	w := uint64(len(key)) << 56
	for ; len(key) >= 8; key = key[8:] {
		h = sumStep(h, uint64(key[0])|uint64(key[1])<<8|uint64(key[2])<<16|uint64(key[3])<<24|
			uint64(key[4])<<32|uint64(key[5])<<40|uint64(key[6])<<48|uint64(key[7])<<56)
	}
	var shift uint
	if len(key) >= 4 {
		w |= uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24
		key, shift = key[4:], 32
	}
	if len(key) >= 2 {
		w |= (uint64(key[0]) | uint64(key[1])<<8) << shift
		key, shift = key[2:], shift+16
	}
	if len(key) == 1 {
		w |= uint64(key[0]) << shift
	}
	return sumStep(h, w)
}

// Batch is the slab/offset/hash view of one partition's rows that the layer
// benchmark times: its only caller outside tests is bench/layers.go, which
// compiles against exactly FromRecords, Len, Hash32, KeySumRange and
// PartitionStable. The engine's data plane is rows end to end — a map task
// hashes with HashKeys and routes with PartitionRows, which also sums and
// lays out each bucket's keys; the store verifies the sums as it builds its
// reduce-major rows — so nothing here is on a production path, and the tests
// hold each method bit-equal to the row function the engine does call.
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
	h := uint64(sumSeed)
	for i := lo; i < hi; i++ {
		h = mixKey(h, b.keys[b.offs[i]:b.offs[i+1]])
	}
	return sumStep(h, uint64(hi-lo))
}

// Scratch bundles the arena pools the batch kernels carve their transient
// tables from. The engine keeps one Scratch per plane context and resets it
// at the batch boundary; standalone callers may use a zero Scratch.
type Scratch struct {
	I32 arena.Pool[int32]
	U32 arena.Pool[uint32]
}

// Reset reclaims all scratch memory taken since the last reset.
func (s *Scratch) Reset() {
	s.I32.Reset()
	s.U32.Reset()
}

// Span describes one shuffle bucket of a partitioned batch: the rows
// Rows[Perm[Lo]], ..., Rows[Perm[Hi-1]] belong to reduce partition Part, in
// that order, their keys back to back in the batch's Keys from offset Key
// on. The kernel sets Bytes to the unscaled sum of SizeOfRecord over them,
// which the engine then prices in place (cluster byte scaling plus slice
// overhead), and Sum to their KeySum64 — the checksum the store verifies the
// bucket with. 32 B (Key sits in what would be padding), no pointers.
type Span struct {
	Part   int32
	Lo, Hi int32
	Key    int32
	Bytes  int64
	Sum    uint64
}

// PartitionedBatch is one map task's shuffle output as a routing, not a
// copy: Rows is the task's own row slice, adopted unwritten; Perm lists it
// bucket-major (Perm[j] is the row at bucket-major position j, input order
// kept inside each bucket); Keys is every row's key in that same order, one
// slab the store's reduce-side rows alias; Spans describes each non-empty
// bucket. Storage adopts all four as they are, so none may be written once
// committed — Rows included, which makes a committed output pin whatever the
// task read (a source partition, a cached block, an earlier shuffle's reduce
// view) besides its slab.
type PartitionedBatch struct {
	Rows  []Record
	Perm  []int32
	Keys  string
	Spans []Span
}

// ErrKeySlabTooLarge is what PartitionRows panics with when a batch's key
// bytes do not fit the int32 offsets of its spans.
var ErrKeySlabTooLarge = errors.New("record: partitioned batch key bytes exceed MaxInt32")

// A routing sorts in one counting pass over an nparts-entry table unless it
// has more than onePassParts partitions and fewer rows than half of them;
// then it sorts in passes of at most maxDigitBits-bit digits, so a wide
// shuffle's map task (64 rows over 8000 partitions) takes two passes over
// 128-entry tables instead of touching 8000 counters.
const (
	onePassParts = 4096
	maxDigitBits = 8
)

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
// raw Bytes and its KeySum64, and copies each key into the key slab in that
// order — so the checksum and the reduce-side key layout are made on the
// data plane, where the task runs and reads the keys anyway, and the store
// only re-points rows at them. The rows are neither copied nor written: the
// result adopts rs. All transient tables come from scr; only Perm (4 B a
// row), the slab, the span table (32 B a bucket) and the header escape. It
// panics with ErrKeySlabTooLarge if the key bytes exceed MaxInt32.
//
//starklint:hotpath
func PartitionRows(rs []Record, idx []int32, nparts int, scr *Scratch) *PartitionedBatch {
	keyBytes := 0
	for i := range rs {
		keyBytes += len(rs[i].Key)
	}
	if keyBytes > math.MaxInt32 {
		panic(fmt.Errorf("%w: %d bytes in %d keys", ErrKeySlabTooLarge, keyBytes, len(rs)))
	}
	perm := make([]int32, len(rs))
	occupied := routeRows(perm, idx, nparts, scr)
	spans := make([]Span, 0, occupied)
	var keys strings.Builder
	keys.Grow(keyBytes)
	for j, i := range perm {
		r := &rs[i]
		if p := idx[i]; len(spans) == 0 || spans[len(spans)-1].Part != p {
			spans = append(spans, Span{Part: p, Lo: int32(j), Key: int32(keys.Len()), Sum: sumSeed})
		}
		sp := &spans[len(spans)-1]
		sp.Hi = int32(j + 1)
		sp.Bytes += SizeOfRecord(*r)
		sp.Sum = mixKey(sp.Sum, r.Key)
		keys.WriteString(r.Key)
	}
	for s := range spans {
		spans[s].Sum = sumStep(spans[s].Sum, uint64(spans[s].Hi-spans[s].Lo))
	}
	return &PartitionedBatch{Rows: rs, Perm: perm, Keys: keys.String(), Spans: spans}
}

// routeRows fills perm with the stable bucket-major order of idx's rows
// (perm[j] = source row of position j; buckets contiguous and ascending) and
// returns the number of non-empty buckets. It is an LSD radix sort on the
// partition id: each pass is a stable counting sort on one digit, read from
// the previous pass's order, and the last pass lands in perm. Its tables
// come from scr.
func routeRows(perm, idx []int32, nparts int, scr *Scratch) (occupied int) {
	n := len(idx)
	width := bits.Len(uint(max(nparts, 1) - 1))
	passes := 1
	if nparts > onePassParts && nparts > 2*n {
		passes = (width + maxDigitBits - 1) / maxDigitBits
		width = (width + passes - 1) / passes
	}
	mask := int32(1)<<width - 1
	bufs := [2][]int32{perm, perm}
	if passes > 1 {
		bufs[1] = scr.I32.Take(n)
	}
	var src []int32 // nil: input order
	for pass := 0; pass < passes; pass++ {
		shift := pass * width
		dst := bufs[(passes-1-pass)%2]
		size := min(1<<width, (nparts-1)>>shift+1)
		starts := scr.I32.Take(size + 1)
		for _, p := range idx {
			starts[p>>shift&mask+1]++
		}
		occupied = 0
		for d := 0; d < size; d++ {
			if starts[d+1] > 0 {
				occupied++
			}
			starts[d+1] += starts[d]
		}
		if src == nil {
			for i, p := range idx {
				d := p >> shift & mask
				dst[starts[d]] = int32(i)
				starts[d]++
			}
		} else {
			for _, i := range src {
				d := idx[i] >> shift & mask
				dst[starts[d]] = i
				starts[d]++
			}
		}
		src = dst
	}
	if passes > 1 {
		// The last pass counted top digits, not partitions.
		occupied = 0
		for j, i := range perm {
			if j == 0 || idx[i] != idx[perm[j-1]] {
				occupied++
			}
		}
	}
	return occupied
}
