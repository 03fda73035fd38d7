// Package partition implements the partitioners the paper's five evaluated
// configurations rely on (Sec. IV-A):
//
//   - HashPartitioner — Spark's default; shared across RDDs it gives
//     co-partitioning (Spark-H / Stark-H).
//   - RangePartitioner — boundaries fitted to one RDD's key sample; a new
//     one per RDD balances each RDD individually but destroys
//     co-partitioning (Spark-R).
//   - StaticRangePartitioner — range boundaries fixed once and reused across
//     the whole collection (Stark-S), preserving co-partitioning at the cost
//     of skew sensitivity.
//
// Stark-E ("extendable") keeps one of these fine-grained partitioners fixed
// (many small partitions) and layers partition groups on top — see
// internal/group; elasticity never changes the key→partition mapping, which
// is the paper's central trick for shuffle-free rebalancing.
package partition

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Partitioner maps record keys to partition indices, exactly like Spark's
// Partitioner#getPartition.
type Partitioner interface {
	// NumPartitions reports how many partitions the partitioner produces.
	NumPartitions() int
	// PartitionFor maps a key to a partition index in [0, NumPartitions).
	PartitionFor(key string) int
	// Equivalent reports whether other is guaranteed to produce identical
	// key→partition assignments; co-partitioning checks use it to decide
	// narrow vs shuffle dependencies.
	Equivalent(other Partitioner) bool
	// Describe returns a short human-readable description for logs.
	Describe() string
}

// Hash is Spark's default HashPartitioner.
type Hash struct {
	n int
}

// NewHash returns a hash partitioner over n partitions. It panics for n < 1,
// which is a static configuration error.
func NewHash(n int) Hash {
	if n < 1 {
		panic(fmt.Sprintf("partition: hash partitioner needs n >= 1, got %d", n))
	}
	return Hash{n: n}
}

// NumPartitions implements Partitioner.
func (h Hash) NumPartitions() int { return h.n }

// PartitionFor implements Partitioner.
func (h Hash) PartitionFor(key string) int {
	f := fnv.New32a()
	_, _ = f.Write([]byte(key))
	return int(f.Sum32() % uint32(h.n))
}

// PartitionForHash maps a precomputed FNV-32a key hash to its partition,
// bit-identical to PartitionFor on the hashed key. The shuffle map side
// hashes a task's keys once (record.HashKeys) and routes through this instead
// of building a hash.Hash32 per record.
func (h Hash) PartitionForHash(sum uint32) int { return int(sum % uint32(h.n)) }

// Equivalent implements Partitioner.
func (h Hash) Equivalent(other Partitioner) bool {
	o, ok := other.(Hash)
	return ok && o.n == h.n
}

// Describe implements Partitioner.
func (h Hash) Describe() string { return fmt.Sprintf("hash(%d)", h.n) }

// Range partitions keys by sorted boundary cut points, like Spark's
// RangePartitioner. Partition i holds keys in (bound[i-1], bound[i]], with
// the first partition open below and the last open above.
type Range struct {
	bounds []string // len n-1 upper bounds, sorted
	// common is the longest prefix every bound shares, and prefixes holds
	// each bound's next 8 bytes after it, big-endian and zero-padded, so a
	// probe compares a word and falls back to the strings only on a tie.
	// Fixed-width keys such as Z-codes share their leading digits, which a
	// word of the first 8 bytes could never tell apart.
	common   string
	prefixes []uint64
	id       uint64 // distinguishes independently fitted partitioners
}

// newRange builds a Range over sorted bounds.
func newRange(bounds []string, id uint64) Range {
	common := ""
	if len(bounds) > 0 {
		common = bounds[0]
	}
	for _, b := range bounds {
		n := 0
		for n < len(common) && n < len(b) && common[n] == b[n] {
			n++
		}
		common = common[:n]
	}
	prefixes := make([]uint64, len(bounds))
	for i, b := range bounds {
		prefixes[i] = prefix8(b[len(common):])
	}
	return Range{bounds: bounds, common: common, prefixes: prefixes, id: id}
}

// prefix8 packs s's first 8 bytes big-endian, zero-padded. Two strings
// whose prefixes differ compare as their prefixes do.
func prefix8(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7])
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (56 - 8*i)
	}
	return w
}

var rangeSeq uint64

// NewRange fits boundaries to the given key sample so each of the n
// partitions receives roughly the same number of sampled keys. Each call
// yields a distinct partitioner identity: two Range partitioners are
// Equivalent only if they share boundaries, mirroring Spark-R's behaviour
// where every RDD's RangePartitioner forces a reshuffle.
func NewRange(sample []string, n int) Range {
	if n < 1 {
		panic(fmt.Sprintf("partition: range partitioner needs n >= 1, got %d", n))
	}
	keys := make([]string, len(sample))
	copy(keys, sample)
	sort.Strings(keys)
	bounds := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		idx := i * len(keys) / n
		if idx >= len(keys) {
			idx = len(keys) - 1
		}
		if len(keys) == 0 {
			break
		}
		b := keys[idx]
		if len(bounds) > 0 && bounds[len(bounds)-1] >= b {
			continue // collapse duplicate boundaries
		}
		bounds = append(bounds, b)
	}
	rangeSeq++
	return newRange(bounds, rangeSeq)
}

// NewStaticRange builds a range partitioner from explicit boundaries. Two
// static range partitioners with equal boundaries are Equivalent, so RDDs
// partitioned with the same static boundaries are co-partitioned (Stark-S).
func NewStaticRange(bounds []string) Range {
	b := make([]string, len(bounds))
	copy(b, bounds)
	sort.Strings(b)
	return newRange(b, 0)
}

// UniformBounds produces n-1 evenly spaced single-byte-prefix boundaries
// over the printable key space; convenient for static partitioners over
// uniformly distributed keys.
func UniformBounds(n int) []string {
	bounds := make([]string, 0, n-1)
	const lo, hi = 0x20, 0x7f
	for i := 1; i < n; i++ {
		c := byte(lo + i*(hi-lo)/n)
		bounds = append(bounds, string([]byte{c}))
	}
	return bounds
}

// HexBounds produces n-1 boundaries uniform over fixed-width lowercase hex
// keys of the given width (e.g. Z-order keys rendered by zorder.Key).
// n must be a power of two dividing 16^width.
func HexBounds(n, width int) []string {
	bounds := make([]string, 0, n-1)
	total := 1.0
	for i := 0; i < width; i++ {
		total *= 16
	}
	for i := 1; i < n; i++ {
		frac := float64(i) / float64(n)
		v := uint64(frac * total)
		bounds = append(bounds, fmt.Sprintf("%0*x", width, v))
	}
	return bounds
}

// NumPartitions implements Partitioner.
func (r Range) NumPartitions() int { return len(r.bounds) + 1 }

// PartitionFor implements Partitioner. The first boundary >= key marks the
// partition (keys equal to a boundary stay in the lower partition, matching
// the fitted quantiles); the binary search is written out, so a probe calls
// no closure, and compares the 8 bytes after the bounds' common prefix
// before the strings.
func (r Range) PartitionFor(key string) int {
	n := len(r.common)
	if len(key) < n || key[:n] != r.common {
		// The key leaves the common prefix, so it sorts below every bound or
		// above every one.
		if key < r.common {
			return 0
		}
		return len(r.bounds)
	}
	kp := prefix8(key[n:])
	lo, hi := 0, len(r.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bp := r.prefixes[m]; bp < kp || bp == kp && r.bounds[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Equivalent implements Partitioner.
func (r Range) Equivalent(other Partitioner) bool {
	o, ok := other.(Range)
	if !ok || len(o.bounds) != len(r.bounds) {
		return false
	}
	if r.id != o.id {
		return false
	}
	for i := range r.bounds {
		if r.bounds[i] != o.bounds[i] {
			return false
		}
	}
	return true
}

// Describe implements Partitioner.
func (r Range) Describe() string {
	if r.id == 0 {
		return fmt.Sprintf("static-range(%d)", r.NumPartitions())
	}
	return fmt.Sprintf("range#%d(%d)", r.id, r.NumPartitions())
}

var (
	_ Partitioner = Hash{}
	_ Partitioner = Range{}
)
