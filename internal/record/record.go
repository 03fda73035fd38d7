// Package record defines the key-value data model flowing through the
// engine, together with size estimation used for cache accounting, shuffle
// cost, and checkpoint cost. It mirrors Spark's PairRDD model: every record
// is a (key, value) pair, and multi-dataset transformations (cogroup, join)
// group values by key.
package record

import (
	"fmt"
	"os"
	"sync"
)

// Record is one key-value element of a dataset partition.
type Record struct {
	Key   string
	Value any
}

// Pair builds a record; it exists so call sites read as data, not struct
// literals.
func Pair(key string, value any) Record { return Record{Key: key, Value: value} }

// CoGrouped is the value type produced by CoGroup: one value slice per
// parent dataset, in parent order. A key missing from parent i has an empty
// Groups[i]. It points into a slab the kernel allocates once per call, so
// storing it in Record.Value does not box.
type CoGrouped = *CoGroupedSides

// CoGroupedSides is what a CoGrouped points to.
type CoGroupedSides struct {
	Groups [][]any
}

// String prints what %v printed when CoGrouped was a struct value.
func (c *CoGroupedSides) String() string { return fmt.Sprintf("{%v}", c.Groups) }

// Joined is the value type produced by Join: the cross-product element of
// the two parents' values for a key. It points into a slab the kernel
// allocates once per call, so storing it in Record.Value does not box.
type Joined = *JoinedPair

// JoinedPair is what a Joined points to.
type JoinedPair struct {
	Left  any
	Right any
}

// String prints what %v printed when Joined was a struct value.
func (j *JoinedPair) String() string { return fmt.Sprintf("{%v %v}", j.Left, j.Right) }

const (
	// recordOverhead approximates per-record object headers, pointers and
	// alignment in a JVM-like memory layout. The simulation multiplies
	// logical record counts by estimated bytes, so the constant only needs
	// to be plausible and consistent.
	recordOverhead = 32
	stringOverhead = 16
	sliceOverhead  = 24
)

// SizeOf estimates the in-memory footprint of a value in bytes. It supports
// the value types the engine produces; unknown types fall back to a fixed
// estimate so accounting never fails mid-job.
func SizeOf(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, float64, uintptr:
		return 8
	case string:
		return stringOverhead + int64(len(x))
	case []byte:
		return sliceOverhead + int64(len(x))
	case []any:
		return sizeOfAnys(x)
	case []string:
		s := int64(sliceOverhead)
		for _, e := range x {
			s += stringOverhead + int64(len(e))
		}
		return s
	case []int64:
		return sliceOverhead + 8*int64(len(x))
	case []float64:
		return sliceOverhead + 8*int64(len(x))
	// The two typed cases stay above fmt.Stringer: both types have a String
	// method, and neither is priced by it.
	case CoGrouped:
		s := int64(sliceOverhead)
		for _, g := range x.Groups {
			s += sizeOfAnys(g)
		}
		return s
	case Joined:
		return 16 + SizeOf(x.Left) + SizeOf(x.Right)
	case map[string]int64:
		s := int64(48)
		for k := range x {
			s += stringOverhead + int64(len(k)) + 8
		}
		return s
	case fmt.Stringer:
		return stringOverhead + int64(len(x.String()))
	default:
		return 64
	}
}

// sizeOfAnys is SizeOf of a []any without boxing the slice header.
func sizeOfAnys(vs []any) int64 {
	s := int64(sliceOverhead)
	for _, e := range vs {
		s += 8 + SizeOf(e)
	}
	return s
}

// SizeOfRecord estimates the footprint of a full record.
func SizeOfRecord(r Record) int64 {
	return recordOverhead + stringOverhead + int64(len(r.Key)) + SizeOf(r.Value)
}

// SizeOfSlice estimates the footprint of a record slice (a partition's data).
func SizeOfSlice(rs []Record) int64 {
	s := int64(sliceOverhead)
	for _, r := range rs {
		s += SizeOfRecord(r)
	}
	return s
}

// Grouped is one key with its accumulated values, produced by
// GroupByKeySorted.
type Grouped struct {
	Key    string
	Values []any
}

// AsInt64 converts numeric values the engine produces to int64, with ok
// reporting success; tests read counts and sums through it.
//
//starklint:ignore unreachable engine and rdd tests
func AsInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint32:
		return int64(x), true
	case uint64:
		return int64(x), true
	case float64:
		return int64(x), true
	default:
		return 0, false
	}
}

// Clone copies a record slice, so a test's reference input cannot alias
// rows the engine adopts.
//
//starklint:ignore unreachable engine tests (oracle_test.go)
func Clone(rs []Record) []Record {
	out := make([]Record, len(rs))
	copy(out, rs)
	return out
}

// Fingerprint hashes a record slice's observable shape (length plus every
// key, FNV-64a) cheaply enough to run on hot paths. The engine's
// copy-on-write debug mode (STARK_CHECK_COW=1) fingerprints slices when they
// start being shared and re-checks at the point the old code would have
// cloned, turning an aliasing violation into a loud failure instead of
// silent corruption.
func Fingerprint(rs []Record) uint64 {
	h := mixInt64(fnvOffset64, len(rs))
	for _, r := range rs {
		for i := 0; i < len(r.Key); i++ {
			h = (h ^ uint64(r.Key[i])) * fnvPrime64
		}
		h = (h ^ 0) * fnvPrime64
	}
	return h
}

var (
	cowCheckOnce sync.Once
	cowCheck     bool
)

// CowCheckEnabled reports whether STARK_CHECK_COW=1 is set, enabling the
// mutation-detection checks guarding the engine's copy-on-write fast paths.
func CowCheckEnabled() bool {
	cowCheckOnce.Do(func() { cowCheck = os.Getenv("STARK_CHECK_COW") == "1" })
	return cowCheck
}

// SetCowCheckForTesting overrides the STARK_CHECK_COW switch for tests that
// must exercise both modes within one process (the env variable is read
// once). It returns the previous value so callers can restore it.
//
//starklint:ignore unreachable root, engine, storage and stream tests
func SetCowCheckForTesting(v bool) bool {
	cowCheckOnce.Do(func() { cowCheck = os.Getenv("STARK_CHECK_COW") == "1" })
	prev := cowCheck
	cowCheck = v
	return prev
}
