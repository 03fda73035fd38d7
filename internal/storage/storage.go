// Package storage simulates the persistent layer under the engine: the
// HDFS-like store where shuffle map tasks commit their outputs (paper
// Sec. II-A: "shuffle maps always commit outputs into persistent storage")
// and where checkpoints are written. Data here survives cache eviction and
// executor failure; reading and writing it is charged disk/network time by
// the engine's cost model.
package storage

import (
	"errors"
	"fmt"
	"sort"

	"stark/internal/record"
)

// ErrCorrupt marks a persisted block whose stored checksum no longer
// matches its contents. Readers must treat it like a missing block and take
// the lineage-recompute path, never return the bytes.
var ErrCorrupt = errors.New("storage: block checksum mismatch")

// CorruptError identifies the corrupt block so the engine can evict it
// before recomputing. It unwraps to ErrCorrupt.
type CorruptError struct {
	Checkpoint bool
	// Shuffle/MapPart locate a shuffle block (when !Checkpoint);
	// RDD/Part locate a checkpoint block.
	Shuffle, MapPart int
	RDD, Part        int
}

func (e *CorruptError) Error() string {
	if e.Checkpoint {
		return fmt.Sprintf("storage: checkpoint rdd %d partition %d checksum mismatch", e.RDD, e.Part)
	}
	return fmt.Sprintf("storage: shuffle %d map output %d checksum mismatch", e.Shuffle, e.MapPart)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Bucket is one (map partition → reduce partition) shuffle output file.
// The store stamps a content checksum at write time (sum); reads verify it,
// so a corrupted persisted block surfaces as an integrity error instead of
// silently wrong bytes. Shuffle buckets (WriteMapOutputBatch) also carry a
// span view into the columnar batch, so verification runs off the
// contiguous key slab instead of re-walking boxed records.
type Bucket struct {
	Data  []record.Record
	Bytes int64

	sum uint64
	// Columnar span view (batch rows [lo, hi)); nil for checkpoint blocks.
	batch  *record.Batch
	lo, hi int32
}

// verify recomputes the bucket's checksum and compares it to the stamped
// one. Batch-backed buckets hash the key slab (no per-record byte-slice
// conversions); checkpoint blocks re-walk their rows.
func (b Bucket) verify() bool {
	if b.batch != nil {
		return b.sum == b.batch.KeySumRange(int(b.lo), int(b.hi))
	}
	return b.sum == sumRecords(b.Data)
}

// sumRecords computes the cheap integrity checksum stored with a persisted
// block: FNV-64a over the record keys plus the record count. It exists to
// catch *injected* corruption deterministically, not to survive adversarial
// collisions, so hashing values is deliberately skipped (values are
// arbitrary `any` and hashing them would dominate hot read paths). The hash
// is record.KeySum64, shared with the batch slab checksum so the per-record
// and columnar paths can never drift.
func sumRecords(data []record.Record) uint64 { return record.KeySum64(data) }

type shuffleState struct {
	numMaps    int
	numReduces int
	// outputs[mapPart][reducePart]
	outputs map[int]map[int]Bucket
	// byReduce indexes buckets per reduce partition in map-partition order,
	// so ReadReduce is O(buckets present) instead of O(numMaps) — essential
	// for the partition-count sweep (Fig. 7) at 10^5 partitions. Invalidated
	// by overwrites and rebuilt lazily.
	byReduce map[int][]reduceBucket
	dirty    bool
}

type reduceBucket struct {
	mapPart int
	b       Bucket
}

func (st *shuffleState) rebuildIndex() {
	//starklint:ignore hotalloc rebuild runs once per dirty shuffle, not per read — PrepareShuffleReads forces it on the event loop before fan-out and steady-state ReadReduce hits the cached index
	st.byReduce = make(map[int][]reduceBucket)
	for m := 0; m < st.numMaps; m++ {
		for r, b := range st.outputs[m] {
			st.byReduce[r] = append(st.byReduce[r], reduceBucket{mapPart: m, b: b})
		}
	}
	for r := range st.byReduce {
		bs := st.byReduce[r]
		//starklint:ignore hotalloc same amortized rebuild path: one boxing per reduce partition per dirty rebuild, off the steady-state read path
		sort.Slice(bs, func(i, j int) bool { return bs[i].mapPart < bs[j].mapPart })
	}
	st.dirty = false
}

type checkpointKey struct {
	rdd  int
	part int
}

// Op names a persistent-storage operation for fault-hook dispatch.
type Op string

// Storage operations a fault hook may intercept.
const (
	OpShuffleRead     Op = "shuffle-read"
	OpCheckpointRead  Op = "checkpoint-read"
	OpMapOutputWrite  Op = "map-output-write"
	OpCheckpointWrite Op = "checkpoint-write"
)

// Store is the persistent store. It is not safe for concurrent use; the
// discrete-event engine is single-threaded by construction.
type Store struct {
	shuffles    map[int]*shuffleState
	checkpoints map[checkpointKey]Bucket
	// cpBytes accumulates total checkpointed bytes ever written, the
	// quantity Fig. 18 plots.
	cpBytes int64
	// faultHook, when set, may veto an operation with a transient error
	// before it touches state (fault injection).
	faultHook func(Op) error
}

// NewStore returns an empty persistent store.
func NewStore() *Store {
	return &Store{
		shuffles:    make(map[int]*shuffleState),
		checkpoints: make(map[checkpointKey]Bucket),
	}
}

// SetFaultHook installs (or, with nil, removes) a hook consulted before
// every read and write; a non-nil return fails the operation transiently
// without touching state.
func (s *Store) SetFaultHook(h func(Op) error) { s.faultHook = h }

func (s *Store) injected(op Op) error {
	if s.faultHook == nil {
		return nil
	}
	return s.faultHook(op)
}

// RegisterShuffle declares a shuffle's geometry. Re-registering with the
// same geometry is a no-op; conflicting geometry is an error.
func (s *Store) RegisterShuffle(id, numMaps, numReduces int) error {
	if st, ok := s.shuffles[id]; ok {
		if st.numMaps != numMaps || st.numReduces != numReduces {
			return fmt.Errorf("storage: shuffle %d re-registered with different geometry", id)
		}
		return nil
	}
	s.shuffles[id] = &shuffleState{
		numMaps:    numMaps,
		numReduces: numReduces,
		outputs:    make(map[int]map[int]Bucket),
		byReduce:   make(map[int][]reduceBucket),
	}
	return nil
}

// WriteMapOutputBatch commits one map task's buckets from a partitioned
// columnar batch: every bucket is a span view over one shared reordered row
// array and key slab, and checksums come off the slab instead of per-record
// re-hashing. Overwrites (speculative or recomputed tasks) are allowed and
// idempotent in effect.
//
//starklint:hotpath
func (s *Store) WriteMapOutputBatch(id, mapPart int, pb *record.PartitionedBatch) error {
	if err := s.injected(OpMapOutputWrite); err != nil {
		return err
	}
	st, ok := s.shuffles[id]
	if !ok {
		return fmt.Errorf("storage: unknown shuffle %d", id)
	}
	if mapPart < 0 || mapPart >= st.numMaps {
		return fmt.Errorf("storage: shuffle %d map partition %d out of range [0,%d)", id, mapPart, st.numMaps)
	}
	rows := pb.Batch.Records()
	//starklint:ignore hotalloc the bucket map escapes into the shuffle index (one per map-task write, pre-sized to the span count); reusing a cleared map would alias live shuffle state
	cp := make(map[int]Bucket, len(pb.Spans))
	for _, sp := range pb.Spans {
		if sp.Part < 0 || sp.Part >= st.numReduces {
			return fmt.Errorf("storage: shuffle %d reduce partition %d out of range [0,%d)", id, sp.Part, st.numReduces)
		}
		cp[sp.Part] = Bucket{
			Data:  rows[sp.Lo:sp.Hi:sp.Hi],
			Bytes: sp.Bytes,
			sum:   pb.Batch.KeySumRange(int(sp.Lo), int(sp.Hi)),
			batch: pb.Batch,
			lo:    sp.Lo,
			hi:    sp.Hi,
		}
	}
	if _, overwrite := st.outputs[mapPart]; overwrite {
		st.dirty = true
	} else if !st.dirty {
		for r, b := range cp {
			st.byReduce[r] = append(st.byReduce[r], reduceBucket{mapPart: mapPart, b: b})
		}
	}
	st.outputs[mapPart] = cp
	return nil
}

// HasMapOutput reports whether a map partition's output is committed.
func (s *Store) HasMapOutput(id, mapPart int) bool {
	st, ok := s.shuffles[id]
	if !ok {
		return false
	}
	_, done := st.outputs[mapPart]
	return done
}

// ShuffleComplete reports whether every map partition has committed output,
// i.e. reducers can run. An unregistered shuffle is not complete.
func (s *Store) ShuffleComplete(id int) bool {
	st, ok := s.shuffles[id]
	if !ok {
		return false
	}
	return len(st.outputs) == st.numMaps
}

// MissingMapOutputs lists the map partitions that still need to run.
func (s *Store) MissingMapOutputs(id int) []int {
	st, ok := s.shuffles[id]
	if !ok {
		return nil
	}
	var missing []int
	for m := 0; m < st.numMaps; m++ {
		if _, done := st.outputs[m]; !done {
			missing = append(missing, m)
		}
	}
	return missing
}

// PrepareShuffleReads rebuilds every dirty per-reduce index up front so
// subsequent ReadReduce calls are pure reads. The engine calls it before
// dispatching a parallel batch: without it, the first reader of a dirty
// shuffle would rebuild the index while other goroutines read it.
func (s *Store) PrepareShuffleReads() {
	for _, st := range s.shuffles {
		if st.dirty {
			st.rebuildIndex()
		}
	}
}

// ReadReduce concatenates every map output bucket for one reduce partition,
// returning the records and total bytes fetched. It fails if the shuffle is
// incomplete, because a real reducer would block.
//
//starklint:hotpath
func (s *Store) ReadReduce(id, reducePart int) ([]record.Record, int64, error) {
	if err := s.injected(OpShuffleRead); err != nil {
		return nil, 0, err
	}
	st, ok := s.shuffles[id]
	if !ok {
		return nil, 0, fmt.Errorf("storage: unknown shuffle %d", id)
	}
	if len(st.outputs) != st.numMaps {
		return nil, 0, fmt.Errorf("storage: shuffle %d incomplete: %d/%d map outputs", id, len(st.outputs), st.numMaps)
	}
	if st.dirty {
		st.rebuildIndex()
	}
	// Verify first, then concatenate into an exact-size slice: the append
	// loop used to re-grow out log(n) times, and verification re-hashed every
	// record through a byte-slice conversion. The error surfaced (first
	// corrupt bucket in map-partition order) is unchanged.
	bs := st.byReduce[reducePart]
	total := 0
	var bytes int64
	for _, rb := range bs {
		if !rb.b.verify() {
			return nil, 0, &CorruptError{Shuffle: id, MapPart: rb.mapPart}
		}
		total += len(rb.b.Data)
		bytes += rb.b.Bytes
	}
	if total == 0 {
		return nil, bytes, nil
	}
	out := make([]record.Record, 0, total)
	for _, rb := range bs {
		out = append(out, rb.b.Data...)
	}
	return out, bytes, nil
}

// WriteCheckpoint persists one partition of an RDD and accounts its bytes
// toward the running checkpoint total.
func (s *Store) WriteCheckpoint(rdd, part int, data []record.Record, bytes int64) error {
	if err := s.injected(OpCheckpointWrite); err != nil {
		return err
	}
	k := checkpointKey{rdd: rdd, part: part}
	if old, ok := s.checkpoints[k]; ok {
		s.cpBytes -= old.Bytes
	}
	s.checkpoints[k] = Bucket{Data: data, Bytes: bytes, sum: sumRecords(data)}
	s.cpBytes += bytes
	return nil
}

// HasCheckpoint reports whether a partition checkpoint exists.
func (s *Store) HasCheckpoint(rdd, part int) bool {
	_, ok := s.checkpoints[checkpointKey{rdd: rdd, part: part}]
	return ok
}

// ReadCheckpoint loads a partition checkpoint.
func (s *Store) ReadCheckpoint(rdd, part int) ([]record.Record, int64, error) {
	if err := s.injected(OpCheckpointRead); err != nil {
		return nil, 0, err
	}
	b, ok := s.checkpoints[checkpointKey{rdd: rdd, part: part}]
	if !ok {
		return nil, 0, fmt.Errorf("storage: no checkpoint for rdd %d partition %d", rdd, part)
	}
	if !b.verify() {
		return nil, 0, &CorruptError{Checkpoint: true, RDD: rdd, Part: part}
	}
	return b.Data, b.Bytes, nil
}

// TotalCheckpointBytes reports cumulative live checkpoint bytes.
func (s *Store) TotalCheckpointBytes() int64 { return s.cpBytes }

// DropShuffle discards a shuffle's outputs (dataset eviction).
func (s *Store) DropShuffle(id int) { delete(s.shuffles, id) }

// DropMapOutput discards one committed map output (simulated block loss);
// the shuffle becomes incomplete until the partition is recomputed. It
// reports whether an output was actually dropped.
func (s *Store) DropMapOutput(id, mapPart int) bool {
	st, ok := s.shuffles[id]
	if !ok {
		return false
	}
	if _, done := st.outputs[mapPart]; !done {
		return false
	}
	delete(st.outputs, mapPart)
	st.dirty = true
	return true
}

// DropCheckpoint discards one partition checkpoint (simulated block loss),
// subtracting its bytes from the running total. It reports whether a
// checkpoint was actually dropped.
func (s *Store) DropCheckpoint(rdd, part int) bool {
	k := checkpointKey{rdd: rdd, part: part}
	b, ok := s.checkpoints[k]
	if !ok {
		return false
	}
	s.cpBytes -= b.Bytes
	delete(s.checkpoints, k)
	return true
}

// CommittedMapOutputs enumerates every committed (shuffle, mapPart) pair in
// ascending order — the fault injector's sampling space for block loss.
func (s *Store) CommittedMapOutputs() [][2]int {
	ids := make([]int, 0, len(s.shuffles))
	for id := range s.shuffles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out [][2]int
	for _, id := range ids {
		st := s.shuffles[id]
		for m := 0; m < st.numMaps; m++ {
			if _, done := st.outputs[m]; done {
				out = append(out, [2]int{id, m})
			}
		}
	}
	return out
}

// CheckpointBlocks enumerates every (rdd, partition) checkpoint in ascending
// order — the fault injector's sampling space for checkpoint loss.
func (s *Store) CheckpointBlocks() [][2]int {
	out := make([][2]int, 0, len(s.checkpoints))
	for k := range s.checkpoints {
		out = append(out, [2]int{k.rdd, k.part})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// CorruptMapOutput flips the stored checksum of one committed map output
// (simulated bit rot of a persisted shuffle block); the next ReadReduce
// touching it fails with a CorruptError. It reports whether the output
// existed. A later overwrite (recomputed map task) restores integrity.
func (s *Store) CorruptMapOutput(id, mapPart int) bool {
	st, ok := s.shuffles[id]
	if !ok {
		return false
	}
	buckets, done := st.outputs[mapPart]
	if !done {
		return false
	}
	for r, b := range buckets {
		b.sum ^= 0xdeadbeef
		buckets[r] = b
	}
	// The byReduce index holds bucket copies; force a rebuild so readers see
	// the corrupted sums.
	st.dirty = true
	return true
}

// CorruptCheckpoint flips the stored checksum of one checkpoint block; the
// next ReadCheckpoint fails with a CorruptError until the partition is
// re-checkpointed. It reports whether the checkpoint existed.
func (s *Store) CorruptCheckpoint(rdd, part int) bool {
	k := checkpointKey{rdd: rdd, part: part}
	b, ok := s.checkpoints[k]
	if !ok {
		return false
	}
	b.sum ^= 0xdeadbeef
	s.checkpoints[k] = b
	return true
}

// DropCheckpoints discards all checkpoints of an RDD, subtracting their
// bytes from the running total.
func (s *Store) DropCheckpoints(rdd int) {
	for k, b := range s.checkpoints {
		if k.rdd == rdd {
			s.cpBytes -= b.Bytes
			delete(s.checkpoints, k)
		}
	}
}
