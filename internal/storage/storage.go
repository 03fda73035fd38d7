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
	"strings"

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

// Bucket is one persisted checkpoint block. The store stamps a content
// checksum at write time (sum); reads verify it, so a corrupted persisted
// block surfaces as an integrity error instead of silently wrong bytes.
type Bucket struct {
	Data  []record.Record
	Bytes int64

	sum uint64
}

// verify recomputes the block's checksum over its rows and compares it to the
// stamped one.
func (b Bucket) verify() bool { return b.sum == sumRecords(b.Data) }

// sumRecords computes the cheap integrity checksum stored with a persisted
// block: FNV-64a over the record keys plus the record count. It exists to
// catch *injected* corruption deterministically, not to survive adversarial
// collisions, so hashing values is deliberately skipped (values are
// arbitrary `any` and hashing them would dominate hot read paths). The hash
// is record.KeySum64, the same one shuffle buckets are stamped and verified
// with.
func sumRecords(data []record.Record) uint64 { return record.KeySum64(data) }

// mapOutput is one committed map task's output as the task produced it: the
// task's own rows, the bucket-major permutation over them and the ascending
// span table are adopted, never copied or written (one PartitionedBatch may
// be committed under many map partitions, and two routings of one row slice
// under two). The store owns only sums, one checksum per span copied from
// the spans at write time — which is what CorruptMapOutput flips, so rot in
// one output cannot reach another that shares the caller's spans.
type mapOutput struct {
	rows  []record.Record
	perm  []int32
	spans []record.Span
	sums  []uint64 // non-nil once committed: made even for zero spans
	fp    uint64   // record.Fingerprint(rows) at write time; STARK_CHECK_COW only
}

// indexEntry is one bucket of a reduce partition: its next n rows, from map
// partition mapPart, stamped sum at write time. Pointer-free: never traced.
type indexEntry struct {
	mapPart, n int32
	sum        uint64
}

// reduceStart is where a reduce partition begins in the entries and the rows.
type reduceStart struct{ entry, row int }

// shuffleState is one shuffle: a fixed-length table of map outputs and, built
// once it is complete and about to be read (PrepareShuffleReads on the event
// loop, or lazily in ReadReduce), the same records transposed reduce-major.
// Reduce partition r is rows[at[r].row:at[r+1].row] — buckets in
// map-partition order, described by entries[at[r].entry:at[r+1].entry] —
// every Key aliasing one key slab in the same order; bytes[r] is what reading
// it costs. A read is O(buckets present), not O(numMaps): essential for the
// partition-count sweep (Fig. 7) at 10^5 partitions. Writes, drops and
// corruption do no index work, they only set dirty.
type shuffleState struct {
	numMaps    int
	numReduces int
	outputs    []mapOutput // indexed by map partition
	committed  int         // outputs with sums
	cow        bool        // STARK_CHECK_COW was on at RegisterShuffle

	at      []reduceStart // numReduces+1
	entries []indexEntry
	rows    []record.Record
	bytes   []int64
	fps     []uint64 // record.Fingerprint of each reduce partition; STARK_CHECK_COW only
	dirty   bool
}

func (st *shuffleState) complete() bool { return st.committed == st.numMaps }

// buildIndex transposes the committed map outputs of shuffle id: a counting
// sort of their spans by reduce partition, stable in map-partition order,
// that gathers each span's rows straight from the output's adopted rows
// through its permutation — the one copy a shuffled row gets — and writes
// the index entries, then a gather of every key into one slab. O(rows +
// spans + numReduces) time, five allocations. Every array is fresh: views
// ReadReduce handed out (cached blocks hold them) outlive a rebuild.
func (st *shuffleState) buildIndex(id int) {
	// An adopted row slice that changed since its write would be gathered as
	// it is now and read as a corrupt block, which a stage resubmit heals,
	// hiding the purity bug.
	if st.cow {
		for m := range st.outputs {
			if out := &st.outputs[m]; record.Fingerprint(out.rows) != out.fp {
				panic(fmt.Errorf("storage: shuffle %d map output %d: rows mutated after commit (copy-on-write violation)", id, m))
			}
		}
	}
	at := make([]reduceStart, st.numReduces+1)
	bytes := make([]int64, st.numReduces)
	for m := range st.outputs {
		for _, sp := range st.outputs[m].spans {
			at[sp.Part+1].entry++
			at[sp.Part+1].row += int(sp.Hi - sp.Lo)
			bytes[sp.Part] += sp.Bytes
		}
	}
	for r := 0; r < st.numReduces; r++ {
		at[r+1].entry += at[r].entry
		at[r+1].row += at[r].row
	}
	// at[r] doubles as reduce partition r's fill cursor, which leaves it at
	// r's end — the next partition's start; shifting right restores it.
	entries := make([]indexEntry, at[st.numReduces].entry)
	rows := make([]record.Record, at[st.numReduces].row)
	for m := range st.outputs {
		out := &st.outputs[m]
		src, perm := out.rows, out.perm
		for i, sp := range out.spans {
			c := &at[sp.Part]
			dst := rows[c.row : c.row+int(sp.Hi-sp.Lo)]
			for k, j := range perm[sp.Lo:sp.Hi] {
				dst[k] = src[j]
			}
			entries[c.entry] = indexEntry{mapPart: int32(m), n: int32(len(dst)), sum: out.sums[i]}
			c.entry++
			c.row += len(dst)
		}
	}
	copy(at[1:], at[:st.numReduces])
	at[0] = reduceStart{}

	// The slab is gathered in a loop of its own: every copy reads a key string
	// somewhere on the heap, and with nothing else in the loop those misses
	// overlap.
	keyBytes := 0
	for i := range rows {
		keyBytes += len(rows[i].Key)
	}
	var sb strings.Builder
	sb.Grow(keyBytes)
	for i := range rows {
		sb.WriteString(rows[i].Key)
	}
	slab := sb.String()
	for i := range rows {
		n := len(rows[i].Key)
		rows[i].Key, slab = slab[:n], slab[n:]
	}

	var fps []uint64
	if st.cow {
		fps = make([]uint64, st.numReduces)
		for r := range fps {
			fps[r] = record.Fingerprint(rows[at[r].row:at[r+1].row])
		}
	}
	st.at, st.entries, st.rows, st.bytes, st.fps, st.dirty = at, entries, rows, bytes, fps, false
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
		outputs:    make([]mapOutput, numMaps),
		cow:        record.CowCheckEnabled(),
		dirty:      true,
	}
	return nil
}

// WriteMapOutputBatch commits one map task's output: the partitioned batch —
// rows, permutation and spans — is adopted as it is, and the store copies
// each span's Sum, computed by the task, into checksums of its own; it hashes
// no key. Every span's partition and position range is checked against the
// permutation, and the permutation's length against the rows; its entries
// are the partition kernel's and are trusted. A write that fails a check
// mutates nothing. Overwrites (speculative or recomputed tasks) replace the
// whole output at once and are idempotent in effect.
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
	if len(pb.Perm) != len(pb.Rows) {
		return fmt.Errorf("storage: shuffle %d map partition %d: permutation of %d positions over %d rows", id, mapPart, len(pb.Perm), len(pb.Rows))
	}
	sums := make([]uint64, len(pb.Spans))
	for i, sp := range pb.Spans {
		if sp.Part < 0 || int(sp.Part) >= st.numReduces || sp.Lo < 0 || sp.Lo > sp.Hi || int(sp.Hi) > len(pb.Perm) {
			return fmt.Errorf("storage: shuffle %d map partition %d: span for reduce partition %d, positions [%d,%d), outside [0,%d) partitions or the output's %d rows",
				id, mapPart, sp.Part, sp.Lo, sp.Hi, st.numReduces, len(pb.Perm))
		}
		sums[i] = sp.Sum
	}
	out := &st.outputs[mapPart]
	if out.sums == nil {
		st.committed++
	}
	*out = mapOutput{rows: pb.Rows, perm: pb.Perm, spans: pb.Spans, sums: sums}
	if st.cow {
		out.fp = record.Fingerprint(pb.Rows)
	}
	st.dirty = true
	return nil
}

// committedOutput returns a shuffle's state and one map partition's committed
// output, or nils when the shuffle is unknown, the partition out of range or
// nothing is committed there.
func (s *Store) committedOutput(id, mapPart int) (*shuffleState, *mapOutput) {
	st, ok := s.shuffles[id]
	if !ok || mapPart < 0 || mapPart >= st.numMaps || st.outputs[mapPart].sums == nil {
		return nil, nil
	}
	return st, &st.outputs[mapPart]
}

// ShuffleComplete reports whether every map partition has committed output,
// i.e. reducers can run. An unregistered shuffle is not complete.
func (s *Store) ShuffleComplete(id int) bool {
	st, ok := s.shuffles[id]
	if !ok {
		return false
	}
	return st.complete()
}

// MissingMapOutputs lists the map partitions that still need to run.
func (s *Store) MissingMapOutputs(id int) []int {
	st, ok := s.shuffles[id]
	if !ok {
		return nil
	}
	var missing []int
	for m := range st.outputs {
		if st.outputs[m].sums == nil {
			missing = append(missing, m)
		}
	}
	return missing
}

// PrepareShuffleReads builds the index of every complete shuffle whose index
// is stale, so subsequent ReadReduce calls are pure reads. The engine calls
// it on the event loop before dispatching a parallel batch: without it, the
// first reader of a dirty shuffle would transpose it while other goroutines
// read it. An incomplete shuffle cannot be read and is skipped.
func (s *Store) PrepareShuffleReads() {
	for id, st := range s.shuffles {
		if st.dirty && st.complete() {
			st.buildIndex(id)
		}
	}
}

// ReadReduce returns one reduce partition — every map output bucket routed
// to it, in map-partition order with input order inside each bucket — and
// the total bytes fetched. The records are a read-only view shared by every
// reader, capped so an append cannot reach the next partition and unchanged
// by whatever happens to the shuffle afterwards. It fails if the shuffle is
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
	if reducePart < 0 || reducePart >= st.numReduces {
		return nil, 0, fmt.Errorf("storage: shuffle %d reduce partition %d out of range [0,%d)", id, reducePart, st.numReduces)
	}
	if !st.complete() {
		return nil, 0, fmt.Errorf("storage: shuffle %d incomplete: %d/%d map outputs", id, st.committed, st.numMaps)
	}
	if st.dirty {
		st.buildIndex(id)
	}
	lo, hi := st.at[reducePart], st.at[reducePart+1]
	view := st.rows[lo.row:hi.row:hi.row]
	// A consumer that wrote a key into an earlier view would otherwise read
	// as a corrupt block and be healed by a resubmit, hiding the purity bug.
	if st.fps != nil && record.Fingerprint(view) != st.fps[reducePart] {
		panic(fmt.Errorf("storage: shuffle %d reduce partition %d mutated through a ReadReduce view (copy-on-write violation)", id, reducePart))
	}
	// Every bucket's checksum is recomputed off the key bytes before any data
	// is returned; the error is the first corrupt one in map-partition order.
	n := 0
	for _, e := range st.entries[lo.entry:hi.entry] {
		if record.KeySum64(view[n:n+int(e.n)]) != e.sum {
			return nil, 0, &CorruptError{Shuffle: id, MapPart: int(e.mapPart)}
		}
		n += int(e.n)
	}
	if len(view) == 0 {
		return nil, st.bytes[reducePart], nil
	}
	return view, st.bytes[reducePart], nil
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
//
//starklint:ignore unreachable ROADMAP dataset lifecycle (release by lifetime)
func (s *Store) DropShuffle(id int) { delete(s.shuffles, id) }

// DropMapOutput discards one committed map output (simulated block loss);
// the shuffle becomes incomplete until the partition is recomputed. It
// reports whether an output was actually dropped.
func (s *Store) DropMapOutput(id, mapPart int) bool {
	st, out := s.committedOutput(id, mapPart)
	if out == nil {
		return false
	}
	*out = mapOutput{}
	st.committed--
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
		for m := range st.outputs {
			if st.outputs[m].sums != nil {
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
	st, out := s.committedOutput(id, mapPart)
	if out == nil {
		return false
	}
	for i := range out.sums {
		out.sums[i] ^= 0xdeadbeef
	}
	// The index carries a copy of every checksum; rebuild it so readers see
	// the flipped ones.
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
//
//starklint:ignore unreachable ROADMAP dataset lifecycle (release by lifetime)
func (s *Store) DropCheckpoints(rdd int) {
	for k, b := range s.checkpoints {
		if k.rdd == rdd {
			s.cpBytes -= b.Bytes
			delete(s.checkpoints, k)
		}
	}
}
