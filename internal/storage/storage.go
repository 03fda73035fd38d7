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
	"sync"

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
// block: record.KeySum64, a word-at-a-time fold over the record keys, their
// lengths and the record count, which any single changed key byte always
// changes, and the same sum shuffle buckets are stamped and verified with.
// It exists to catch *injected* corruption deterministically, not to survive
// adversarial collisions, so hashing values is deliberately skipped (values
// are arbitrary `any` and hashing them would dominate hot read paths).
func sumRecords(data []record.Record) uint64 { return record.KeySum64(data) }

// mapOutput is one committed map task's output as the task produced it: the
// task's own rows, the bucket-major permutation over them, the key slab in
// the same order and the ascending span table are adopted, never copied or
// written (one PartitionedBatch may be committed under many map partitions,
// and two routings of one row slice under two). The store owns only rot: a
// bucket is verified against its span's Sum ^ rot, and CorruptMapOutput
// flips rot, so rot in one output cannot reach another that shares the
// caller's spans, and a write allocates nothing.
type mapOutput struct {
	rows      []record.Record
	perm      []int32
	keys      string
	spans     []record.Span
	rot       uint64
	fp        uint64 // record.Fingerprint(rows) at write time; STARK_CHECK_COW only
	committed bool
}

// shuffleState is one shuffle: a fixed-length table of map outputs and, built
// once it is complete and about to be read (PrepareShuffleReads on the event
// loop, or lazily in ReadReduce), the same records transposed reduce-major.
// Reduce partition r is rows[at[r]:at[r+1]] — buckets in map-partition order,
// every Key aliasing its map output's key slab; bad[r] is the first map
// partition whose bucket in r failed its checksum at the build (-1: none),
// and bytes[r] what reading r costs. A read is O(1), not O(numMaps):
// essential for the partition-count sweep (Fig. 7) at 10^5 partitions.
// Writes, drops and corruption do no index work, they only set dirty.
type shuffleState struct {
	numMaps    int
	numReduces int
	outputs    []mapOutput // indexed by map partition
	committed  int         // committed outputs
	cow        bool        // STARK_CHECK_COW was on at RegisterShuffle

	at    []int // numReduces+1
	rows  []record.Record
	bytes []int64
	bad   []int32
	fps   []uint64 // record.Fingerprint of each reduce partition; STARK_CHECK_COW only
	dirty bool
}

func (st *shuffleState) complete() bool { return st.committed == st.numMaps }

// minRangeRows is the fewest rows per range a split index build is cut into:
// below about that, starting and joining a goroutine costs what the range's
// share of the gather saves (taxi-window's 256-partition shuffles of ~1000
// rows, split in two, read 4 % slower in 4 of 5 pairs). Tests lower it to
// split small shuffles.
var minRangeRows = 4096

// buildIndex transposes the committed map outputs of shuffle id: a counting
// sort of their spans by reduce partition, stable in map-partition order. The
// serial part counts each partition's rows and bytes and cuts the partitions
// into contiguous ranges of about equal rows, at most workers of them and at
// most one per minRangeRows rows. Each range then gathers its rows from the
// outputs' adopted rows through their permutations — the one copy a shuffled
// row gets, its key re-pointed into the map output's slab — and checks each
// bucket once (gatherRange), on a goroutine of its own but the last, which the
// caller runs. O(rows + numReduces + spans + outputs × ranges × log spans)
// time; four allocations whatever the shuffle holds, and more ranges add a
// goroutine each and, once, the bounds and the join. A range writes only its
// own partitions' cursors, rows and bad entries, so the index is the same at
// every width. Every array is fresh: views ReadReduce handed out (cached
// blocks hold them) outlive a rebuild.
func (st *shuffleState) buildIndex(id, workers int) {
	// An adopted row slice that changed since its write would be gathered as
	// it is now: a key of another length reads as a corrupt block, which a
	// stage resubmit heals, and one of the same length as committed beside
	// the new value, hiding the purity bug either way.
	if st.cow {
		for m := range st.outputs {
			if out := &st.outputs[m]; record.Fingerprint(out.rows) != out.fp {
				panic(fmt.Errorf("storage: shuffle %d map output %d: rows mutated after commit (copy-on-write violation)", id, m))
			}
		}
	}
	n := st.numReduces
	at := make([]int, n+1)
	bytes := make([]int64, n)
	bad := make([]int32, n)
	for m := range st.outputs {
		for _, sp := range st.outputs[m].spans {
			at[sp.Part+1] += int(sp.Hi - sp.Lo)
			bytes[sp.Part] += sp.Bytes
		}
	}
	for r := 0; r < n; r++ {
		at[r+1] += at[r]
		bad[r] = -1
	}
	// at[r] doubles as reduce partition r's fill cursor, which leaves it at
	// r's end — the next partition's start; shifting right restores it.
	rows := make([]record.Record, at[n])
	if w := min(workers, n, len(rows)/minRangeRows); w <= 1 {
		st.gatherRange(at, rows, bad, 0, n)
	} else {
		// Range k is partitions [bounds[k], bounds[k+1]), cut where the rows
		// before a partition reach k/w of the total. Every bound is read off
		// at before any range moves a cursor in it.
		bounds := make([]int, w+1)
		for k := 1; k < w; k++ {
			target := len(rows) * k / w
			bounds[k] = sort.Search(n, func(r int) bool { return at[r] >= target })
		}
		bounds[w] = n
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 0; k < w-1; k++ {
			lo, hi := bounds[k], bounds[k+1]
			go func() {
				defer wg.Done()
				st.gatherRange(at, rows, bad, lo, hi)
			}()
		}
		st.gatherRange(at, rows, bad, bounds[w-1], n)
		wg.Wait()
	}
	copy(at[1:], at[:n])
	at[0] = 0

	var fps []uint64
	if st.cow {
		fps = make([]uint64, n)
		for r := range fps {
			fps[r] = record.Fingerprint(rows[at[r]:at[r+1]])
		}
	}
	st.at, st.rows, st.bytes, st.bad, st.fps, st.dirty = at, rows, bytes, bad, fps, false
}

// gatherRange fills reduce partitions [lo, hi) of a build: every output's
// spans for them, the first found by binary search, are gathered through the
// output's permutation at the partitions' cursors in at, which it leaves at
// each partition's end. A gathered row is the source row's value and, for
// its key, the next len(Key) bytes of the output's slab from the span's Key on
// (clamped to the slab): of a source row only the header is read. Each bucket
// is then checked against its stored checksum (a source key whose length
// changed after commit shifts the bucket and fails it too); the first map
// partition that fails lands in its partition's bad entry. It touches no
// other partition's cursor, rows or bad entry.
func (st *shuffleState) gatherRange(at []int, rows []record.Record, bad []int32, lo, hi int) {
	for m := range st.outputs {
		out := &st.outputs[m]
		src, perm, spans := out.rows, out.perm, out.spans
		i := sort.Search(len(spans), func(i int) bool { return int(spans[i].Part) >= lo })
		for ; i < len(spans) && int(spans[i].Part) < hi; i++ {
			sp := &spans[i]
			keys := out.keys[sp.Key:]
			dst := rows[at[sp.Part] : at[sp.Part]+int(sp.Hi-sp.Lo)]
			at[sp.Part] += len(dst)
			for k, j := range perm[sp.Lo:sp.Hi] {
				n := min(len(src[j].Key), len(keys))
				dst[k] = record.Record{Key: keys[:n], Value: src[j].Value}
				keys = keys[n:]
			}
			if bad[sp.Part] < 0 && record.KeySum64(dst) != sp.Sum^out.rot {
				bad[sp.Part] = int32(m)
			}
		}
	}
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
// rows, permutation, key slab and spans — is adopted as it is; the store
// hashes no key, copies nothing and allocates nothing. Every span's partition
// and position range is checked against the permutation, its key offset
// against the slab, the spans' order against ascending partitions (an index
// build finds a range's first span by binary search) and key offsets, and the
// permutation's length against the rows; its entries and the keys' lengths
// are the kernel's and are trusted. A write that fails a check mutates
// nothing.
// Overwrites (speculative or recomputed tasks) replace the whole output at
// once and are idempotent in effect.
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
	for i, sp := range pb.Spans {
		if sp.Part < 0 || int(sp.Part) >= st.numReduces || sp.Lo < 0 || sp.Lo > sp.Hi || int(sp.Hi) > len(pb.Perm) || sp.Key < 0 || int(sp.Key) > len(pb.Keys) {
			return fmt.Errorf("storage: shuffle %d map partition %d: span for reduce partition %d, positions [%d,%d), keys from byte %d, outside [0,%d) partitions, the output's %d rows or its %d key bytes",
				id, mapPart, sp.Part, sp.Lo, sp.Hi, sp.Key, st.numReduces, len(pb.Perm), len(pb.Keys))
		}
		if prev := pb.Spans[max(i-1, 0)]; sp.Part < prev.Part || sp.Key < prev.Key {
			return fmt.Errorf("storage: shuffle %d map partition %d: span for reduce partition %d, keys from byte %d, follows one for %d from byte %d; spans ascend by partition and key offset",
				id, mapPart, sp.Part, sp.Key, prev.Part, prev.Key)
		}
	}
	out := &st.outputs[mapPart]
	if !out.committed {
		st.committed++
	}
	*out = mapOutput{rows: pb.Rows, perm: pb.Perm, keys: pb.Keys, spans: pb.Spans, committed: true}
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
	if !ok || mapPart < 0 || mapPart >= st.numMaps || !st.outputs[mapPart].committed {
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
		if !st.outputs[m].committed {
			missing = append(missing, m)
		}
	}
	return missing
}

// PrepareShuffleReads builds the index of every complete shuffle whose index
// is stale, so subsequent ReadReduce calls are pure reads, splitting each
// build over up to workers goroutines. The engine calls it on the event loop
// before dispatching a parallel batch, at the batch's parallelism: without it,
// the first reader of a dirty shuffle would transpose it while other
// goroutines read it. An incomplete shuffle cannot be read and is skipped.
func (s *Store) PrepareShuffleReads(workers int) {
	for id, st := range s.shuffles {
		if st.dirty && st.complete() {
			st.buildIndex(id, workers)
		}
	}
}

// ReadReduce returns one reduce partition — every map output bucket routed
// to it, in map-partition order with input order inside each bucket — and
// the total bytes fetched. The records are a read-only view shared by every
// reader, capped so an append cannot reach the next partition and unchanged
// by whatever happens to the shuffle afterwards; their keys alias the key
// slabs of the map outputs they came from, which the view pins. The buckets
// were checked once, when the index was built: a partition with a bucket
// that failed is a CorruptError naming the first such map partition. It
// fails if the shuffle is incomplete, because a real reducer would block.
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
		st.buildIndex(id, 1)
	}
	lo, hi := st.at[reducePart], st.at[reducePart+1]
	view := st.rows[lo:hi:hi]
	// A consumer that wrote a key into an earlier view would otherwise go
	// unnoticed: the checksums were checked at the build, not on this read.
	if st.fps != nil && record.Fingerprint(view) != st.fps[reducePart] {
		panic(fmt.Errorf("storage: shuffle %d reduce partition %d mutated through a ReadReduce view (copy-on-write violation)", id, reducePart))
	}
	if m := st.bad[reducePart]; m >= 0 {
		return nil, 0, &CorruptError{Shuffle: id, MapPart: int(m)}
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
			if st.outputs[m].committed {
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

// CorruptMapOutput flips the stored checksums of one committed map output
// (simulated bit rot of a persisted shuffle block) by XORing its rot word;
// the next ReadReduce touching it fails with a CorruptError. It reports
// whether the output existed. A later overwrite (recomputed map task)
// restores integrity.
func (s *Store) CorruptMapOutput(id, mapPart int) bool {
	st, out := s.committedOutput(id, mapPart)
	if out == nil {
		return false
	}
	out.rot ^= 0xdeadbeef
	// The index holds what the last build's checks found; rebuild it so
	// readers see this output fail.
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
