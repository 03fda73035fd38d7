package engine

import (
	"errors"
	"fmt"
	"time"

	"stark/internal/cluster"
	"stark/internal/journal"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/storage"
)

// taskOverhead is the fixed scheduling + launch + result-report cost charged
// per task; it produces the right side of the Fig. 7 U-shape.
const taskOverhead = 8 * time.Millisecond

// costAcc accumulates one task's modeled time and bytes.
type costAcc struct {
	compute     time.Duration
	shuffleRead time.Duration
	diskRead    time.Duration
	diskWrite   time.Duration

	bytesInput   int64
	bytesShuffle int64
	// working approximates the task's transient memory footprint, feeding
	// the GC pressure model.
	working int64
}

func (a *costAcc) ioTotal() time.Duration {
	return a.shuffleRead + a.diskRead + a.diskWrite
}

// sliceOverheadBytes is the fixed footprint of an empty record slice, used
// by the one-pass bucket-size accumulation to reproduce SizeOfSlice exactly.
var sliceOverheadBytes = record.SizeOfSlice(nil)

// runPlane executes one task's data plane against its plane context and
// records the modeled task duration in px.dur. Side effects (cache puts,
// LRU touches, stats, drops) buffer in px for the join. A non-nil px.err
// marks the attempt failed (storage error or fetch failure); the time
// already accumulated is still charged — a failed attempt is not free.
func (e *Engine) runPlane(t *task) {
	exec, px := t.exec, t.px
	st := t.sr.st
	for _, p := range t.partitions {
		data, _, err := px.materialize(st.Output, p)
		if err != nil {
			px.err = err
			break
		}
		if st.ShuffleMap {
			e.bucketMapOutput(t, p, data, px)
			continue
		}
		switch t.sr.job.action {
		case ActionCount:
			t.count += int64(len(data))
		case ActionCollect:
			// Copy-on-write: the staged slice aliases the computed (possibly
			// cached) partition. Transforms are pure and the job result is
			// read-only, so no consumer mutates it; STARK_CHECK_COW=1
			// fingerprints the slice here and re-verifies at result-accept.
			t.collected = stageInto(t.collected, &t.collectedOne, data)
			if record.CowCheckEnabled() {
				t.collectedFP = stageInto(t.collectedFP, &t.fpOne, record.Fingerprint(data))
			}
		case ActionMaterialize:
			// Materialization is its own reward.
		}
	}

	// GC model: overhead grows with post-task memory pressure including the
	// transient working set (paper Fig. 12's six-RDD effect). Deferred cache
	// puts mean Used() reflects the batch's start-of-event state for every
	// plane — the same state a sequential deferred run would read.
	store := e.cl.Executor(exec).Store
	pressure := 0.0
	if store.Capacity() > 0 {
		pressure = float64(store.Used()+px.acc.working) / float64(store.Capacity())
	}
	gc := time.Duration(float64(px.acc.compute) * e.cfg.Cluster.GC.Factor(pressure))

	t.tm.Compute = px.acc.compute
	t.tm.GC = gc
	t.tm.ShuffleRead = px.acc.shuffleRead
	t.tm.DiskRead = px.acc.diskRead
	t.tm.DiskWrite = px.acc.diskWrite
	t.tm.BytesInput = px.acc.bytesInput
	t.tm.BytesShuffle = px.acc.bytesShuffle

	t.tm.Overhead = taskOverhead
	if t.group {
		t.tm.Overhead += time.Duration(len(t.partitions)) * e.cfg.Cluster.GroupPartitionOverhead
	}
	px.dur = t.tm.Overhead + px.acc.compute + px.acc.ioTotal() + gc
}

// bucketMapOutput buckets one computed map partition by the consumer's
// partitioner and stages it on the task; the buckets register with the
// shuffle service only when the driver accepts the task's result (see
// commitMapOutputs), so an attempt whose executor epoch has moved on can
// never install shuffle outputs.
//
// The rows go straight to record.PartitionRows, which routes them instead of
// copying them: the output adopts data and adds a bucket-major permutation
// and one span per bucket, whose checksum the kernel computes here on the
// data plane. Hash partitioners route on key hashes computed in one pass;
// hashes and index tables live in the plane's arena scratch. Each span's raw
// bytes are priced in place, reproducing the old record-by-record
// accumulation exactly: ScaleBytes(sliceOverhead + Σ SizeOfRecord).
func (e *Engine) bucketMapOutput(t *task, p int, data []record.Record, px *planeCtx) {
	st := t.sr.st
	part := st.Consumer.Partitioner
	n := st.Consumer.Parts
	idx := px.scr.I32.Take(len(data))
	if hp, ok := part.(partition.Hash); ok {
		for i, h := range record.HashKeys(data, &px.scr) {
			idx[i] = int32(hp.PartitionForHash(h))
		}
	} else {
		for i := range data {
			idx[i] = int32(part.PartitionFor(data[i].Key))
		}
	}
	pb := record.PartitionRows(data, idx, n, &px.scr)
	var total int64
	for si := range pb.Spans {
		sp := &pb.Spans[si]
		sp.Bytes = e.cfg.Cluster.ScaleBytes(sliceOverheadBytes + sp.Bytes)
		total += sp.Bytes
	}
	t.mapOut = stageInto(t.mapOut, &t.mapOutOne, pb)
	// Bucketing is a cheap pass over the data; the write hits disk.
	px.acc.compute += e.cfg.Cluster.ComputeTime(total, 0.3)
	px.acc.diskWrite += e.cfg.Cluster.DiskWriteTime(total)
}

// commitMapOutputs writes a map task's staged buckets to persistent storage
// at result-accept time, in partition order. A write failure (injected or
// real) surfaces as ErrStorage for the retry path.
func (e *Engine) commitMapOutputs(t *task) error {
	st := t.sr.st
	for i, out := range t.mapOut {
		p := t.partitions[i]
		if err := e.store.WriteMapOutputBatch(st.ShuffleID, p, out); err != nil {
			return fmt.Errorf("%w: map output write shuffle %d part %d: %w", ErrStorage, st.ShuffleID, p, err)
		}
		e.journalAppend(journal.Record{Kind: journal.KindMapOutput,
			A: int64(st.ShuffleID), B: int64(p), C: int64(st.Output.Parts), D: int64(st.Consumer.Parts)})
	}
	clear(t.mapOut) // the store holds the outputs now; the task pins none
	t.mapOut = nil
	return nil
}

// materialize produces partition p of r on the context's executor, with the
// simulated bytes it is priced at, honoring the engine's Spark-faithful
// semantics: only the local cache is consulted (a partition cached on a
// *different* executor is recomputed, never fetched — the amplification
// co-locality removes), checkpoints and shuffle outputs are read from
// persistent storage, and everything else recurses through narrow parents,
// summing the bytes the recursion returns. Storage failures surface as
// ErrStorage; a shuffle read against an incomplete shuffle (lost map
// outputs) surfaces as a fetchError so the recovery plane resubmits the
// producing stage.
func (px *planeCtx) materialize(r *rdd.RDD, p int) ([]record.Record, int64, error) {
	e := px.e
	if r.CacheFlag {
		if data, bytes, ok := px.cacheGet(r, p); ok {
			px.cacheHit()
			return data, bytes, nil
		}
		// The block was requested from a cache-enabled RDD and missed: this
		// is the recompute penalty the locality machinery exists to avoid.
		px.cacheMiss()
		if e.evictedEver.Has(cluster.BlockID{RDD: r.ID, Partition: p}.Key()) {
			px.evictedRecompute()
		}
	}
	if r.Checkpointed && e.store.HasCheckpoint(r.ID, p) {
		data, bytes, err := e.store.ReadCheckpoint(r.ID, p)
		if err != nil {
			if errors.Is(err, storage.ErrCorrupt) {
				// Integrity failure: evict the bad block so the retry attempt
				// recomputes the partition through lineage.
				px.dropCorrupt(true, r.ID, p, fmt.Sprintf("checkpoint %s[%d]", r, p))
			}
			return nil, 0, fmt.Errorf("%w: checkpoint read %s[%d]: %w", ErrStorage, r, p, err)
		}
		px.acc.diskRead += e.cfg.Cluster.DiskReadTime(bytes)
		px.acc.working += bytes
		return data, px.finishPartition(r, p, data, px.measure(r, p, data)), nil
	}

	var data []record.Record
	switch r.Kind {
	case rdd.KindSource:
		if p < 0 || p >= len(r.Source) {
			// Out-of-range source partitions are lineage-graph corruption, not
			// a runtime fault; keep the invariant panic.
			panic(fmt.Sprintf("engine: source %s has no partition %d", r, p))
		}
		data = r.Source[p]
		if record.CowCheckEnabled() && p < len(r.COWSums) {
			if got := record.Fingerprint(data); got != r.COWSums[p] {
				panic(fmt.Sprintf("engine: source %s[%d] mutated after graph construction (copy-on-write violation)", r, p))
			}
		}
		// Source partitions are immutable after graph construction, so the
		// size walk is memoized in rdd.PartBytes instead of re-walking the
		// slice on every recompute.
		bytes := px.measure(r, p, data)
		if r.SourceFromDisk {
			px.acc.diskRead += e.cfg.Cluster.DiskReadTime(bytes)
		}
		px.acc.working += bytes
		px.acc.bytesInput += bytes
		return data, px.finishPartition(r, p, data, bytes), nil
	default:
		if cg := fusableCoGroup(r); cg != nil {
			return px.filterCoGroup(r, cg, p)
		}
		base := len(px.inputs)
		defer px.popInputs(base)
		inputs, inputBytes, err := px.readInputs(r, p)
		if err != nil {
			return nil, 0, err
		}
		data = r.Transform(p, inputs)
		px.chargeTransform(r, inputBytes)
	}
	return data, px.finishPartition(r, p, data, px.measure(r, p, data)), nil
}

// readInputs materializes every dependency of r for partition p — a shuffle
// read or a narrow parent's recursion — into slots [base, base+len(r.Deps))
// of the plane's header stack, base being its length on entry, and returns
// those slots with the bytes the inputs are priced at. The caller pops the
// stack back to base. A parent's recursion pushes above the slots and may
// move the stack, so slots are addressed by index until every parent is
// materialized.
func (px *planeCtx) readInputs(r *rdd.RDD, p int) ([][]record.Record, int64, error) {
	e := px.e
	base := len(px.inputs)
	px.inputs = append(px.inputs, make([][]record.Record, len(r.Deps))...)
	var inputBytes int64
	for i, d := range r.Deps {
		if d.Shuffle {
			//starklint:ignore planetaint ReadReduce's lazy index build, which also transposes the shuffle reduce-major at width 1 (kept for one-plane batches and standalone callers such as the bench drivers), only runs when the shuffle is complete and dirty, and PrepareShuffleReads builds every such index from the event loop before parallel dispatch, its ranges on goroutines it joins before returning; the worker-side call only reads shared rows at runtime
			recs, bytes, err := e.store.ReadReduce(d.ShuffleID, p)
			if err != nil {
				var ce *storage.CorruptError
				if errors.As(err, &ce) {
					// Integrity failure on a map output: evict it and report
					// a fetch failure so the producing stage resubmits.
					px.dropCorrupt(false, ce.Shuffle, ce.MapPart,
						fmt.Sprintf("shuffle=%d map=%d", ce.Shuffle, ce.MapPart))
					return nil, 0, &fetchError{shuffle: d.ShuffleID, err: err}
				}
				if !e.store.ShuffleComplete(d.ShuffleID) {
					return nil, 0, &fetchError{shuffle: d.ShuffleID, err: err}
				}
				return nil, 0, fmt.Errorf("%w: shuffle read for %s[%d]: %w", ErrStorage, r, p, err)
			}
			// Map outputs are spread across the cluster: all bytes come
			// off disk, and on average (E-1)/E of them cross the network.
			px.acc.shuffleRead += e.cfg.Cluster.DiskReadTime(bytes)
			if n := e.cl.NumExecutors(); n > 1 {
				remote := bytes * int64(n-1) / int64(n)
				px.acc.shuffleRead += e.cfg.Cluster.NetTime(remote)
			}
			px.acc.bytesShuffle += bytes
			px.inputs[base+i] = recs
			inputBytes += bytes
		} else {
			pp := p
			if d.Map != nil {
				mapped, ok := d.Map(p)
				if !ok {
					continue // this parent contributes nothing here
				}
				pp = mapped
			}
			in, bytes, err := px.materialize(d.Parent, pp)
			if err != nil {
				return nil, 0, err
			}
			px.inputs[base+i] = in
			inputBytes += bytes
		}
	}
	return px.inputs[base:], inputBytes, nil
}

// chargeTransform charges one step's transform over inputBytes of input:
// its modeled compute time, its input bytes, and a transform time above the
// RDD's recorded maximum for the join to record.
func (px *planeCtx) chargeTransform(r *rdd.RDD, inputBytes int64) {
	ct := px.e.cfg.Cluster.ComputeTime(inputBytes, r.CostFactor)
	px.acc.compute += ct
	px.acc.bytesInput += inputBytes
	if ct > r.MaxTransformTime {
		// Only the join raises MaxTransformTime, so a time at or below
		// it now is still at or below it when this plane replays.
		px.transforms = append(px.transforms, transformRec{r: r, ct: ct})
	}
}

// fusableCoGroup returns r's parent when r is a Filter over a CoGroup that
// materializing r would recompute anyway: neither cached nor checkpointed
// (no cache holds a block of an RDD without CacheFlag; DESIGN §4, "Block
// directory"). It returns nil otherwise.
func fusableCoGroup(r *rdd.RDD) *rdd.RDD {
	if r.FilterPred == nil {
		return nil
	}
	cg := r.Deps[0].Parent
	if cg.CoGroupKeep == nil || cg.CacheFlag || cg.Checkpointed {
		return nil
	}
	return cg
}

// filterCoGroup computes partition p of the Filter f over the CoGroup cg as
// one kernel call that builds only the groups f keeps. It charges what
// materializing cg and then f charges: cg's inputs and transform, cg's size
// (the kernel sums the full output's when none is recorded) to the working
// set, then f's transform over those bytes and f's own partition.
func (px *planeCtx) filterCoGroup(f, cg *rdd.RDD, p int) ([]record.Record, int64, error) {
	base := len(px.inputs)
	defer px.popInputs(base)
	inputs, inputBytes, err := px.readInputs(cg, p)
	if err != nil {
		return nil, 0, err
	}
	cgBytes := partBytesOf(cg, p)
	data, raw := cg.CoGroupKeep(inputs, f.FilterPred, cgBytes == 0)
	px.chargeTransform(cg, inputBytes)
	if cgBytes == 0 {
		cgBytes = px.recordSize(cg, p, raw)
	}
	px.acc.working += cgBytes
	px.chargeTransform(f, cgBytes)
	return data, px.finishPartition(f, p, data, px.measure(f, p, data)), nil
}

// finishPartition charges the partition's bytes to the working set, caches
// it when requested, and returns the bytes.
func (px *planeCtx) finishPartition(r *rdd.RDD, p int, data []record.Record, bytes int64) int64 {
	px.acc.working += bytes
	if r.CacheFlag {
		px.cachePut(cluster.BlockID{RDD: r.ID, Partition: p}, data, bytes)
	}
	return bytes
}
