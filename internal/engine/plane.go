package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stark/internal/cluster"
	"stark/internal/rdd"
	"stark/internal/record"
)

// This file implements the engine's two-clock execution model. The control
// plane — scheduling, fault handling, recovery, checkpoint decisions — stays
// single-threaded on the virtual-time event loop. The data plane — the pure
// per-partition compute inside a task (user transforms, shuffle bucketing,
// integrity verification) — is deferred: execTask appends the task to a
// batch instead of running it inline, and drainBatch runs the batch at the
// end of the event that dispatched it, optionally on a worker pool, then
// joins results back into the control plane in dispatch order before the
// next event runs.
//
// Determinism argument: planes touch no shared mutable state. Cache reads go
// through a non-mutating Peek plus a per-plane overlay of the task's own
// writes; cache puts, LRU touches, partition sizes, transform times, stats
// deltas, block drops and traces are logged per plane and replayed by the
// join in dispatch order, exactly as a sequential deferred run would apply
// them.
// Virtual timestamps, task ordering and RNG draws therefore do not depend on
// the worker-pool size: parallelism 1 and N are byte-identical.

// batchEntry is a dispatched task's data-plane state, embedded in the task:
// the plane context runPlanes hands it, released at its join.
type batchEntry struct {
	px *planeCtx
	// panicked holds a panic value captured on a worker goroutine, rethrown
	// at join time so plane panics (e.g. STARK_CHECK_COW violations) always
	// surface on the event-loop goroutine where callers can recover them.
	panicked any
}

// cacheOp logs one deferred executor-cache operation in program order. Gets
// are replayed purely for their LRU recency effect.
type cacheOp struct {
	put   bool
	id    cluster.BlockID
	data  []record.Record
	bytes int64
}

// deferredDrop logs an integrity-failure eviction (corrupt checkpoint or map
// output) discovered by the plane, applied and counted at join time.
type deferredDrop struct {
	checkpoint bool
	a, b       int
	detail     string
}

// sizeRec logs a partition size the plane measured because rdd.PartBytes
// had none yet.
type sizeRec struct {
	r     *rdd.RDD
	p     int
	bytes int64
}

// transformRec logs a narrow step's modeled transform time that exceeds the
// RDD's recorded maximum.
type transformRec struct {
	r  *rdd.RDD
	ct time.Duration
}

// planeEffects is the side-effect log one plane execution buffers for
// applyEffects to replay on the control plane. Every log is append-only and
// keeps its capacity in the pooled context.
type planeEffects struct {
	ops   []cacheOp
	drops []deferredDrop
	// sizes are written into rdd.PartBytes and transforms max-merged into
	// rdd.MaxTransformTime. Transforms are pure, so an entry the plane
	// logs twice (a partition materialized twice) carries the same value.
	sizes        []sizeRec
	transforms   []transformRec
	hits, misses int64
	// recomputes counts cache misses on blocks a policy eviction previously
	// dropped, merged into CacheStats at replay.
	recomputes int64
}

// planeCtx carries one plane execution's state: the cost accumulator plus
// the buffered side effects. There is no synchronous mode; every caller,
// ForceCheckpoint included, replays the effects with applyEffects.
type planeCtx struct {
	e    *Engine
	exec int
	acc  costAcc

	// local overlays the executor cache with this plane's own deferred puts,
	// so a diamond-shaped narrow chain re-reading a partition it just cached
	// hits, as it would inline.
	local map[cluster.BlockKey]localBlock
	planeEffects

	// scr backs the plane's transient tables (shuffle bucketing indexes,
	// span permutations) with bump-allocated arenas. It is reset at the
	// batch boundary when the context is released, so steady-state planes
	// reuse one warm buffer per pool instead of allocating per task.
	scr record.Scratch

	// inputs is the stack of input headers materialize hands to transforms:
	// each narrow step pushes one slot per dependency and pops them when its
	// transform returns, so a step costs no header allocation.
	inputs [][]record.Record

	dur time.Duration
	err error
}

// localBlock is a block the plane put, with the bytes it was priced at.
type localBlock struct {
	data  []record.Record
	bytes int64
}

// planeCtxPool hands out contexts whose logs keep their capacity across
// uses. A fresh context's size and transform logs start with room for a
// typical plane's entries, so a plane that logs a few does not grow them
// entry by entry.
var planeCtxPool = sync.Pool{New: func() any {
	return &planeCtx{planeEffects: planeEffects{
		sizes:      make([]sizeRec, 0, 8),
		transforms: make([]transformRec, 0, 8),
	}}
}}

func (e *Engine) newPlaneCtx(exec int) *planeCtx {
	px := planeCtxPool.Get().(*planeCtx)
	px.e = e
	px.exec = exec
	return px
}

func releasePlaneCtx(px *planeCtx) {
	clear(px.local)
	clear(px.ops)
	clear(px.drops)
	clear(px.sizes)
	clear(px.transforms)
	px.scr.Reset()
	*px = planeCtx{local: px.local, scr: px.scr, inputs: px.inputs, planeEffects: planeEffects{
		ops: px.ops[:0], drops: px.drops[:0], sizes: px.sizes[:0], transforms: px.transforms[:0]}}
	planeCtxPool.Put(px)
}

// popInputs truncates the input-header stack to n slots, clearing the
// vacated ones so the stack pins no partition.
func (px *planeCtx) popInputs(n int) {
	clear(px.inputs[n:])
	px.inputs = px.inputs[:n]
}

// cacheGet reads partition p of r from the plane's executor cache without
// touching LRU order, with the bytes it is priced at; the recency update
// replays in applyEffects. A block this plane put comes from the overlay
// with the bytes it was put at. Any other block was put, and its size
// written to rdd.PartBytes, by an earlier join.
//
//starklint:hotpath
func (px *planeCtx) cacheGet(r *rdd.RDD, p int) ([]record.Record, int64, bool) {
	id := cluster.BlockID{RDD: r.ID, Partition: p}
	if b, ok := px.local[id.Key()]; ok {
		px.ops = append(px.ops, cacheOp{id: id})
		return b.data, b.bytes, true
	}
	data, ok := px.e.cl.CachePeek(px.exec, id)
	if !ok {
		return nil, 0, false
	}
	px.ops = append(px.ops, cacheOp{id: id})
	return data, partBytesOf(r, p), true
}

// cachePut logs a put to the plane's executor cache; the store, its
// evictions and task wake-ups happen in applyEffects.
func (px *planeCtx) cachePut(id cluster.BlockID, data []record.Record, bytes int64) {
	if px.local == nil {
		px.local = make(map[cluster.BlockKey]localBlock)
	}
	px.local[id.Key()] = localBlock{data: data, bytes: bytes}
	px.ops = append(px.ops, cacheOp{put: true, id: id, data: data, bytes: bytes})
}

// partBytesOf reads a recorded partition size, 0 when none is recorded.
func partBytesOf(r *rdd.RDD, p int) int64 {
	if p < len(r.PartBytes) {
		return r.PartBytes[p]
	}
	return 0
}

// measure returns partition p's recorded size, or walks data for it and
// logs the size for the join to record.
func (px *planeCtx) measure(r *rdd.RDD, p int, data []record.Record) int64 {
	if b := partBytesOf(r, p); b > 0 {
		return b
	}
	return px.recordSize(r, p, record.SizeOfSlice(data))
}

// recordSize scales a partition's raw size and logs it for the join to
// record.
func (px *planeCtx) recordSize(r *rdd.RDD, p int, raw int64) int64 {
	b := px.e.cfg.Cluster.ScaleBytes(raw)
	px.sizes = append(px.sizes, sizeRec{r: r, p: p, bytes: b})
	return b
}

// cacheHit / cacheMiss record cache-stat deltas.
func (px *planeCtx) cacheHit() { px.hits++ }

func (px *planeCtx) cacheMiss() { px.misses++ }

// evictedRecompute records a cache miss on a block a policy eviction
// previously dropped — the recompute penalty the DAG-aware policy exists to
// reduce.
func (px *planeCtx) evictedRecompute() { px.recomputes++ }

// dropCorrupt logs the eviction of a corrupt persisted block.
func (px *planeCtx) dropCorrupt(checkpoint bool, a, b int, detail string) {
	px.drops = append(px.drops, deferredDrop{checkpoint: checkpoint, a: a, b: b, detail: detail})
}

// drainBatch is the event boundary: it executes every deferred task batch,
// joins the results back in dispatch order, and reschedules. New installs it
// as the loop's post-step hook, so every event's planes join before the next
// event runs, as inline execution would; SubmitJob, KillExecutor and
// RestartExecutor call it explicitly for work dispatched outside the loop.
// Joins only replay buffered effects and schedule completion events — no
// user callbacks run here — so re-entry cannot occur through job code; the
// draining guard makes that assumption explicit.
func (e *Engine) drainBatch() {
	if e.draining || len(e.batch) == 0 {
		return
	}
	e.draining = true
	for len(e.batch) > 0 {
		// A dispatch while this batch runs or joins must not land in it, so
		// e.batch takes the other buffer until the batch is joined.
		batch := e.batch
		e.batch = e.batchSpare[:0]
		e.runPlanes(batch)
		for _, t := range batch {
			e.joinTask(t)
		}
		clear(batch)
		e.batchSpare = batch
		// Joined cache puts may have promoted plain tasks (wakeTasks), and
		// the dispatching round saw pre-batch cache state; run another round
		// so those launches happen at this event's virtual time, as inline
		// execution would.
		e.schedule()
	}
	e.draining = false
}

// poolEligible reports whether the worker pool may run a batch of n planes.
// The pool engages only when it cannot be observed: more than one plane,
// parallelism configured above one, and no probabilistic storage-fault
// injection. StorageErrorProb > 0 is the ONE fault knob that forces the
// plane sequential: its per-operation RNG draws must happen in dispatch
// order (StorageOp is draw-free at probability zero, so every other fault
// kind — crashes, stragglers, block loss/corruption, net faults, driver
// crashes, tenant storms — keeps the pool engaged). TestPoolEligibility
// pins this contract so chaos runs can never silently go sequential.
func (e *Engine) poolEligible(n int) bool {
	return e.par > 1 && n > 1 && (e.inj == nil || e.inj.Schedule().StorageErrorProb <= 0)
}

// runPlanes executes a batch's data planes, on the worker pool when
// poolEligible allows; each worker claims one plane per atomic add. A
// batch is one event's dispatches (batch-join's are 16 planes), so
// per-plane claiming does not contend. Before a pooled batch, every stale
// shuffle index is built at the pool's width, so the transposition between
// a map stage and its reduce stage runs on all cores too. Sequential
// fallback still defers, so scheduling semantics are identical either way.
func (e *Engine) runPlanes(batch []*task) {
	for _, t := range batch {
		t.px = e.newPlaneCtx(t.exec)
	}
	if e.poolEligible(len(batch)) {
		// A shuffle read builds a stale per-reduce index lazily and
		// serially; build them now, split over the pool's width, so
		// concurrent planes only ever read.
		e.store.PrepareShuffleReads(e.par)
		workers := e.par
		if workers > len(batch) {
			workers = len(batch)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					t := batch[i]
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.panicked = r
							}
						}()
						e.runPlane(t)
					}()
				}
			}()
		}
		wg.Wait()
		return
	}
	for _, t := range batch {
		e.runPlane(t)
	}
}

// joinTask applies one plane's buffered effects on the control plane, in
// dispatch order, and schedules the task's completion event — the deferred
// twin of the tail of the old inline execTask.
//
//starklint:hotpath
func (e *Engine) joinTask(t *task) {
	if t.panicked != nil {
		panic(t.panicked)
	}
	px := t.px
	t.px = nil
	defer releasePlaneCtx(px)
	if t.aborted || t.lost {
		// Cancelled between dispatch and join; inline execution would never
		// have started, so apply nothing.
		e.releaseSlot(t)
		return
	}
	oomFailed := e.applyEffects(px.exec, &px.planeEffects, t)
	if px.err != nil {
		t.failErr = px.err
	} else if oomFailed {
		t.failErr = fmt.Errorf("%w: executor %d over capacity under mem pressure", ErrOOM, px.exec)
	}
	dur := px.dur
	// A straggling executor stretches the modeled duration; speculation keys
	// off the resulting expectedEnd.
	if f := e.cl.Executor(px.exec).Slowdown(); f > 1 {
		dur = time.Duration(float64(dur) * f)
	}
	t.expectedEnd = e.loop.Now() + dur
	e.loop.AfterArg(dur, e.onDone, t)
}

// applyEffects replays one plane's buffered effects on the control plane:
// cache recency and puts in program order, integrity drops, partition
// sizes, transform times and cache-stat deltas. t is the task the plane ran
// for, nil for the driver's own checkpoint materialization. Inside an armed
// ExecutorOOM window a task's first refused put is fatal and the return
// value reports it; the driver has no task to fail, so its refusals are
// only counted.
func (e *Engine) applyEffects(exec int, fx *planeEffects, t *task) (oomFailed bool) {
	jobID, stageID, taskID := -1, -1, -1
	if t != nil {
		jobID, stageID, taskID = t.sr.job.id, t.sr.st.ID, t.id
	}
	oomWindow := t != nil && e.oomArmed[exec]
	for _, op := range fx.ops {
		if !op.put {
			e.cl.CacheGet(exec, op.id) // LRU recency replay
			continue
		}
		if oomFailed {
			// The task died at its first over-bound write; later writes
			// never happened.
			continue
		}
		evicted, st := e.cl.CachePutChecked(exec, op.id, op.data, op.bytes)
		e.noteEvicted(evicted)
		e.onEvictions(exec, evicted)
		if st == cluster.PutStored {
			e.wakeTasks(op.id)
			continue
		}
		// The store refused the cache (over the shrunk bound, or evicting
		// would break a pinned peer group). Inside an armed ExecutorOOM
		// window that write is fatal; otherwise degrade gracefully — the
		// partition already streamed to its consumer uncached, and the
		// refusal evicted nothing, so there is no thrash to pay.
		if oomWindow {
			oomFailed = true
			e.cacheUpdate(func(m *cacheMetrics) { m.OOMTaskFailures++ })
			if e.tracer != nil {
				e.trace("task-oom", jobID, stageID, taskID, exec,
					fmt.Sprintf("block=%v status=%v", op.id, st)) //starklint:ignore hotalloc formats only with a tracer installed
			}
			continue
		}
		e.countRefusal(st)
		if e.tracer != nil {
			e.trace("cache-refuse", jobID, stageID, taskID, exec,
				fmt.Sprintf("block=%v status=%v", op.id, st)) //starklint:ignore hotalloc formats only with a tracer installed
		}
	}
	for _, d := range fx.drops {
		if d.checkpoint {
			e.store.DropCheckpoint(d.a, d.b)
		} else {
			e.store.DropMapOutput(d.a, d.b)
		}
		e.recUpdate(func(m *recMetrics) { m.CorruptBlocks++ })
		e.trace("block-corrupt", -1, -1, -1, -1, d.detail)
	}
	// Partition sizes and transform times are idempotent across planes
	// (transforms are pure).
	for _, s := range fx.sizes {
		if s.r.PartBytes == nil {
			s.r.PartBytes = make([]int64, s.r.Parts)
		}
		s.r.PartBytes[s.p] = s.bytes
	}
	for _, tr := range fx.transforms {
		if tr.ct > tr.r.MaxTransformTime {
			tr.r.MaxTransformTime = tr.ct
		}
	}
	e.stats.CacheHits += fx.hits
	e.stats.CacheMisses += fx.misses
	if fx.recomputes > 0 {
		n := int(fx.recomputes)
		//starklint:ignore hotalloc cacheUpdate calls the closure before it returns, so the closure does not escape and stays on the stack
		e.cacheUpdate(func(m *cacheMetrics) { m.RecomputesAfterEviction += n })
	}
	return oomFailed
}
