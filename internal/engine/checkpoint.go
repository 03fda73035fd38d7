package engine

import (
	"fmt"
	"time"

	"stark/internal/checkpoint"
	"stark/internal/journal"
	"stark/internal/rdd"
)

// serializationRatio converts cached bytes to checkpoint bytes (Fig. 17's
// constant factor).
const serializationRatio = 0.4

// checkpointStats supplies (d, c) for the optimizer: recovery delay is the
// maximum observed transform time, cost is the serialized size.
func (e *Engine) checkpointStats(r *rdd.RDD) (time.Duration, int64) {
	c := int64(float64(r.TotalBytes()) * serializationRatio)
	return r.MaxTransformTime, c
}

// maybeCheckpoint runs the configured checkpointing algorithm after a job
// completes, using the job's final RDD as the trigger (paper Sec. III-D:
// "Stark keeps track of all uncheckpointed RDDs, and triggers the
// checkpoint algorithm whenever the length of any path grows beyond the
// user defined failure recovery delay upper bound").
func (e *Engine) maybeCheckpoint(final *rdd.RDD) {
	cc := e.cfg.Checkpoint
	if cc.Mode == CheckpointOff {
		return
	}
	if !checkpoint.Violates(final, cc.Bound, e.checkpointStats) {
		return
	}
	var plan checkpoint.Plan
	switch cc.Mode {
	case CheckpointOptimal:
		plan = checkpoint.Optimize(final, cc.Bound, cc.Relax, e.checkpointStats)
	case CheckpointEdge:
		plan = checkpoint.EdgePlan(e.graph.RDDs(), e.checkpointStats)
	}
	for _, r := range plan.Select {
		e.ForceCheckpoint(r)
	}
}

// ForceCheckpoint persists every partition of an already-materialized RDD
// (the paper's RDD.forceCheckpoint API, which lifts Spark's restriction
// that checkpointing be requested before materialization). RDDs that were
// never materialized are skipped. With no live executor to produce the
// data the checkpoint is deferred until one restarts; a storage failure
// mid-checkpoint abandons the attempt (no partial Checkpointed state — a
// later trigger retries).
func (e *Engine) ForceCheckpoint(r *rdd.RDD) {
	if r.Checkpointed || r.PartBytes == nil {
		return
	}
	for p := 0; p < r.Parts; p++ {
		exec, ok := e.partitionHome(r, p)
		if !ok {
			e.deferCheckpoint(r)
			return
		}
		// The driver's own one-plane batch: materialize buffered, replay at
		// once. Checkpoint IO runs on a background thread, so the plane's
		// modeled cost is not charged to any task.
		px := e.newPlaneCtx(exec)
		data, bytes, err := px.materialize(r, p)
		e.applyEffects(exec, &px.planeEffects, nil)
		releasePlaneCtx(px)
		if err == nil {
			cpBytes := int64(float64(bytes) * serializationRatio)
			err = e.store.WriteCheckpoint(r.ID, p, data, cpBytes)
		}
		if err != nil {
			if e.tracer != nil {
				e.trace("checkpoint-abort", -1, -1, -1, -1,
					fmt.Sprintf("%s[%d]: %v", r, p, err))
			}
			return
		}
	}
	r.Checkpointed = true
	e.invalidateStageChains()
	e.journalAppend(journal.Record{Kind: journal.KindCheckpoint, A: int64(r.ID)})
	if e.tracer != nil {
		e.trace("checkpoint", -1, -1, -1, -1, r.String())
	}
}

// invalidateStageChains drops every live stage's memoized NarrowChain.
// Called whenever an RDD's Checkpointed flag flips while stages may be live
// (mid-run ForceCheckpoint via drainDeferredCheckpoints, journal replay,
// store reconciliation): the memo would otherwise keep walking through — or
// stopping at — the wrong checkpoint frontier.
func (e *Engine) invalidateStageChains() {
	for _, rec := range e.shuffles {
		if rec.producer != nil {
			rec.producer.InvalidateChain()
		}
	}
	for _, j := range e.jobTab {
		for _, sr := range j.stages {
			sr.st.InvalidateChain()
		}
	}
}

// deferCheckpoint parks an RDD whose checkpoint found no live executor;
// RestartExecutor drains the queue.
func (e *Engine) deferCheckpoint(r *rdd.RDD) {
	for _, q := range e.pendingCP {
		if q == r {
			return
		}
	}
	e.pendingCP = append(e.pendingCP, r)
	e.recUpdate(func(r *recMetrics) { r.CheckpointDeferrals++ })
	if e.tracer != nil {
		e.trace("checkpoint-defer", -1, -1, -1, -1, r.String())
	}
}

// drainDeferredCheckpoints retries checkpoints parked for lack of live
// executors.
func (e *Engine) drainDeferredCheckpoints() {
	if len(e.pendingCP) == 0 || !e.anyProcessAlive() {
		return
	}
	pending := e.pendingCP
	e.pendingCP = nil
	for _, r := range pending {
		e.ForceCheckpoint(r)
	}
}

// partitionHome picks the executor best placed to produce a partition: a
// cache holder first (the directory lists only live executors), the
// namespace primary second, any live executor last. ok is false when the
// cluster has no live executor at all.
func (e *Engine) partitionHome(r *rdd.RDD, p int) (int, bool) {
	if e.prefs = e.cl.AppendLocations(e.prefs[:0], blockID(r.ID, p)); len(e.prefs) > 0 {
		return e.prefs[0], true
	}
	if c, u, ok := e.unitOf(r, p); ok {
		if primary, ok := e.loc.Primary(c.name, u.Unit); ok && !e.cl.Executor(primary).Dead() {
			return primary, true
		}
	}
	alive := e.cl.AliveExecutors()
	if len(alive) == 0 {
		return -1, false
	}
	return alive[p%len(alive)], true
}
