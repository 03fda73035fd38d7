package engine

import (
	"fmt"

	"stark/internal/cluster"
	"stark/internal/metrics"
)

// This file wires the pluggable eviction policy into the driver: policy
// installation, the DAG reference counts charged per stage run, and the
// memory-pressure counters (CacheStats) that experiments read.

// cacheMetrics shortens the signature of cacheUpdate closures.
type cacheMetrics = metrics.CacheMetrics

// cacheUpdate applies one mutation to the cache counters under recMu (same
// discipline as recUpdate: writes on the loop goroutine, snapshots from
// anywhere).
func (e *Engine) cacheUpdate(f func(*cacheMetrics)) {
	e.recMu.Lock()
	f(&e.cacheRec)
	e.recMu.Unlock()
}

// CacheStats returns a snapshot of the memory-pressure and eviction-policy
// counters. Safe to call from any goroutine.
func (e *Engine) CacheStats() metrics.CacheMetrics {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	return e.cacheRec
}

// validateCachePolicy rejects unknown Config.CachePolicy values.
func validateCachePolicy(p string) error {
	switch p {
	case "", "lru", "dag":
		return nil
	}
	return fmt.Errorf("engine: unknown cache policy %q (want \"lru\" or \"dag\")", p)
}

// installCachePolicy applies Config.CachePolicy to the cluster's block
// stores. The DAG policy's group function resolves peer blocks through the
// engine's namespace unit mapping, so a collection partition group is pinned
// or evicted as a whole.
func (e *Engine) installCachePolicy() {
	if err := validateCachePolicy(e.cfg.CachePolicy); err != nil {
		panic(err) // misconfiguration; Validate offers the error-returning path
	}
	if e.cfg.CachePolicy != "dag" {
		e.cacheRec.Policy = "lru"
		return
	}
	e.dagPol = cluster.NewDAGPolicy()
	e.dagPol.SetGroupFn(e.unitIDOf)
	e.cl.SetPolicy(e.dagPol)
	e.cacheRec.Policy = "dag"
}

// noteEvicted marks policy-evicted blocks so later misses on them count as
// recomputes-after-eviction (materialize.go reads the set from plane
// goroutines; it is only mutated here, at join, while planes are quiesced).
func (e *Engine) noteEvicted(evicted []cluster.BlockID) {
	for _, id := range evicted {
		e.evictedEver.Put(id.Key(), 0)
	}
}

// countRefusal folds one graceful cache refusal into the counters.
func (e *Engine) countRefusal(st cluster.PutStatus) {
	//starklint:ignore hotalloc cacheUpdate calls the closure before it returns, so the closure does not escape and stays on the stack
	e.cacheUpdate(func(m *cacheMetrics) {
		m.CacheRefusals++
		if st == cluster.PutPinnedBlocked {
			m.PinnedEvictionsBlocked++
		}
	})
}

// chargeStage charges one DAG reference per cacheable RDD the stage's
// narrow chain reads or produces. The charges are remembered on the run so
// release is exact and idempotent. Refcounts are volatile driver state:
// CrashDriver resets the table wholesale and resubmission re-charges fresh
// runs here.
func (e *Engine) chargeStage(sr *stageRun) {
	if e.dagPol == nil || sr.charged != nil {
		return
	}
	seen := make(map[int]bool)
	for _, r := range sr.st.NarrowChain() {
		if r.CacheFlag && !seen[r.ID] {
			seen[r.ID] = true
			sr.charged = append(sr.charged, r.ID)
			e.dagPol.Charge(r.ID, 1)
		}
	}
}

// releaseStage returns a run's charges once the stage truly completed (or
// its job finished, covering failure and cancellation leftovers).
func (e *Engine) releaseStage(sr *stageRun) {
	if e.dagPol == nil {
		return
	}
	for _, id := range sr.charged {
		e.dagPol.Release(id, 1)
	}
	sr.charged = nil
}
