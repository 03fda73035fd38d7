package engine

import (
	"fmt"
	"time"

	"stark/internal/cluster"
	"stark/internal/metrics"
	"stark/internal/rdd"
)

// Stats aggregates engine-lifetime counters: how often the data plane found
// blocks in the local cache versus recomputing them, total simulated bytes
// moved, and scheduling outcomes. The co-locality experiments are, at
// bottom, manipulations of these numbers.
type Stats struct {
	Jobs  int
	Tasks int

	CacheHits   int64
	CacheMisses int64

	BytesShuffled int64
	BytesInput    int64

	ComputeTime time.Duration
	GCTime      time.Duration
	ShuffleTime time.Duration

	LocalTasks  int
	RemoteTasks int

	// Cross-job lineage sharing: SharedStageSubs counts stage runs that
	// subscribed to another job's in-flight shuffle-map execution instead of
	// running their own copy (in-flight stage dedup); SharedShuffleSkips
	// counts map stages skipped wholesale because their shuffle outputs
	// already persisted from an earlier job (cache-level dedup).
	SharedStageSubs    int
	SharedShuffleSkips int
}

// CacheHitRate reports hits / (hits + misses), 0 when nothing was read.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// LocalityRate reports the NODE_LOCAL fraction of launched tasks.
func (s Stats) LocalityRate() float64 {
	total := s.LocalTasks + s.RemoteTasks
	if total == 0 {
		return 0
	}
	return float64(s.LocalTasks) / float64(total)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("jobs=%d tasks=%d cacheHit=%.0f%% local=%.0f%% shuffled=%dMB compute=%v gc=%v",
		s.Jobs, s.Tasks, s.CacheHitRate()*100, s.LocalityRate()*100,
		s.BytesShuffled>>20, s.ComputeTime.Round(time.Millisecond), s.GCTime.Round(time.Millisecond))
}

// Stats returns a snapshot of the engine-lifetime counters.
func (e *Engine) Stats() Stats { return e.stats }

// recordTaskStats folds one finished task into the lifetime counters.
func (e *Engine) recordTaskStats(tm metrics.TaskMetrics) {
	e.stats.Tasks++
	e.stats.BytesShuffled += tm.BytesShuffle
	e.stats.BytesInput += tm.BytesInput
	e.stats.ComputeTime += tm.Compute
	e.stats.GCTime += tm.GC
	e.stats.ShuffleTime += tm.ShuffleRead
	switch tm.Locality {
	case metrics.NodeLocal:
		e.stats.LocalTasks++
	case metrics.Remote:
		e.stats.RemoteTasks++
	}
}

// DropCached drops every cached block of the RDD, wherever the cluster's
// directory says a replica lives, in ascending partition then executor order
// — the one "this dataset's cache is gone" primitive under Unpersist and the
// stream window's eviction. Only executor caches and their directory and
// unit-index entries change; what else the caller forgets (cache flag,
// replica lists, a journal record) is the caller's.
func (e *Engine) DropCached(r *rdd.RDD) {
	for p := 0; p < r.Parts; p++ {
		e.cl.DropReplicas(cluster.BlockID{RDD: r.ID, Partition: p})
	}
}

// Unpersist drops every cached block of the RDD across the cluster and
// clears its cache flag — Spark's RDD.unpersist, the "evict" half of the
// paper's dynamically loaded and evicted dataset collections.
func (e *Engine) Unpersist(r *rdd.RDD) {
	r.CacheFlag = false
	e.DropCached(r)
	for p := 0; p < r.Parts; p++ {
		c, u, ok := e.unitOf(r, p)
		if !ok {
			continue
		}
		// Re-derive replica lists for the unit now that this RDD is gone.
		for _, exec := range e.loc.Preferred(c.name, u.Unit) {
			if !e.cl.UnitCached(exec, u) {
				e.loc.RemoveReplica(c.name, u.Unit, exec)
			}
		}
	}
}
