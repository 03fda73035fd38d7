package stark

import (
	"stark/internal/engine"
)

// TraceEvent is one scheduler event on the virtual timeline; install a sink
// with Context.SetTracer to observe job/stage/task lifecycles, failures,
// checkpoints, and replication decisions.
type TraceEvent = engine.TraceEvent

// SetTracer installs a trace sink (nil disables). The sink runs
// synchronously inside the event loop; keep it cheap.
func (c *Context) SetTracer(sink func(TraceEvent)) { c.eng.SetTracer(sink) }

// ExecutorStats is a point-in-time view of one simulated executor.
type ExecutorStats struct {
	ID          int
	Dead        bool
	Slots       int
	BusySlots   int
	CacheUsed   int64
	CacheLimit  int64
	CacheBlocks int
}

// ClusterStats reports every executor's slots and cache occupancy — the
// state co-locality and replication manipulate.
func (c *Context) ClusterStats() []ExecutorStats {
	cl := c.eng.Cluster()
	out := make([]ExecutorStats, 0, cl.NumExecutors())
	for _, e := range cl.Executors() {
		out = append(out, ExecutorStats{
			ID:          e.ID,
			Dead:        e.Dead(),
			Slots:       e.Slots,
			BusySlots:   e.Busy(),
			CacheUsed:   e.Store.Used(),
			CacheLimit:  e.Store.Capacity(),
			CacheBlocks: e.Store.Len(),
		})
	}
	return out
}

// CheckClusterConsistency verifies block-directory and slot invariants;
// tests and long-running drivers can call it after failure churn.
func (c *Context) CheckClusterConsistency() error {
	return c.eng.Cluster().CheckConsistency()
}

// EngineStats aggregates engine-lifetime counters: cache hit rate, locality
// rate, bytes shuffled, compute and GC time.
type EngineStats = engine.Stats

// Stats snapshots the engine-lifetime counters. The counters are not
// synchronised: call it only from the goroutine that runs jobs, between
// actions. RecoveryStats, CacheStats, FaultStats and Blacklisted are the
// accessors safe from any goroutine.
func (c *Context) Stats() EngineStats { return c.eng.Stats() }
