package stark

import (
	"time"

	"stark/internal/config"
	"stark/internal/engine"
	"stark/internal/fault"
	"stark/internal/metrics"
	netsim "stark/internal/net"
)

// FaultSchedule is a deterministic, seed-driven fault schedule: executor
// crashes (with optional restart), straggler slowdowns, lost persisted
// blocks, and a per-operation transient storage error probability. Arm one
// with WithFaults; equal schedules on equal seeds replay bit-identically.
type FaultSchedule = fault.Schedule

// ExecutorCrash kills an executor at a virtual time and, when RestartAfter
// is positive, revives it that much later with a cold cache.
type ExecutorCrash = fault.Crash

// StragglerFault slows an executor by Factor for a window of virtual time.
type StragglerFault = fault.Straggler

// BlockLossFault deletes one persisted shuffle or checkpoint block.
type BlockLossFault = fault.BlockLoss

// PartitionFault cuts one executor off from the driver bidirectionally for
// a window of virtual time: heartbeats, task launches, and task results are
// all lost until the partition heals.
type PartitionFault = fault.Partition

// NetDelayFault adds extra latency to every control message for a window of
// virtual time (the delayed-heartbeat fault).
type NetDelayFault = fault.NetDelay

// BlockCorruptFault flips the stored checksum of one persisted shuffle or
// checkpoint block; the next read detects the mismatch and recomputes
// through lineage.
type BlockCorruptFault = fault.BlockCorrupt

// DriverCrashFault crashes the driver process itself at a virtual time,
// discarding all volatile driver state (and optionally tearing TearTail
// bytes off the write-ahead journal, a crash mid-append), then restarts it
// RestartAfter later; the restarted driver replays the journal and resumes.
// Requires WithDriverRecovery.
type DriverCrashFault = fault.DriverCrash

// MemPressureFault shrinks one executor's effective cache capacity to
// Factor times its configured size for a window of virtual time; puts that
// no longer fit degrade to counted cache refusals (compute-and-stream).
type MemPressureFault = fault.MemPressure

// ExecutorOOMFault arms an out-of-memory window on one executor: while
// armed, a cache write the (possibly pressure-shrunk) capacity cannot admit
// fails its task with ErrOOM, which retries and recomputes through lineage.
type ExecutorOOMFault = fault.ExecutorOOM

// NetworkConfig parameterizes the simulated control network: base one-way
// delay and deterministic jitter. Messages are lost only to the fault
// schedule (MsgDropProb and partitions); reliable ones retransmit with a
// fixed, doubling timeout. The zero value is a perfect network that delivers
// synchronously — the pre-network engine behaviour.
type NetworkConfig = netsim.Config

// NetworkStats counts the control messages the simulated network carried,
// dropped, and retransmitted.
type NetworkStats = netsim.Stats

// FaultStats counts the faults an injector actually delivered.
type FaultStats = fault.Stats

// RecoveryStats aggregates the engine's fault-handling counters and the
// measured recovery delays.
type RecoveryStats = metrics.RecoveryMetrics

// CacheStats aggregates the engine's memory-pressure counters: graceful
// cache refusals, pinned-group refusals, OOM task failures, and recomputes
// of previously evicted blocks.
type CacheStats = metrics.CacheMetrics

// ErrInjected marks errors produced by the fault injector.
var ErrInjected = fault.ErrInjected

// ErrOOM marks a task failed because a cache write exceeded its executor's
// capacity inside an armed ExecutorOOMFault window.
var ErrOOM = engine.ErrOOM

// RandomFaultSchedule derives a randomized but fully deterministic fault
// schedule from a seed: 1-3 executor crashes (never executor 0, always
// restarting), up to two straggler windows, up to three block losses, and a
// small transient storage error probability, all inside the horizon.
func RandomFaultSchedule(seed int64, horizon time.Duration, executors int) FaultSchedule {
	return fault.RandomSchedule(seed, horizon, executors)
}

// WithFaults arms a deterministic fault schedule on the engine's virtual
// clock.
func WithFaults(s FaultSchedule) Option {
	return func(c *engine.Config) { c.Faults = s }
}

// WithSpeculation enables speculative re-execution of stragglers: once
// quantile of a stage's tasks finished, running tasks expected to exceed
// multiplier times the stage median get a second copy on another executor;
// the first finisher wins.
func WithSpeculation(multiplier, quantile float64) Option {
	return func(c *engine.Config) {
		c.Recovery.Speculation = true
		c.Recovery.SpeculationMultiplier = multiplier
		c.Recovery.SpeculationQuantile = quantile
	}
}

// WithNetwork routes all driver-executor control traffic (task launches,
// task results, heartbeats) through a simulated network with the given
// delay and jitter. Without this option the control network is perfect and
// adds no latency.
func WithNetwork(nc NetworkConfig) Option {
	return func(c *engine.Config) { c.Network = nc }
}

// WithHeartbeat enables heartbeat-based failure detection: executors
// heartbeat the driver every interval over the (simulated) control network;
// the driver suspects an executor after suspectAfter without a heartbeat
// (excluding it from scheduling) and declares it dead after deadAfter
// (bumping its epoch and resubmitting its tasks; stale-epoch results are
// rejected). The timeouts must satisfy
// 0 < interval <= suspectAfter < deadAfter: NewContext panics otherwise and
// ValidateConfig reports the error. Without this option the driver learns of
// failures omnisciently, exactly when they happen.
func WithHeartbeat(interval, suspectAfter, deadAfter time.Duration) Option {
	return func(c *engine.Config) {
		c.Heartbeat = config.Heartbeat{
			Interval:     interval,
			SuspectAfter: suspectAfter,
			DeadAfter:    deadAfter,
		}
	}
}

// WithDriverRecovery makes the driver itself a recoverable fault domain: a
// write-ahead journal records every commit point (namespace registrations,
// group splits and merges, map-output commits, checkpoint completions, job
// lifecycle, blacklist transitions, stream window movement), and a
// DriverCrashFault can kill the driver mid-run — the restarted driver
// replays the journal, re-handshakes the executors under a new incarnation,
// and resumes every in-flight job from its last committed stage.
func WithDriverRecovery() Option {
	return func(c *engine.Config) { c.DriverRecovery = true }
}

// ValidateConfig checks an option set for configuration errors (e.g. a
// heartbeat death timeout at or below the suspicion timeout) without
// building a cluster. NewContext panics on the same errors.
func ValidateConfig(opts ...Option) error {
	cfg := engine.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return engine.Validate(cfg)
}

// WithCachePolicy selects the executor-cache eviction policy: "lru" (the
// default) or "dag", the DAG-aware policy that evicts zero-reference blocks
// first and pins collection peer groups all-or-nothing.
func WithCachePolicy(policy string) Option {
	return func(c *engine.Config) { c.CachePolicy = policy }
}

// RecoveryStats reports the engine's fault-handling counters and measured
// recovery delays so far.
func (c *Context) RecoveryStats() RecoveryStats { return c.eng.Recovery() }

// CacheStats reports the memory-pressure and eviction-policy counters so
// far.
func (c *Context) CacheStats() CacheStats { return c.eng.CacheStats() }

// NetworkStats reports the control-network message counters so far. The
// counters are not synchronised: call it only from the goroutine that runs
// jobs, between actions. RecoveryStats, CacheStats, FaultStats and
// Blacklisted are the accessors safe from any goroutine.
func (c *Context) NetworkStats() NetworkStats { return c.eng.Network().Stats() }

// Blacklisted lists the executors currently blacklisted, ascending.
func (c *Context) Blacklisted() []int { return c.eng.Blacklisted() }

// FaultStats reports the faults delivered so far; zero when no schedule is
// armed.
func (c *Context) FaultStats() FaultStats {
	if in := c.eng.Injector(); in != nil {
		return in.Stats()
	}
	return FaultStats{}
}
