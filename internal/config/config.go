// Package config holds the simulated-cluster cost model and the Stark
// feature switches. The defaults approximate the paper's testbed — Dell
// R620 servers with 16 GB RAM on gigabit Ethernet running Spark 1.3.1 — and
// are the calibration surface for reproducing the evaluation's shapes.
package config

import (
	"math"
	"time"
)

// GC models garbage-collection overhead as a function of executor memory
// pressure. Task compute time is multiplied by (1 + Factor(pressure)):
// below Knee the overhead is the flat Base fraction; above it the overhead
// grows polynomially toward Max at full memory. This reproduces the paper's
// Fig. 12 observation that cogrouping six RDDs "consumes an excessive
// amount of RAM, which leads to more frequent and expensive garbage
// collections".
type GC struct {
	Base  float64 // overhead fraction at low pressure
	Knee  float64 // pressure where growth starts, in [0,1)
	Max   float64 // overhead fraction at pressure 1.0
	Power float64 // growth exponent beyond the knee
}

// Factor returns the GC overhead fraction at the given memory pressure
// (used bytes / capacity, clamped to [0, 1]).
func (g GC) Factor(pressure float64) float64 {
	if pressure < 0 {
		pressure = 0
	}
	if pressure > 1 {
		pressure = 1
	}
	if pressure <= g.Knee {
		return g.Base
	}
	x := (pressure - g.Knee) / (1 - g.Knee)
	return g.Base + (g.Max-g.Base)*math.Pow(x, g.Power)
}

// Cluster configures the simulated cluster and its cost model. All byte
// quantities are *simulated* bytes: real in-process record sizes are
// multiplied by SizeScale so that modest record counts stand in for the
// paper's hundreds of megabytes per dataset.
type Cluster struct {
	NumExecutors      int
	SlotsPerExecutor  int
	MemoryPerExecutor int64 // simulated bytes of block-cache capacity

	DiskBandwidth int64 // bytes/s sequential
	NetBandwidth  int64 // bytes/s per flow

	// GroupPartitionOverhead is the extra cost a GroupResultTask /
	// GroupShuffleMapTask pays per member partition (iterator setup and
	// group bookkeeping). It is well below the engine's fixed per-task
	// overhead — grouping exists to cut scheduling cost — but makes
	// grouping slightly hurt when the workload is static and light (paper
	// Fig. 19's Stark-E curve).
	GroupPartitionOverhead time.Duration

	GC GC

	// SizeScale converts real in-process bytes to simulated bytes.
	SizeScale float64
}

// The cost-model constants every configuration shares.
const (
	diskLatency = 4 * time.Millisecond
	netLatency  = 500 * time.Microsecond
	// computeBandwidth is the per-slot processing rate, in bytes/s, for a
	// transformation with cost factor 1.0 (a simple map/filter pass).
	computeBandwidth = 400 << 20
)

// Default returns the calibrated baseline cluster: 8 workers of 16 GB, the
// size used by the co-locality experiments; throughput experiments override
// NumExecutors to 40.
func Default() Cluster {
	return Cluster{
		NumExecutors:           8,
		SlotsPerExecutor:       4,
		MemoryPerExecutor:      16 << 30,
		DiskBandwidth:          150 << 20,
		NetBandwidth:           110 << 20,
		GroupPartitionOverhead: 3 * time.Millisecond,
		GC:                     GC{Base: 0.05, Knee: 0.55, Max: 4.0, Power: 3},
		SizeScale:              1.0,
	}
}

// Execution configures the wall-clock data plane: how many OS-level worker
// goroutines execute task compute (transformations, shuffle bucketing,
// integrity checks) between virtual-time events. Parallelism never affects
// simulation results — the control plane stays single-threaded and joins
// data-plane results back in dispatch order, so runs are bit-identical at
// any setting. It only changes how much wall-clock time a run takes.
type Execution struct {
	// Parallelism bounds the data-plane worker pool. 1 executes task
	// compute sequentially on the event-loop goroutine; 0 (the default)
	// uses runtime.GOMAXPROCS(0).
	Parallelism int
}

// Recovery configures the engine's failure-handling policy: bounded task
// retry with virtual-time backoff, executor blacklisting after repeated
// failures, and speculative re-execution of stragglers.
type Recovery struct {
	// MaxTaskRetries bounds re-launches of a failed task beyond its first
	// attempt; exhausting it fails the job (spark.task.maxFailures - 1), so
	// 0 fails a job on its first task failure.
	MaxTaskRetries int
	// RetryBackoff is the virtual-time delay before the first retry; it
	// doubles per subsequent attempt.
	RetryBackoff time.Duration
	// BlacklistThreshold is the number of task failures on one executor
	// before it is blacklisted. 0 disables blacklisting.
	BlacklistThreshold int
	// BlacklistExpiry is how long a blacklisted executor is excluded from
	// scheduling before it gets probationary offers again; a successful
	// task then removes it from the blacklist.
	BlacklistExpiry time.Duration
	// Speculation enables speculative re-execution of stragglers.
	Speculation bool
	// SpeculationMultiplier flags a running task as a straggler when its
	// expected duration exceeds this multiple of the stage's median
	// completed-task duration.
	SpeculationMultiplier float64
	// SpeculationQuantile is the fraction of a stage's tasks that must have
	// completed before speculation kicks in.
	SpeculationQuantile float64
}

// DefaultRecovery mirrors Spark's defaults: 3 retries, no speculation, and
// a short blacklist with timed probation.
func DefaultRecovery() Recovery {
	return Recovery{
		MaxTaskRetries:        3,
		RetryBackoff:          50 * time.Millisecond,
		BlacklistThreshold:    3,
		BlacklistExpiry:       30 * time.Second,
		SpeculationMultiplier: 1.5,
		SpeculationQuantile:   0.75,
	}
}

// Heartbeat configures driver-side failure detection. When disabled (the
// zero value) the driver learns of executor failures omnisciently, exactly
// when they happen — the pre-network behaviour. Any other value enables it
// and must satisfy 0 < Interval <= SuspectAfter < DeadAfter: executors send
// heartbeats over the simulated network every Interval; the driver moves an
// executor alive → suspected when no heartbeat arrived for SuspectAfter
// (excluding it from scheduling) and suspected → dead after DeadAfter
// (bumping its epoch, resubmitting its tasks, and rejecting any stale-epoch
// results it later delivers). A heartbeat from a suspected executor clears
// the suspicion; one from a declared-dead executor rejoins it under the new
// epoch.
type Heartbeat struct {
	// Interval is the executor heartbeat period (also the detector's scan
	// period).
	Interval time.Duration
	// SuspectAfter is the missed-heartbeat window before suspicion.
	SuspectAfter time.Duration
	// DeadAfter is the missed-heartbeat window before a dead declaration.
	DeadAfter time.Duration
}

// Scheduler configures task scheduling policy.
type Scheduler struct {
	// LocalityWait is the delay-scheduling bound: how long a task set waits
	// for a data-local slot before accepting a remote one
	// (spark.locality.wait; default 3 s in Spark 1.3).
	LocalityWait time.Duration
}

// DefaultScheduler mirrors Spark 1.3 defaults.
func DefaultScheduler() Scheduler {
	return Scheduler{LocalityWait: 3 * time.Second}
}

// Features selects which Stark mechanisms are active, defining the paper's
// evaluated configurations (Sec. IV-A).
type Features struct {
	// CoLocality enables the LocalityManager: collection partitions of a
	// namespace map to fixed preferred executors.
	CoLocality bool
	// Extendable enables the GroupManager: group tasks plus threshold
	// split/merge elasticity.
	Extendable bool
	// MCF enables contention-aware remote scheduling.
	MCF bool
}

// ScaleBytes converts real bytes to simulated bytes.
func (c Cluster) ScaleBytes(realBytes int64) int64 {
	if c.SizeScale == 1.0 || c.SizeScale == 0 {
		return realBytes
	}
	return int64(float64(realBytes) * c.SizeScale)
}

// ComputeTime is the slot time to process the given simulated bytes at the
// given cost factor.
func (c Cluster) ComputeTime(bytes int64, factor float64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) * factor / computeBandwidth
	return time.Duration(sec * float64(time.Second))
}

// DiskReadTime is the time to sequentially read bytes from local disk.
func (c Cluster) DiskReadTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return diskLatency + time.Duration(float64(bytes)/float64(c.DiskBandwidth)*float64(time.Second))
}

// DiskWriteTime is the time to sequentially write bytes to local disk.
func (c Cluster) DiskWriteTime(bytes int64) time.Duration {
	// Writes and reads share bandwidth in this model.
	return c.DiskReadTime(bytes)
}

// NetTime is the time to move bytes across the network in one flow.
func (c Cluster) NetTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return netLatency + time.Duration(float64(bytes)/float64(c.NetBandwidth)*float64(time.Second))
}
