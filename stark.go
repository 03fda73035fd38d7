package stark

import (
	"time"

	"stark/internal/config"
	"stark/internal/engine"
	"stark/internal/group"
	"stark/internal/metrics"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/workload"
	"stark/internal/zorder"
)

// Record is the key-value element type of every dataset.
type Record = record.Record

// Pair builds a Record.
func Pair(key string, value any) Record { return record.Pair(key, value) }

// CoGrouped is the value type CoGroup produces: a pointer to one value
// slice per parent (read v.Groups[i]). Every CoGrouped of a partition points
// into one slab, so keeping one keeps the slab alive; treat it as read-only.
type CoGrouped = record.CoGrouped

// Joined is the value type Join produces: a pointer to one left/right value
// pair (read v.Left, v.Right). Every Joined of a partition points into one
// slab, so keeping one keeps the slab alive; treat it as read-only.
type Joined = record.Joined

// Partitioner maps keys to partitions; see NewHashPartitioner,
// NewRangePartitioner and NewStaticRangePartitioner.
type Partitioner = partition.Partitioner

// NewHashPartitioner returns Spark's default hash partitioner over n
// partitions.
func NewHashPartitioner(n int) Partitioner { return partition.NewHash(n) }

// NewRangePartitioner fits fresh range boundaries to a key sample. Every
// call yields a distinct partitioner identity (Spark-R semantics): RDDs
// partitioned by different calls are NOT co-partitioned.
func NewRangePartitioner(sample []string, n int) Partitioner {
	return partition.NewRange(sample, n)
}

// NewStaticRangePartitioner builds a range partitioner from fixed
// boundaries; equal boundaries give co-partitioning (Stark-S semantics).
func NewStaticRangePartitioner(bounds []string) Partitioner {
	return partition.NewStaticRange(bounds)
}

// UniformKeyBounds returns n-1 boundaries uniform over printable string
// keys, for NewStaticRangePartitioner.
func UniformKeyBounds(n int) []string { return partition.UniformBounds(n) }

// HexKeyBounds returns n-1 boundaries uniform over fixed-width hex keys
// such as Z-order keys.
func HexKeyBounds(n, width int) []string { return partition.HexBounds(n, width) }

// ZGrid maps points in the unit square onto Z-order string keys whose
// lexicographic order follows the space-filling curve; use it to build
// spatial keys that range partitioners handle well.
type ZGrid struct {
	g zorder.Grid
}

// NewZGrid returns a grid with n cells per side (a power of two <= 65536).
func NewZGrid(n uint32) ZGrid { return ZGrid{g: zorder.NewGrid(n)} }

// Key returns the Z-order key of the cell containing (x, y), clamped to
// [0, 1).
func (z ZGrid) Key(x, y float64) string { return zorder.Key(z.g.EncodePoint(x, y)) }

// Side reports cells per side.
func (z ZGrid) Side() uint32 { return z.g.Side() }

// JobStats carries a job's virtual-time measurements: makespan, per-task
// breakdowns (compute, GC, shuffle read), and locality counts.
type JobStats = metrics.JobMetrics

// TaskStats is one task's breakdown within JobStats.
type TaskStats = metrics.TaskMetrics

// GroupChange describes one split or merge performed by the GroupManager.
type GroupChange = group.Change

// GroupInfo describes one partition group (a Group Tree leaf).
type GroupInfo = group.Group

// Option configures a Context.
type Option func(*engine.Config)

// WithExecutors sets the cluster size.
func WithExecutors(n int) Option {
	return func(c *engine.Config) { c.Cluster.NumExecutors = n }
}

// WithSlots sets task slots per executor.
func WithSlots(n int) Option {
	return func(c *engine.Config) { c.Cluster.SlotsPerExecutor = n }
}

// WithMemory sets per-executor cache capacity in simulated bytes.
func WithMemory(bytes int64) Option {
	return func(c *engine.Config) { c.Cluster.MemoryPerExecutor = bytes }
}

// WithSizeScale makes every real in-process byte count as scale simulated
// bytes, so small record sets stand in for the paper's multi-hundred-MB
// datasets.
func WithSizeScale(scale float64) Option {
	return func(c *engine.Config) { c.Cluster.SizeScale = scale }
}

// WithCoLocality enables the LocalityManager (Stark-H / Stark-S).
func WithCoLocality() Option {
	return func(c *engine.Config) { c.Features.CoLocality = true }
}

// WithExtendable enables extendable partition groups on top of co-locality
// (Stark-E). Bounds configure the split/merge thresholds.
func WithExtendable(bounds group.Config) Option {
	return func(c *engine.Config) {
		c.Features.CoLocality = true
		c.Features.Extendable = true
		c.Groups = bounds
	}
}

// GroupBounds builds the extendable-group threshold configuration: groups
// split above maxBytes, sibling pairs merge below minBytes, sizes aggregate
// over the window most recent reported RDDs.
func GroupBounds(maxBytes, minBytes int64, window int) group.Config {
	return group.Config{MaxBytes: maxBytes, MinBytes: minBytes, Window: window}
}

// WithMCF enables Minimum-Contention-First remote scheduling.
func WithMCF() Option {
	return func(c *engine.Config) { c.Features.MCF = true }
}

// WithStark enables the full Stark feature set with default group bounds.
func WithStark() Option {
	return func(c *engine.Config) {
		c.Features.CoLocality = true
		c.Features.Extendable = true
		c.Features.MCF = true
	}
}

// WithLocalityWait sets the delay-scheduling wait bound.
func WithLocalityWait(d time.Duration) Option {
	return func(c *engine.Config) { c.Sched.LocalityWait = d }
}

// WithCheckpointing enables Stark's min-cut checkpointing with recovery
// bound r and relaxation factor f (>= 1).
func WithCheckpointing(r time.Duration, f float64) Option {
	return func(c *engine.Config) {
		c.Checkpoint.Mode = engine.CheckpointOptimal
		c.Checkpoint.Bound = r
		c.Checkpoint.Relax = f
	}
}

// WithEdgeCheckpointing enables the Tachyon Edge baseline with recovery
// bound r.
func WithEdgeCheckpointing(r time.Duration) Option {
	return func(c *engine.Config) {
		c.Checkpoint.Mode = engine.CheckpointEdge
		c.Checkpoint.Bound = r
	}
}

// WithSeed fixes the scheduler's randomization seed; equal seeds give
// bit-identical runs.
func WithSeed(seed int64) Option {
	return func(c *engine.Config) { c.Seed = seed }
}

// WithParallelism bounds the wall-clock data-plane worker pool executing
// task compute between virtual-time events. It never changes simulation
// results — runs are bit-identical at any setting — only how fast they are
// produced. 1 forces sequential execution; 0 (the default) uses
// runtime.GOMAXPROCS.
func WithParallelism(n int) Option {
	return func(c *engine.Config) { c.Execution.Parallelism = n }
}

// WithGC tunes the garbage-collection pressure model: the overhead stays
// at the fixed 5 % base up to the knee, then grows with the given power to
// max at full memory.
func WithGC(knee, max, power float64) Option {
	return func(c *engine.Config) {
		c.Cluster.GC = config.GC{Knee: knee, Max: max, Power: power}
	}
}

// WithClusterConfig replaces the whole cost model for full control.
func WithClusterConfig(cc config.Cluster) Option {
	return func(c *engine.Config) { c.Cluster = cc }
}

// DefaultClusterConfig exposes the calibrated cost model for tweaking with
// WithClusterConfig.
func DefaultClusterConfig() config.Cluster { return config.Default() }

// Context is the driver: it owns the lineage graph, the simulated cluster,
// and the virtual clock.
type Context struct {
	eng *engine.Engine
}

// NewContext builds a driver over a fresh simulated cluster.
func NewContext(opts ...Option) *Context {
	cfg := engine.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &Context{eng: engine.New(cfg)}
}

// Engine exposes the underlying engine for advanced use (experiments,
// failure injection beyond KillExecutor).
func (c *Context) Engine() *engine.Engine { return c.eng }

// Now reports the current virtual time.
func (c *Context) Now() time.Duration { return c.eng.Now() }

// NumExecutors reports the cluster size.
func (c *Context) NumExecutors() int { return c.eng.Cluster().NumExecutors() }

// RegisterNamespace declares a locality namespace: RDDs created with
// LocalityPartitionBy(p, ns) share the partitioner and their collection
// partitions are co-located. initialGroups sizes the Group Tree in
// extendable mode (power of two; so must be the partition count). An RDD
// that carries the namespace with a different partition count — a cogroup
// of members under a wider or narrower partitioner — is not a member: its
// tasks are plain and its cached blocks count under no collection unit.
func (c *Context) RegisterNamespace(ns string, p Partitioner, initialGroups int) error {
	return c.eng.RegisterNamespace(ns, p, initialGroups)
}

// Parallelize creates an in-memory source RDD split into numParts
// contiguous chunks. Like FromPartitions it adopts recs rather than copying
// them: the partitions are sub-slices of recs, shared copy-on-write, and the
// caller must not mutate recs afterwards (STARK_CHECK_COW=1 turns a
// violation into a panic at materialization).
func (c *Context) Parallelize(name string, recs []Record, numParts int) *RDD {
	parts := workload.Chunk(recs, numParts)
	return &RDD{ctx: c, r: c.eng.Graph().Source(name, parts, false)}
}

// TextFile creates a source RDD whose materialization charges a disk read,
// like sc.textFile. It adopts recs under the same contract as Parallelize.
func (c *Context) TextFile(name string, recs []Record, numParts int) *RDD {
	parts := workload.Chunk(recs, numParts)
	return &RDD{ctx: c, r: c.eng.Graph().Source(name, parts, true)}
}

// FromPartitions creates a source RDD with explicit partitioning. The RDD
// adopts the partition slices copy-on-write; the caller must not mutate them
// afterwards.
func (c *Context) FromPartitions(name string, parts [][]Record, fromDisk bool) *RDD {
	return &RDD{ctx: c, r: c.eng.Graph().Source(name, parts, fromDisk)}
}

// PartitionedSource creates a source RDD declared as partitioned by p under
// namespace ns (pass "" for none) — e.g. the empty previous-step state of
// an iterative application, so first-step cogroups stay narrow. The caller
// guarantees every record sits in its p-assigned partition.
func (c *Context) PartitionedSource(name string, parts [][]Record, p Partitioner, ns string) *RDD {
	return &RDD{ctx: c, r: c.eng.Graph().SourceWithPartitioner(name, parts, false, p, ns)}
}

// EmptyPartitioned creates an empty RDD partitioned by p (ns optional).
func (c *Context) EmptyPartitioned(name string, p Partitioner, ns string) *RDD {
	return c.PartitionedSource(name, make([][]Record, p.NumPartitions()), p, ns)
}

// GroupSizes reports the namespace's current per-group aggregated byte
// sizes (extendable mode).
func (c *Context) GroupSizes(ns string) (map[int]int64, error) {
	return c.eng.Groups().Sizes(ns)
}

// GroupList reports the namespace's current groups in partition order.
func (c *Context) GroupList(ns string) ([]GroupInfo, error) {
	return c.eng.Groups().Groups(ns)
}

// CoGroup groups the parents' values by key into CoGrouped values,
// partitioned by p. Parents already partitioned equivalently join through
// narrow dependencies (no shuffle).
func (c *Context) CoGroup(p Partitioner, rdds ...*RDD) *RDD {
	parents := make([]*internalRDD, len(rdds))
	for i, r := range rdds {
		parents[i] = r.r
	}
	return &RDD{ctx: c, r: c.eng.Graph().CoGroup("cogroup", p, parents...)}
}

// Join inner-joins two RDDs into Joined values, partitioned by p.
func (c *Context) Join(p Partitioner, left, right *RDD) *RDD {
	return &RDD{ctx: c, r: c.eng.Graph().Join("join", p, left.r, right.r)}
}

// ReportRDD feeds a materialized RDD's partition sizes to the GroupManager
// and applies any split/merge rebalancing (extendable mode). It returns
// the changes performed.
func (c *Context) ReportRDD(r *RDD) ([]GroupChange, error) {
	return c.eng.ReportRDD(r.r)
}

// KillExecutor fails an executor: its cache vanishes and running tasks are
// resubmitted elsewhere; lost partitions recover through lineage.
func (c *Context) KillExecutor(id int) { c.eng.KillExecutor(id) }

// RestartExecutor revives a failed executor with a cold cache.
func (c *Context) RestartExecutor(id int) { c.eng.RestartExecutor(id) }

// CompletedJobs returns stats of every finished job in completion order.
func (c *Context) CompletedJobs() []JobStats { return c.eng.CompletedJobs() }

// TotalCheckpointBytes reports cumulative checkpointed bytes.
func (c *Context) TotalCheckpointBytes() int64 {
	return c.eng.Store().TotalCheckpointBytes()
}

// LineageDOT renders the full lineage graph in Graphviz DOT form for
// inspection (`dot -Tsvg`).
func (c *Context) LineageDOT() string {
	return rdd.Dot(c.eng.Graph().RDDs())
}
