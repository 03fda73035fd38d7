package stark

import (
	"stark/internal/rdd"
)

// internalRDD aliases the lineage node type for the public wrapper.
type internalRDD = rdd.RDD

// RDD is a handle on one immutable, partitioned dataset in the lineage
// graph. Transformations are lazy: they extend the graph and return new
// handles; actions (Count, Collect, Materialize) run jobs on the simulated
// cluster and advance virtual time.
type RDD struct {
	ctx *Context
	r   *internalRDD
}

// Name returns the RDD's name and id.
func (r *RDD) Name() string { return r.r.String() }

// NumPartitions reports the partition count.
func (r *RDD) NumPartitions() int { return r.r.Parts }

// PartitionSizes returns the simulated byte size of each partition, nil
// before first materialization.
func (r *RDD) PartitionSizes() []int64 {
	if r.r.PartBytes == nil {
		return nil
	}
	out := make([]int64, len(r.r.PartBytes))
	copy(out, r.r.PartBytes)
	return out
}

// Map applies f to every record. The result loses partitioning, since f
// may change keys; use MapValues when keys are stable.
func (r *RDD) Map(f func(Record) Record) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Map(r.r, "map", false, f)}
}

// MapValues applies f to every record, promising keys are unchanged:
// partitioning and the locality namespace carry over.
func (r *RDD) MapValues(f func(Record) Record) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Map(r.r, "mapValues", true, f)}
}

// FlatMap applies f and concatenates the outputs.
func (r *RDD) FlatMap(f func(Record) []Record) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().FlatMap(r.r, "flatMap", f)}
}

// Filter keeps records satisfying pred; partitioning is preserved.
func (r *RDD) Filter(pred func(Record) bool) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Filter(r.r, "filter", pred)}
}

// PartitionBy repartitions by p through a shuffle.
func (r *RDD) PartitionBy(p Partitioner) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().PartitionBy(r.r, "partitionBy", p)}
}

// LocalityPartitionBy repartitions by p and registers the result (and its
// narrow descendants) under namespace ns for co-locality — the paper's
// localityPartitionBy(p, ns) API. The namespace must have been registered
// with an equivalent partitioner via Context.RegisterNamespace.
func (r *RDD) LocalityPartitionBy(p Partitioner, ns string) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().LocalityPartitionBy(r.r, "localityPartitionBy", p, ns)}
}

// ReduceByKey shuffles by p and merges values per key.
func (r *RDD) ReduceByKey(p Partitioner, merge func(a, b any) any) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().ReduceByKey(r.r, "reduceByKey", p, merge)}
}

// CoGroup groups this RDD with others by key (see Context.CoGroup).
func (r *RDD) CoGroup(p Partitioner, others ...*RDD) *RDD {
	all := append([]*RDD{r}, others...)
	return r.ctx.CoGroup(p, all...)
}

// Join inner-joins with another RDD (see Context.Join).
func (r *RDD) Join(p Partitioner, other *RDD) *RDD {
	return r.ctx.Join(p, r, other)
}

// Union concatenates this RDD with others; the result has the sum of the
// partition counts and no partitioner (Spark semantics).
func (r *RDD) Union(others ...*RDD) *RDD {
	parents := make([]*internalRDD, 0, len(others)+1)
	parents = append(parents, r.r)
	for _, o := range others {
		parents = append(parents, o.r)
	}
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Union("union", parents...)}
}

// Distinct keeps one record per key, partitioned by p.
func (r *RDD) Distinct(p Partitioner) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Distinct(r.r, "distinct", p)}
}

// GroupByKey groups all values per key into []any values, partitioned by
// p; it stays narrow when this RDD is already partitioned equivalently.
func (r *RDD) GroupByKey(p Partitioner) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().GroupByKey(r.r, "groupByKey", p)}
}

// Sample keeps approximately frac of the records, deterministically by key
// hash (salt varies the subset); partitioning is preserved.
func (r *RDD) Sample(frac float64, salt uint32) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().Sample(r.r, "sample", frac, salt)}
}

// Cache marks the RDD for in-memory caching on first materialization and
// returns the same handle for chaining.
func (r *RDD) Cache() *RDD {
	r.r.CacheFlag = true
	return r
}

// Checkpoint persists the materialized RDD to stable storage immediately
// (the paper's RDD.forceCheckpoint): later jobs start from the checkpoint
// and the lineage behind it is never recomputed. It is a no-op for RDDs
// that have not been materialized yet.
func (r *RDD) Checkpoint() *RDD {
	r.ctx.eng.ForceCheckpoint(r.r)
	return r
}

// IsCheckpointed reports whether a checkpoint exists.
func (r *RDD) IsCheckpointed() bool { return r.r.Checkpointed }

// Count runs a job that counts records, returning the count, the job's
// virtual-time stats, and any scheduling error.
func (r *RDD) Count() (int64, JobStats, error) {
	return r.ctx.eng.Count(r.r)
}

// MustCount is Count for tests and examples where failure is fatal.
func (r *RDD) MustCount() int64 {
	n, _, err := r.Count()
	if err != nil {
		panic(err)
	}
	return n
}

// Collect runs a job returning all records.
func (r *RDD) Collect() ([]Record, JobStats, error) {
	return r.ctx.eng.Collect(r.r)
}

// Materialize computes (and caches, if requested) every partition without
// returning data.
func (r *RDD) Materialize() (JobStats, error) {
	return r.ctx.eng.Materialize(r.r)
}

// Internal exposes the lineage node for the experiment harness.
func (r *RDD) Internal() *internalRDD { return r.r }

// Wrap adopts an internal lineage node into a public handle (experiment
// harness use).
func (c *Context) Wrap(r *internalRDD) *RDD { return &RDD{ctx: c, r: r} }

// Unpersist drops the RDD's cached blocks across the cluster and clears its
// cache flag — the "evict" half of a dynamic dataset collection. The data
// remains recomputable through lineage, persisted shuffle outputs, and
// checkpoints.
func (r *RDD) Unpersist() *RDD {
	r.ctx.eng.Unpersist(r.r)
	return r
}

// SortByKey range-partitions by boundaries fitted to the sample and sorts
// within partitions, yielding globally sorted keys across partition order
// (Spark's sortByKey).
func (r *RDD) SortByKey(sample []string, parts int) *RDD {
	return &RDD{ctx: r.ctx, r: r.ctx.eng.Graph().SortByKey(r.r, "sortByKey", sample, parts)}
}
