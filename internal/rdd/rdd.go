// Package rdd models Resilient Distributed Datasets and the lineage graph
// connecting them — the substrate Stark's mechanisms operate on. An RDD is
// an immutable, partitioned dataset; transformations declare narrow or
// shuffle (wide) dependencies; the resulting DAG is what the scheduler cuts
// into stages and the CheckpointOptimizer cuts with max-flow.
//
// Data functions here are pure: they map input record slices to output
// record slices. Where data lives, what it costs to move, and when it is
// computed are the engine's concern.
//
// Purity is a hard contract, not a convention: transforms must not mutate
// their input slices or records, must not retain references to inputs beyond
// the call (aliasing records into the output is fine — records are values),
// and must be deterministic in the keys and values they emit for given
// inputs. The engine relies on this to execute partitions on a parallel
// worker pool, to share partition data copy-free between the cache, collect
// results and checkpoint writes, and to reuse recorded partition sizes
// across recomputations. Run with STARK_CHECK_COW=1 to turn violations into
// panics.
package rdd

import (
	"fmt"
	"sync"
	"time"

	"stark/internal/partition"
	"stark/internal/record"
)

// Kind classifies an RDD by how its partitions are computed.
type Kind int

// RDD kinds.
const (
	KindSource Kind = iota + 1
	KindNarrow
	KindShuffled
	KindCoGrouped
)

// Dep is a dependency on a parent RDD.
type Dep struct {
	Parent *RDD
	// Shuffle marks a wide dependency: the parent's data is repartitioned
	// through persistent map outputs identified by ShuffleID.
	Shuffle   bool
	ShuffleID int
	// Map, when non-nil, maps a child partition to the parent partition it
	// reads (range-style narrow dependencies like union); ok=false means
	// the parent contributes nothing to that child partition. Nil means the
	// identity one-to-one dependency.
	Map func(childPart int) (parentPart int, ok bool)
}

// RDD is one node of the lineage graph.
type RDD struct {
	ID   int
	Name string
	// Parts is the partition count.
	Parts int
	// Partitioner is the partitioning of this RDD's keys, nil when unknown
	// (e.g. sources and key-changing maps).
	Partitioner partition.Partitioner
	Kind        Kind
	Deps        []Dep

	// Transform computes one partition from per-dependency input slices:
	// for a narrow dep, inputs[i] is the parent's corresponding partition;
	// for a shuffle dep, inputs[i] is the merged shuffle read. Source RDDs
	// have no Transform.
	Transform func(part int, inputs [][]record.Record) []record.Record

	// CostFactor scales compute time per input byte relative to a plain
	// map pass (1.0).
	CostFactor float64

	// Namespace is the locality namespace; it starts at a
	// localityPartitionBy and flows through narrow transformations
	// (paper Sec. III-E).
	Namespace string

	// CacheFlag requests caching of computed partitions (RDD.cache()).
	CacheFlag bool

	// Source holds per-partition data for KindSource RDDs.
	Source [][]record.Record
	// SourceFromDisk charges a disk read when materializing source
	// partitions (sc.textFile semantics).
	SourceFromDisk bool

	// Checkpointed is set by the engine once every partition has been
	// persisted; recovery then starts here instead of recomputing lineage.
	Checkpointed bool

	// PartBytes, filled at materialization, records simulated bytes per
	// partition — checkpoint cost c and group sizes derive from it. A
	// recorded size persists across eviction: transforms are pure, so a
	// recomputed partition always measures the same.
	PartBytes []int64
	// COWSums holds per-partition fingerprints of Source taken at graph
	// construction (STARK_CHECK_COW=1 only); the engine re-verifies them at
	// materialization to catch callers mutating source data they handed in.
	COWSums []uint64
	// MaxTransformTime is the maximum per-task transform time observed, the
	// paper's per-transformation recovery delay estimate d (Sec. III-D1).
	MaxTransformTime time.Duration
}

// Narrow reports whether every dependency is narrow.
func (r *RDD) Narrow() bool {
	for _, d := range r.Deps {
		if d.Shuffle {
			return false
		}
	}
	return true
}

// TotalBytes sums the recorded partition sizes.
func (r *RDD) TotalBytes() int64 {
	var s int64
	for _, b := range r.PartBytes {
		s += b
	}
	return s
}

// String renders a compact description.
func (r *RDD) String() string {
	return fmt.Sprintf("%s#%d(%d parts)", r.Name, r.ID, r.Parts)
}

// Graph owns RDD and shuffle id allocation. One Graph per driver context.
type Graph struct {
	rdds        []*RDD
	nextShuffle int
}

// NewGraph returns an empty lineage graph.
func NewGraph() *Graph { return &Graph{} }

// RDDs returns every RDD ever created, in id order.
func (g *Graph) RDDs() []*RDD { return g.rdds }

// ByID returns the RDD with the given id, or nil.
func (g *Graph) ByID(id int) *RDD {
	if id < 0 || id >= len(g.rdds) {
		return nil
	}
	return g.rdds[id]
}

func (g *Graph) add(r *RDD) *RDD {
	r.ID = len(g.rdds)
	if r.CostFactor == 0 {
		r.CostFactor = 1.0
	}
	g.rdds = append(g.rdds, r)
	return r
}

func (g *Graph) allocShuffle() int {
	id := g.nextShuffle
	g.nextShuffle++
	return id
}

// Source creates a source RDD from per-partition data. fromDisk charges a
// disk read on first materialization, modeling sc.textFile. The RDD adopts
// the partition slices copy-on-write — the caller must not mutate them
// afterwards (STARK_CHECK_COW=1 verifies this at every materialization).
func (g *Graph) Source(name string, parts [][]record.Record, fromDisk bool) *RDD {
	r := &RDD{
		Name:           name,
		Parts:          len(parts),
		Kind:           KindSource,
		Source:         parts,
		SourceFromDisk: fromDisk,
	}
	if record.CowCheckEnabled() {
		r.COWSums = make([]uint64, len(parts))
		for i, p := range parts {
			r.COWSums[i] = record.Fingerprint(p)
		}
	}
	return g.add(r)
}

// narrowChild wires a single narrow dependency and inherits partitioner,
// partition count and namespace per the given flag.
func (g *Graph) narrowChild(parent *RDD, name string, preservesPartitioning bool,
	cost float64, transform func(part int, inputs [][]record.Record) []record.Record) *RDD {
	r := &RDD{
		Name:       name,
		Parts:      parent.Parts,
		Kind:       KindNarrow,
		Deps:       []Dep{{Parent: parent}},
		Transform:  transform,
		CostFactor: cost,
		Namespace:  parent.Namespace,
	}
	if preservesPartitioning {
		r.Partitioner = parent.Partitioner
	} else {
		r.Namespace = ""
	}
	return g.add(r)
}

// Map applies f per record. preservesPartitioning must only be true when f
// never changes keys (Spark's mapValues); otherwise the partitioner and
// namespace are dropped.
func (g *Graph) Map(parent *RDD, name string, preservesPartitioning bool, f func(record.Record) record.Record) *RDD {
	return g.narrowChild(parent, name, preservesPartitioning, 1.0,
		func(_ int, inputs [][]record.Record) []record.Record {
			in := inputs[0]
			out := make([]record.Record, len(in))
			for i, rec := range in {
				out[i] = f(rec)
			}
			return out
		})
}

// FlatMap applies f per record and concatenates results; keys may change,
// so partitioning is never preserved.
func (g *Graph) FlatMap(parent *RDD, name string, f func(record.Record) []record.Record) *RDD {
	return g.narrowChild(parent, name, false, 1.2,
		func(_ int, inputs [][]record.Record) []record.Record {
			var out []record.Record
			for _, rec := range inputs[0] {
				out = append(out, f(rec)...)
			}
			return out
		})
}

// keepPool recycles Filter's selection vectors: pointer-free, so a pooled one
// costs the collector nothing, and an output sized from it is allocated once
// instead of regrown 1, 2, 4, … as it fills.
var keepPool = sync.Pool{New: func() any { return new([]int32) }}

// Filter keeps records satisfying pred; partitioning is preserved. pred runs
// once per record, in input order.
func (g *Graph) Filter(parent *RDD, name string, pred func(record.Record) bool) *RDD {
	return g.narrowChild(parent, name, true, 0.6,
		func(_ int, inputs [][]record.Record) []record.Record {
			in := inputs[0]
			kp := keepPool.Get().(*[]int32)
			keep := (*kp)[:0]
			for i, rec := range in {
				if pred(rec) {
					keep = append(keep, int32(i))
				}
			}
			var out []record.Record
			if len(keep) > 0 {
				out = make([]record.Record, len(keep))
				for j, i := range keep {
					out[j] = in[i]
				}
			}
			*kp = keep
			keepPool.Put(kp)
			return out
		})
}

// MapPartitions applies f to whole partitions. preservesPartitioning as in
// Map.
func (g *Graph) MapPartitions(parent *RDD, name string, preservesPartitioning bool,
	cost float64, f func([]record.Record) []record.Record) *RDD {
	return g.narrowChild(parent, name, preservesPartitioning, cost,
		func(_ int, inputs [][]record.Record) []record.Record {
			return f(inputs[0])
		})
}

// PartitionBy repartitions by p through a shuffle (a ShuffledRDD with no
// aggregation).
func (g *Graph) PartitionBy(parent *RDD, name string, p partition.Partitioner) *RDD {
	return g.add(&RDD{
		Name:        name,
		Parts:       p.NumPartitions(),
		Partitioner: p,
		Kind:        KindShuffled,
		Deps:        []Dep{{Parent: parent, Shuffle: true, ShuffleID: g.allocShuffle()}},
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			return inputs[0]
		},
		CostFactor: 0.5,
	})
}

// LocalityPartitionBy is PartitionBy plus namespace registration: the
// resulting RDD and its narrow descendants belong to ns, which the
// LocalityManager uses for co-locality (paper Sec. III-E,
// localityPartitionBy(p, ns)).
func (g *Graph) LocalityPartitionBy(parent *RDD, name string, p partition.Partitioner, ns string) *RDD {
	r := g.PartitionBy(parent, name, p)
	r.Namespace = ns
	return r
}

// ReduceByKey combines values per key with merge, partitioned by p. When
// the parent is already partitioned equivalently, the combine runs as a
// narrow per-partition pass with no shuffle — Spark's combineByKey fast
// path, which Stark's co-partitioned collections hit constantly.
func (g *Graph) ReduceByKey(parent *RDD, name string, p partition.Partitioner, merge func(a, b any) any) *RDD {
	combine := func(in []record.Record) []record.Record { return record.ReduceRecords(in, merge) }
	if parent.Partitioner != nil && parent.Parts == p.NumPartitions() && parent.Partitioner.Equivalent(p) {
		return g.MapPartitions(parent, name, true, 1.5, combine)
	}
	return g.add(&RDD{
		Name:        name,
		Parts:       p.NumPartitions(),
		Partitioner: p,
		Kind:        KindShuffled,
		Deps:        []Dep{{Parent: parent, Shuffle: true, ShuffleID: g.allocShuffle()}},
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			return combine(inputs[0])
		},
		CostFactor: 1.5,
	})
}

// SourceWithPartitioner creates a source RDD that is already partitioned by
// p (e.g. the empty previous-step state of an iterative application);
// cogroups against it stay narrow. parts must have p.NumPartitions()
// entries with every record in its p-assigned partition; the caller owns
// that invariant.
func (g *Graph) SourceWithPartitioner(name string, parts [][]record.Record, fromDisk bool, p partition.Partitioner, ns string) *RDD {
	r := g.Source(name, parts, fromDisk)
	if len(parts) != p.NumPartitions() {
		panic(fmt.Sprintf("rdd: source %s has %d partitions, partitioner wants %d", name, len(parts), p.NumPartitions()))
	}
	r.Partitioner = p
	r.Namespace = ns
	return r
}

// coGroupDeps wires one dependency per parent: narrow when the parent is
// already partitioned equivalently to p with the same partition count
// (Spark's one-to-one cogroup dependency), a fresh shuffle otherwise.
func (g *Graph) coGroupDeps(p partition.Partitioner, parents []*RDD) []Dep {
	deps := make([]Dep, len(parents))
	for i, par := range parents {
		if par.Partitioner != nil && par.Parts == p.NumPartitions() && par.Partitioner.Equivalent(p) {
			deps[i] = Dep{Parent: par}
		} else {
			deps[i] = Dep{Parent: par, Shuffle: true, ShuffleID: g.allocShuffle()}
		}
	}
	return deps
}

// sharedNamespace returns the parents' common namespace, or "".
func sharedNamespace(parents []*RDD) string {
	if len(parents) == 0 {
		return ""
	}
	ns := parents[0].Namespace
	for _, p := range parents[1:] {
		if p.Namespace != ns {
			return ""
		}
	}
	return ns
}

// CoGroup groups the parents' values by key into record.CoGrouped values.
func (g *Graph) CoGroup(name string, p partition.Partitioner, parents ...*RDD) *RDD {
	if len(parents) == 0 {
		panic("rdd: CoGroup needs at least one parent")
	}
	n := len(parents)
	return g.add(&RDD{
		Name:        name,
		Parts:       p.NumPartitions(),
		Partitioner: p,
		Kind:        KindCoGrouped,
		Deps:        g.coGroupDeps(p, parents),
		Namespace:   sharedNamespace(parents),
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			return record.CoGroupRecords(inputs[:n])
		},
		CostFactor: 2.0,
	})
}

// Join inner-joins two parents, emitting record.Joined values for every
// cross-product pair per key.
func (g *Graph) Join(name string, p partition.Partitioner, left, right *RDD) *RDD {
	parents := []*RDD{left, right}
	return g.add(&RDD{
		Name:        name,
		Parts:       p.NumPartitions(),
		Partitioner: p,
		Kind:        KindCoGrouped,
		Deps:        g.coGroupDeps(p, parents),
		Namespace:   sharedNamespace(parents),
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			return record.JoinRecords(inputs[0], inputs[1])
		},
		CostFactor: 2.0,
	})
}

// Union concatenates the parents: the result has the sum of the parents'
// partitions, each a range-style narrow dependency on exactly one parent
// partition. Partitioning and namespaces are not preserved (Spark
// semantics: a UnionRDD has no partitioner).
func (g *Graph) Union(name string, parents ...*RDD) *RDD {
	if len(parents) == 0 {
		panic("rdd: Union needs at least one parent")
	}
	total := 0
	offsets := make([]int, len(parents))
	for i, p := range parents {
		offsets[i] = total
		total += p.Parts
	}
	deps := make([]Dep, len(parents))
	for i, p := range parents {
		lo, hi := offsets[i], offsets[i]+p.Parts
		deps[i] = Dep{Parent: p, Map: func(child int) (int, bool) {
			if child < lo || child >= hi {
				return 0, false
			}
			return child - lo, true
		}}
	}
	return g.add(&RDD{
		Name:  name,
		Parts: total,
		Kind:  KindNarrow,
		Deps:  deps,
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			// Exactly one input is non-nil per partition.
			for _, in := range inputs {
				if in != nil {
					return in
				}
			}
			return nil
		},
		CostFactor: 0.1,
	})
}

// Distinct keeps one record per key, partitioned by p.
func (g *Graph) Distinct(parent *RDD, name string, p partition.Partitioner) *RDD {
	return g.ReduceByKey(parent, name, p, func(a, _ any) any { return a })
}

// GroupByKey groups all values per key into []any values, partitioned by p.
// Like ReduceByKey it runs narrow when the parent is co-partitioned.
func (g *Graph) GroupByKey(parent *RDD, name string, p partition.Partitioner) *RDD {
	groupAll := func(in []record.Record) []record.Record {
		groups := record.GroupByKeySorted(in)
		out := make([]record.Record, 0, len(groups))
		for _, grp := range groups {
			out = append(out, record.Record{Key: grp.Key, Value: grp.Values})
		}
		return out
	}
	if parent.Partitioner != nil && parent.Parts == p.NumPartitions() && parent.Partitioner.Equivalent(p) {
		return g.MapPartitions(parent, name, true, 1.5, groupAll)
	}
	return g.add(&RDD{
		Name:        name,
		Parts:       p.NumPartitions(),
		Partitioner: p,
		Kind:        KindShuffled,
		Deps:        []Dep{{Parent: parent, Shuffle: true, ShuffleID: g.allocShuffle()}},
		Transform: func(_ int, inputs [][]record.Record) []record.Record {
			return groupAll(inputs[0])
		},
		CostFactor: 1.5,
	})
}

// Sample keeps approximately frac of the records, deterministically by key
// hash so resampling an RDD yields the same subset. salt varies the subset.
func (g *Graph) Sample(parent *RDD, name string, frac float64, salt uint32) *RDD {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	threshold := uint32(frac * float64(1<<32-1))
	return g.Filter(parent, name, func(r record.Record) bool {
		h := record.Hash32(r.Key) ^ salt
		// One extra mix round decorrelates from the partitioner's hash.
		h ^= h >> 16
		h *= 0x7feb352d
		h ^= h >> 15
		return h <= threshold
	})
}

// Ancestors returns every transitive parent of r (excluding r), unordered.
func Ancestors(r *RDD) []*RDD {
	seen := map[int]bool{r.ID: true}
	var out []*RDD
	var walk func(*RDD)
	walk = func(n *RDD) {
		for _, d := range n.Deps {
			if !seen[d.Parent.ID] {
				seen[d.Parent.ID] = true
				out = append(out, d.Parent)
				walk(d.Parent)
			}
		}
	}
	walk(r)
	return out
}

// SortByKey range-partitions the dataset by a partitioner fitted to the
// given key sample and sorts each partition, so a partition-ordered scan
// yields globally sorted keys — Spark's sortByKey. The fresh fitted
// partitioner means the result is not co-partitioned with anything.
func (g *Graph) SortByKey(parent *RDD, name string, sample []string, parts int) *RDD {
	rp := partition.NewRange(sample, parts)
	shuffled := g.PartitionBy(parent, name+"-range", rp)
	// The sort must not touch its input: a checkpoint of the "-range" shuffle
	// hands every reader the stored block's own rows.
	return g.MapPartitions(shuffled, name, true, 1.2, record.SortedByKey)
}
