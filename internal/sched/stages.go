// Package sched builds execution stages from lineage graphs, mirroring
// Spark's DAGScheduler: a stage is a maximal chain of narrow dependencies;
// shuffle dependencies become stage boundaries, with the map side forming a
// ShuffleMapStage that commits its outputs to persistent storage and the
// reduce side starting the next stage.
package sched

import (
	"sort"

	"stark/internal/rdd"
)

// Stage is one schedulable unit of a job.
type Stage struct {
	ID int
	// Output is the last RDD the stage computes. For a shuffle-map stage it
	// is the map-side parent of a shuffle dependency; tasks bucket its
	// records by the shuffle's target partitioner and commit them. For the
	// result stage it is the job's final RDD.
	Output *rdd.RDD
	// ShuffleMap marks a map-side stage.
	ShuffleMap bool
	// ShuffleID is the shuffle this stage feeds (shuffle-map stages only).
	ShuffleID int
	// Consumer is the shuffled RDD that reads this stage's output
	// (shuffle-map stages only); its partitioner buckets the map output.
	Consumer *rdd.RDD
	// Parents are the shuffle-map stages producing the shuffles this
	// stage's narrow chain reads.
	Parents []*Stage

	// chain memoizes NarrowChain. The scheduler walks the chain per task
	// per scheduling round (locality preferences), which used to allocate a
	// map, a queue and a slice each time. Invalidated by InvalidateChain
	// when a checkpoint lands mid-job and truncates the chain.
	chain []*rdd.RDD
}

// NumTasks is the stage's task count before grouping: one per partition of
// the output RDD.
//
//starklint:ignore unreachable bench/layers.go (sched.build_us_op)
func (s *Stage) NumTasks() int { return s.Output.Parts }

// Build constructs the stage DAG for computing final. It returns the result
// stage; Parents links give the full DAG. Shuffle-map stages are shared
// (memoized) per shuffle id, so diamond lineages create each map stage
// once.
func Build(final *rdd.RDD) *Stage {
	b := &builder{shuffleStages: make(map[int]*Stage)}
	result := &Stage{ID: b.nextID(), Output: final}
	result.Parents = b.parentsOf(final)
	return result
}

type builder struct {
	ids           int
	shuffleStages map[int]*Stage
}

func (b *builder) nextID() int {
	id := b.ids
	b.ids++
	return id
}

// parentsOf walks the narrow chain rooted at r and returns the shuffle-map
// stages feeding it, deduplicated, in shuffle-id order.
func (b *builder) parentsOf(r *rdd.RDD) []*Stage {
	seenRDD := make(map[int]bool)
	parents := make(map[int]*Stage)
	var walk func(*rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seenRDD[n.ID] {
			return
		}
		seenRDD[n.ID] = true
		// A checkpointed RDD is read from persistent storage; its lineage
		// does not run.
		if n.Checkpointed {
			return
		}
		for _, d := range n.Deps {
			if !d.Shuffle {
				walk(d.Parent)
				continue
			}
			st, ok := b.shuffleStages[d.ShuffleID]
			if !ok {
				st = &Stage{
					ID:         b.nextID(),
					Output:     d.Parent,
					ShuffleMap: true,
					ShuffleID:  d.ShuffleID,
					Consumer:   n,
				}
				b.shuffleStages[d.ShuffleID] = st
				st.Parents = b.parentsOf(d.Parent)
			}
			parents[st.ShuffleID] = st
		}
	}
	walk(r)
	out := make([]*Stage, 0, len(parents))
	for _, st := range parents {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShuffleID < out[j].ShuffleID })
	return out
}

// NarrowChain returns the RDDs computed inside the stage: the output RDD
// and every RDD reachable from it over narrow dependencies without crossing
// a checkpoint, output first, parents after (BFS order). The result is
// memoized; callers must treat it as read-only. Anything that flips an
// RDD's Checkpointed flag while stages are live must call InvalidateChain.
func (s *Stage) NarrowChain() []*rdd.RDD {
	if s.chain != nil {
		return s.chain
	}
	var out []*rdd.RDD
	seen := make(map[int]bool)
	queue := []*rdd.RDD{s.Output}
	seen[s.Output.ID] = true
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		out = append(out, r)
		if r.Checkpointed {
			continue
		}
		for _, d := range r.Deps {
			if d.Shuffle || seen[d.Parent.ID] {
				continue
			}
			seen[d.Parent.ID] = true
			queue = append(queue, d.Parent)
		}
	}
	s.chain = out
	return out
}

// InvalidateChain drops the memoized NarrowChain so the next call recomputes
// it. The engine calls it on every live stage after ForceCheckpoint marks an
// RDD checkpointed (the chain must now stop at the checkpoint).
func (s *Stage) InvalidateChain() { s.chain = nil }

// AllStages flattens the stage DAG rooted at result into a deduplicated
// list, result last, parents before children.
func AllStages(result *Stage) []*Stage {
	var out []*Stage
	seen := make(map[int]bool)
	var walk func(*Stage)
	walk = func(s *Stage) {
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		for _, p := range s.Parents {
			walk(p)
		}
		out = append(out, s)
	}
	walk(result)
	return out
}
