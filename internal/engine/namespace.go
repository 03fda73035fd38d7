package engine

import (
	"fmt"

	"stark/internal/cluster"
	"stark/internal/group"
	"stark/internal/journal"
	"stark/internal/partition"
	"stark/internal/rdd"
)

// collection is one registered dataset collection (the paper's namespace):
// every fact the engine keeps about it, in one record. Engine.collections
// holds a record per name the application ever registered and survives a
// driver crash — the interned id keys the cluster's unit index and the
// replication policy, which survive too, and the partitioner is the
// client-side object replay re-attaches. driverMemory.registered holds the
// records live in this driver's locality and group managers; a crash
// forgets it and journal replay rebuilds it.
type collection struct {
	name string
	// id interns name for cluster.UnitID, from 1 so the zero UnitID names
	// no unit.
	id    int
	part  partition.Partitioner
	parts int
	// tree is the collection's Group Tree when its units are the tree's
	// leaves (extendable mode), nil when they are partitions. It is the
	// tree the group manager changes, read here without the manager's lock:
	// the manager changes it only on the event loop, where unitOf runs.
	tree *group.Tree
}

// lastNamespace is collectionOf's one-entry cache: the namespace it last
// looked up and the collection registered under it (nil for none).
type lastNamespace struct {
	name  string
	c     *collection
	valid bool
}

// collectionOf is the one membership rule: r belongs to a collection when
// its namespace is registered and r has the namespace's partition count.
// Any other RDD — one that inherited the namespace's name through a
// differently sized cogroup, say — is no member: its tasks are plain and
// its blocks count under no unit. The registered collection of the
// namespace last asked about is cached, so the per-block lookups of a run
// over one collection compare its name instead of hashing it; a
// registration or a driver crash empties the cache.
func (e *Engine) collectionOf(r *rdd.RDD) *collection {
	if !e.lastNS.valid || e.lastNS.name != r.Namespace {
		e.lastNS = lastNamespace{name: r.Namespace, c: e.registered[r.Namespace], valid: true}
	}
	if c := e.lastNS.c; c != nil && c.parts == r.Parts {
		return c
	}
	return nil
}

// unitOf maps partition p of r to its collection and collection unit — the
// Group Tree leaf holding p when the collection has a tree, p otherwise —
// or ok=false when r is no member. Task specs, the cluster's unit index,
// checkpoint placement, eviction de-replication and Unpersist all read it,
// so whatever changes its answer — registration, Group Tree geometry —
// must call Cluster.UnitMappingChanged.
func (e *Engine) unitOf(r *rdd.RDD, p int) (*collection, cluster.UnitID, bool) {
	c := e.collectionOf(r)
	if c == nil {
		return nil, cluster.UnitID{}, false
	}
	unit := p
	if c.tree != nil {
		unit = c.tree.GroupOf(p).ID
	}
	return c, cluster.UnitID{NS: c.id, Unit: unit}, true
}

// unitIDOf is unitOf for a block: the mapping installed into the unit index
// and, under the dag policy, the peer-group function.
func (e *Engine) unitIDOf(id cluster.BlockID) (cluster.UnitID, bool) {
	r := e.graph.ByID(id.RDD)
	if r == nil {
		return cluster.UnitID{}, false
	}
	_, u, ok := e.unitOf(r, id.Partition)
	return u, ok
}

// RegisterNamespace declares a locality namespace for RDDs created with
// rdd.Graph.LocalityPartitionBy: the LocalityManager pins the collection's
// partitions (or partition groups, in extendable mode) to executors. The
// partitioner fixes the collection's partition count; initialGroups sizes
// the Group Tree when extendable partitioning is enabled (both the
// partition count and initialGroups must then be powers of two). An RDD
// carrying the namespace with a different partition count is not a member:
// its tasks are plain and its blocks count under no unit.
// Registration is idempotent for an agreeing partitioner.
func (e *Engine) RegisterNamespace(ns string, p partition.Partitioner, initialGroups int) error {
	if !e.cfg.Features.CoLocality {
		// Without co-locality the namespace is inert; accept and ignore so
		// the same application code runs under every configuration.
		return nil
	}
	known := e.registered[ns] != nil
	if err := e.registerNamespace(ns, p, initialGroups); err != nil {
		return err
	}
	if !known {
		// The partitioner is a client-side object: it cannot be serialized,
		// so the journal records the registration and replay re-supplies the
		// partitioner from the collection's record.
		e.journalAppend(journal.Record{Kind: journal.KindNamespace, S: ns, A: int64(initialGroups)})
	}
	return nil
}

// registerNamespace is the journal-free core of RegisterNamespace; replay
// reuses it.
func (e *Engine) registerNamespace(ns string, p partition.Partitioner, initialGroups int) error {
	// Blocks of the namespace's RDDs cached before this call join a unit.
	e.cl.UnitMappingChanged()
	c := e.collections[ns]
	if c == nil {
		c = &collection{name: ns, id: len(e.collections) + 1}
		e.collections[ns] = c
	}
	numParts := p.NumPartitions()
	var units []int
	if e.cfg.Features.Extendable {
		if err := e.grp.Register(ns, numParts, initialGroups); err != nil {
			return err
		}
		tree, err := e.grp.Tree(ns)
		if err != nil {
			return err
		}
		c.tree = tree
		for _, g := range tree.Groups() {
			units = append(units, g.ID)
		}
	} else {
		units = make([]int, numParts)
		for i := range units {
			units[i] = i
		}
	}
	if err := e.loc.Register(ns, p, units, e.cl.AliveExecutors()); err != nil {
		return err
	}
	c.part, c.parts = p, numParts
	e.registered[ns] = c
	e.lastNS = lastNamespace{}
	return nil
}

// ReportRDD feeds a materialized RDD's partition sizes to the GroupManager
// (the paper's GroupManager.reportRDD API) and applies any threshold-
// triggered splits or merges, rewiring the LocalityManager accordingly.
// It returns the changes performed.
func (e *Engine) ReportRDD(r *rdd.RDD) ([]group.Change, error) {
	if r.Namespace == "" {
		return nil, fmt.Errorf("engine: RDD %s has no namespace", r)
	}
	c := e.registered[r.Namespace]
	if c == nil || c.tree == nil {
		return nil, nil
	}
	if r.PartBytes == nil {
		return nil, fmt.Errorf("engine: RDD %s not materialized", r)
	}
	// A non-member's size vector has the wrong length: the GroupManager
	// rejects it.
	if err := e.grp.ReportRDD(c.name, r.PartBytes); err != nil {
		return nil, err
	}
	changes, err := e.grp.Rebalance(c.name)
	for _, ch := range changes {
		var rec journal.Record
		if ch.Kind == group.ChangeSplit {
			rec = journal.Record{Kind: journal.KindGroupSplit, S: c.name,
				A: int64(ch.Before[0].ID), B: int64(ch.After[0].ID), C: int64(ch.After[1].ID), D: int64(e.leastLoadedExecutor())}
		} else {
			rec = journal.Record{Kind: journal.KindGroupMerge, S: c.name,
				A: int64(ch.Before[0].ID), B: int64(ch.Before[1].ID), C: int64(ch.After[0].ID)}
		}
		if err := e.applyGroupChange(rec); err != nil {
			return changes, err
		}
		e.journalAppend(rec)
	}
	return changes, err
}

// applyGroupChange applies one Group Tree split or merge, in its journal
// record form, to the LocalityManager and tells the unit index that units
// moved. ReportRDD passes the record of a change the GroupManager just
// made, before journaling it; replay passes the journaled record once it
// has re-applied the change to the rebuilt tree — so a live and a replayed
// change rewire locality the same way.
func (e *Engine) applyGroupChange(rec journal.Record) error {
	e.cl.UnitMappingChanged()
	if rec.Kind == journal.KindGroupSplit {
		return e.loc.ApplySplit(rec.S, int(rec.A), int(rec.B), int(rec.C), int(rec.D))
	}
	return e.loc.ApplyMerge(rec.S, int(rec.A), int(rec.B), int(rec.C))
}

// leastLoadedExecutor picks the live executor with the fewest locality
// assignments (ties broken by id), the target for newly split groups.
func (e *Engine) leastLoadedExecutor() int {
	loads := e.loc.AssignmentsPerExecutor()
	best := -1
	bestLoad := 0
	for _, id := range e.cl.AliveExecutors() {
		l := loads[id]
		if best == -1 || l < bestLoad {
			best = id
			bestLoad = l
		}
	}
	return best
}

// onEvictions de-replicates collection units whose last cached block on an
// executor was just evicted.
func (e *Engine) onEvictions(exec int, evicted []cluster.BlockID) {
	for _, id := range evicted {
		r := e.graph.ByID(id.RDD)
		if r == nil {
			continue
		}
		c, u, ok := e.unitOf(r, id.Partition)
		if !ok || e.cl.UnitCached(exec, u) {
			continue
		}
		e.loc.RemoveReplica(c.name, u.Unit, exec)
		e.repl.Dropped(u)
	}
}
