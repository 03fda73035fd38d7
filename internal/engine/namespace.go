package engine

import (
	"fmt"

	"stark/internal/cluster"
	"stark/internal/group"
	"stark/internal/journal"
	"stark/internal/partition"
	"stark/internal/rdd"
)

// RegisterNamespace declares a locality namespace for RDDs created with
// rdd.Graph.LocalityPartitionBy: the LocalityManager pins the collection's
// partitions (or partition groups, in extendable mode) to executors. The
// partitioner fixes the collection's partition count; initialGroups sizes
// the Group Tree when extendable partitioning is enabled (both the
// partition count and initialGroups must then be powers of two).
// Registration is idempotent for an agreeing partitioner.
func (e *Engine) RegisterNamespace(ns string, p partition.Partitioner, initialGroups int) error {
	if !e.cfg.Features.CoLocality {
		// Without co-locality the namespace is inert; accept and ignore so
		// the same application code runs under every configuration.
		return nil
	}
	_, known := e.nsParts[ns]
	if err := e.registerNamespace(ns, p, initialGroups); err != nil {
		return err
	}
	if e.jrn != nil {
		// The partitioner is a client-side object: it cannot be serialized,
		// so the journal records the registration and the application's
		// re-registration call (or this retained reference) re-supplies the
		// closure at replay time.
		e.nsPartitioners[ns] = p
		if !known {
			e.journalAppend(journal.Record{Kind: journal.KindNamespace, S: ns, A: int64(initialGroups)})
		}
	}
	return nil
}

// ReportRDD feeds a materialized RDD's partition sizes to the GroupManager
// (the paper's GroupManager.reportRDD API) and applies any threshold-
// triggered splits or merges, rewiring the LocalityManager accordingly.
// It returns the changes performed.
func (e *Engine) ReportRDD(r *rdd.RDD) ([]group.Change, error) {
	ns := r.Namespace
	if ns == "" {
		return nil, fmt.Errorf("engine: RDD %s has no namespace", r)
	}
	if !e.cfg.Features.Extendable || !e.grp.Registered(ns) {
		return nil, nil
	}
	if r.PartBytes == nil {
		return nil, fmt.Errorf("engine: RDD %s not materialized", r)
	}
	if err := e.grp.ReportRDD(ns, r.PartBytes); err != nil {
		return nil, err
	}
	changes, err := e.grp.Rebalance(ns)
	if len(changes) > 0 {
		// Every split or merge moves partitions between units.
		e.cl.UnitMappingChanged()
	}
	if err != nil {
		return nil, err
	}
	for _, ch := range changes {
		switch ch.Kind {
		case group.ChangeSplit:
			newExec := e.leastLoadedExecutor()
			if err := e.loc.ApplySplit(ns, ch.Before[0].ID, ch.After[0].ID, ch.After[1].ID, newExec); err != nil {
				return changes, err
			}
			e.journalAppend(journal.Record{Kind: journal.KindGroupSplit, S: ns,
				A: int64(ch.Before[0].ID), B: int64(ch.After[0].ID), C: int64(ch.After[1].ID), D: int64(newExec)})
		case group.ChangeMerge:
			if err := e.loc.ApplyMerge(ns, ch.Before[0].ID, ch.Before[1].ID, ch.After[0].ID); err != nil {
				return changes, err
			}
			e.journalAppend(journal.Record{Kind: journal.KindGroupMerge, S: ns,
				A: int64(ch.Before[0].ID), B: int64(ch.Before[1].ID), C: int64(ch.After[0].ID)})
		}
	}
	return changes, nil
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

// unitOf maps a block to its collection unit, or ok=false when the block's
// RDD is outside any active namespace. The cluster's unit index counts
// under this mapping (unitIDOf), so whatever changes its answer — namespace
// registration, Group Tree geometry, the managers themselves — must call
// Cluster.UnitMappingChanged.
func (e *Engine) unitOf(id cluster.BlockID) (ns string, unit int, ok bool) {
	r := e.graph.ByID(id.RDD)
	if r == nil || r.Namespace == "" {
		return "", 0, false
	}
	ns = r.Namespace
	if !e.loc.Registered(ns) {
		return "", 0, false
	}
	if e.cfg.Features.Extendable && e.grp.Registered(ns) {
		g, err := e.grp.GroupOf(ns, id.Partition)
		if err != nil {
			return "", 0, false
		}
		return ns, g.ID, true
	}
	return ns, id.Partition, true
}

// unitID names a collection unit the one way every unit-keyed table does —
// the cluster's unit index, the dag policy's peer groups, the replication
// policy's demand counters.
func (e *Engine) unitID(ns string, unit int) cluster.UnitID {
	return cluster.UnitID{NS: e.nsIDs[ns], Unit: unit}
}

// unitIDOf is unitOf as a cluster.UnitID: the mapping installed into the
// unit index and, under the dag policy, the peer-group function.
func (e *Engine) unitIDOf(id cluster.BlockID) (cluster.UnitID, bool) {
	ns, unit, ok := e.unitOf(id)
	if !ok {
		return cluster.UnitID{}, false
	}
	return e.unitID(ns, unit), true
}

// onEvictions de-replicates collection units whose last cached block on an
// executor was just evicted.
func (e *Engine) onEvictions(exec int, evicted []cluster.BlockID) {
	for _, id := range evicted {
		ns, unit, ok := e.unitOf(id)
		if !ok {
			continue
		}
		if e.unitCachedOn(ns, unit, exec) {
			continue
		}
		e.loc.RemoveReplica(ns, unit, exec)
		e.repl.Dropped(e.unitID(ns, unit))
	}
}

// unitCachedOn reports whether the executor still caches any block of the
// unit: one refcount lookup in the cluster's unit index.
func (e *Engine) unitCachedOn(ns string, unit, exec int) bool {
	return e.cl.UnitCached(exec, e.unitID(ns, unit))
}
