package engine

import (
	"fmt"
	"testing"
	"time"

	"stark/internal/cluster"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
)

// unitIDFor names unit of the registered namespace ns as the unit index
// and the replication policy key it.
func (e *Engine) unitIDFor(ns string, unit int) cluster.UnitID {
	return cluster.UnitID{NS: e.collections[ns].id, Unit: unit}
}

// checkSpecsAgreeWithIndex recounts every executor's cached units from the
// task specs of the member RDDs — the unit a member partition's task names —
// and requires the cluster's unit index to hold exactly those units. Every
// cached block must map, under the mapping the index counts by, to the unit
// its task spec names; blocks of any other RDD to no unit. CheckConsistency
// then ties the index's refcounts to that mapping.
func checkSpecsAgreeWithIndex(t *testing.T, e *Engine, members []*rdd.RDD, when string) {
	t.Helper()
	specUnit := make(map[cluster.BlockID]cluster.UnitID)
	for _, r := range members {
		c := e.collectionOf(r)
		if c == nil {
			t.Fatalf("%s: %s is no member of its namespace %q", when, r, r.Namespace)
		}
		for _, sp := range e.taskSpecs(r, c) {
			for _, p := range sp.partitions {
				specUnit[cluster.BlockID{RDD: r.ID, Partition: p}] = sp.unit
			}
		}
	}
	for _, ex := range e.Cluster().Executors() {
		if ex.Dead() {
			continue
		}
		want := make(map[cluster.UnitID]bool)
		for _, id := range ex.Store.Blocks() {
			u, member := specUnit[id]
			if member {
				want[u] = true
			}
			if got, ok := e.unitIDOf(id); ok != member || got != u {
				t.Fatalf("%s: the unit index counts %v under %v (ok=%v), its task spec names %v (member=%v)", when, id, got, ok, u, member)
			}
		}
		if got := e.Cluster().UnitsCached(ex.ID); got != len(want) {
			t.Fatalf("%s: executor %d indexes %d units, its member blocks' task specs name %d: %v", when, ex.ID, got, len(want), want)
		}
		for u := range want {
			if !e.Cluster().UnitCached(ex.ID, u) {
				t.Fatalf("%s: executor %d caches a block whose task spec names unit %v, the index does not count it", when, ex.ID, u)
			}
		}
	}
	if err := e.Cluster().CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestTaskSpecUnitsAgreeWithUnitIndex: under Stark-E with driver recovery
// and small group bounds, Group Tree splits and merges move partitions
// between units while members stay cached and a driver crash forgets every
// registration. After every job the unit each member partition's task spec
// names is the unit the cluster's unit index counts its block under, and
// every namespace keeps its interned id across the crash.
func TestTaskSpecUnitsAgreeWithUnitIndex(t *testing.T) {
	cfg := mcfConfig()
	cfg.DriverRecovery = true
	cfg.Groups.MaxBytes = 20_000
	cfg.Groups.MinBytes = 2_000
	e := New(cfg)
	g := e.Graph()
	p8, p4 := partition.NewHash(8), partition.NewHash(4)
	if err := e.RegisterNamespace("ns", p8, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterNamespace("other", p4, 1); err != nil {
		t.Fatal(err)
	}
	ids := map[string]int{"ns": e.collections["ns"].id, "other": e.collections["other"].id}
	if ids["ns"] == ids["other"] || ids["ns"] == 0 || ids["other"] == 0 {
		t.Fatalf("interned ids %v are not distinct and non-zero", ids)
	}

	var members []*rdd.RDD
	job := func(r *rdd.RDD, when string) int64 {
		t.Helper()
		n, _, err := e.Count(r)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		checkSpecsAgreeWithIndex(t, e, members, when)
		return n
	}
	cache := func(name, ns string, p partition.Partitioner, n, pad int) *rdd.RDD {
		t.Helper()
		lp := g.LocalityPartitionBy(g.Source(name+"-src", sizedDataset(n, p.NumPartitions(), pad), false), name, p, ns)
		lp.CacheFlag = true
		members = append(members, lp)
		job(lp, "cache "+name)
		return lp
	}
	report := func(r *rdd.RDD, when string) {
		t.Helper()
		changes, err := e.ReportRDD(r)
		if err != nil || len(changes) == 0 {
			t.Fatalf("%s: changes=%v err=%v", when, changes, err)
		}
		checkSpecsAgreeWithIndex(t, e, members, when)
	}

	big := cache("big", "ns", p8, 40, 400)
	cache("o1", "other", p4, 10, 10)
	report(big, "split")
	small := cache("small", "ns", p8, 1, 1)
	report(small, "merge")
	report(big, "re-split")

	// A cached cogroup wider than its namespace is no member: its blocks
	// count under no unit, whatever the tree does.
	wide := g.CoGroup("wide", partition.NewHash(16), big, small)
	wide.CacheFlag = true
	keys := job(g.CoGroup("cg", p8, big, small), "member cogroup")
	if n := job(wide, "non-member cogroup"); n != keys {
		t.Fatalf("non-member cogroup counts %d keys, the member cogroup %d", n, keys)
	}

	e.CrashDriver(0)
	e.RestartDriver()
	e.Loop().RunUntil(e.Now() + time.Second)
	for ns, id := range ids {
		c := e.registered[ns]
		if c == nil {
			t.Fatalf("namespace %q not re-registered by replay", ns)
		}
		if c.id != id || e.collections[ns] != c {
			t.Fatalf("namespace %q has id %d after the crash, %d before", ns, c.id, id)
		}
	}
	checkSpecsAgreeWithIndex(t, e, members, "after replay")
	job(g.CoGroup("cg2", p8, big, small), "member cogroup after replay")

	report(small, "merge after replay")
	if n := job(wide, "non-member cogroup after merge"); n != keys {
		t.Fatalf("non-member cogroup counts %d keys after the merge, want %d", n, keys)
	}
	cache("late", "ns", p8, 40, 400)
	report(big, "split after replay")
	for i, r := range members {
		job(g.Filter(r, fmt.Sprintf("q%d", i), func(record.Record) bool { return true }), "query "+r.Name)
	}
	for ns, id := range ids {
		if got := e.collections[ns].id; got != id {
			t.Fatalf("namespace %q has id %d at the end, %d at registration", ns, got, id)
		}
	}
}
