// Package locality implements Stark's LocalityManager (paper Sec. III-B):
// it pins every *collection partition* — partition i of every RDD registered
// under a namespace — to the same preferred executor set, giving cogroup and
// join across the collection fully local, shuffle-free inputs.
//
// A scheduling unit here is either a raw partition id (plain co-locality) or
// a partition-group id (extendable mode); the manager is agnostic and calls
// both "unit". Each unit maps to an ordered executor list whose head is the
// primary: the delay scheduler asks for this list, and remote launches
// append the chosen executor as a replica because the computed data is now
// cached there (paper: "a collection partition maps to a set of executors
// instead of a single one").
package locality

import (
	"fmt"
	"sort"
	"sync"

	"stark/internal/partition"
)

// Namespace is one registered dataset collection.
type namespaceState struct {
	partitioner partition.Partitioner
	units       map[int][]int // unit id -> ordered executor ids
}

// Manager tracks namespaces and their unit→executor maps. It is safe for
// concurrent use.
type Manager struct {
	mu         sync.Mutex
	namespaces map[string]*namespaceState
}

// NewManager returns an empty LocalityManager.
func NewManager() *Manager {
	return &Manager{namespaces: make(map[string]*namespaceState)}
}

// Register creates namespace ns with the given partitioner and assigns the
// given units round-robin over executors. If ns already exists, the
// partitioner must agree with the registered one (paper: "LocalityManager
// creates a namespace if it has not seen ns before, or checks whether the
// partitioner p agrees with the existing partitioner") and the call is
// otherwise a no-op.
func (m *Manager) Register(ns string, p partition.Partitioner, units []int, executors []int) error {
	if ns == "" {
		return fmt.Errorf("locality: empty namespace")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.namespaces[ns]; ok {
		if !st.partitioner.Equivalent(p) {
			return fmt.Errorf("locality: namespace %q registered with partitioner %s, got %s",
				ns, st.partitioner.Describe(), p.Describe())
		}
		return nil
	}
	if len(executors) == 0 {
		return fmt.Errorf("locality: namespace %q registered with no executors", ns)
	}
	st := &namespaceState{
		partitioner: p,
		units:       make(map[int][]int, len(units)),
	}
	sorted := make([]int, len(units))
	copy(sorted, units)
	sort.Ints(sorted)
	for i, u := range sorted {
		st.units[u] = []int{executors[i%len(executors)]}
	}
	m.namespaces[ns] = st
	return nil
}

// Preferred returns the ordered executor list of a unit (primary first),
// empty when the namespace or unit is unknown. The slice is a copy.
func (m *Manager) Preferred(ns string, unit int) []int { return m.AppendPreferred(nil, ns, unit) }

// AppendPreferred appends a unit's ordered executor list (primary first) to
// dst and returns the extended slice, so a caller with scratch room pays no
// allocation; nothing is appended when the namespace or unit is unknown.
func (m *Manager) AppendPreferred(dst []int, ns string, unit int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return dst
	}
	return append(dst, st.units[unit]...)
}

// Primary returns the head of a unit's executor list.
func (m *Manager) Primary(ns string, unit int) (int, bool) {
	ex := m.Preferred(ns, unit)
	if len(ex) == 0 {
		return 0, false
	}
	return ex[0], true
}

// AddReplica appends an executor to a unit's list if absent; a task that
// ran remotely has materialized the unit's data in that executor's cache.
func (m *Manager) AddReplica(ns string, unit, exec int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return
	}
	for _, e := range st.units[unit] {
		if e == exec {
			return
		}
	}
	st.units[unit] = append(st.units[unit], exec)
}

// RemoveReplica drops an executor from a unit's list (cache eviction or
// contention-aware de-replication). The primary can only be removed when a
// replica remains to take over.
func (m *Manager) RemoveReplica(ns string, unit, exec int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return
	}
	execs := st.units[unit]
	for i, e := range execs {
		if e != exec {
			continue
		}
		if len(execs) == 1 {
			return // never leave a unit with no preferred executor
		}
		st.units[unit] = append(execs[:i:i], execs[i+1:]...)
		return
	}
}

// DropExecutor removes a failed executor from every unit's list; units whose
// whole list died are reassigned to the given fallback executors
// round-robin in ascending unit order.
func (m *Manager) DropExecutor(exec int, fallback []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.namespaces {
		i := 0
		for _, u := range st.unitIDs() {
			execs := st.units[u]
			kept := execs[:0]
			for _, e := range execs {
				if e != exec {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 && len(fallback) > 0 {
				kept = append(kept, fallback[i%len(fallback)])
				i++
			}
			st.units[u] = kept
		}
	}
}

// ApplySplit rewires a split: the left child unit inherits the parent's
// executor list (its cached partitions stay put), while the right child is
// assigned the provided new executor — this is the moment Stark-E pays a
// first-job reconstruction penalty in exchange for lasting balance
// (paper Fig. 14 discussion).
func (m *Manager) ApplySplit(ns string, parentUnit, leftUnit, rightUnit, newExec int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return fmt.Errorf("locality: unknown namespace %q", ns)
	}
	parentExecs, ok := st.units[parentUnit]
	if !ok {
		return fmt.Errorf("locality: namespace %q has no unit %d", ns, parentUnit)
	}
	delete(st.units, parentUnit)
	st.units[leftUnit] = parentExecs
	st.units[rightUnit] = []int{newExec}
	return nil
}

// ApplyMerge rewires a merge: the merged unit's list is the union of the
// children's lists, left child's primary first, so no cached data is
// abandoned.
func (m *Manager) ApplyMerge(ns string, leftUnit, rightUnit, mergedUnit int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return fmt.Errorf("locality: unknown namespace %q", ns)
	}
	left := st.units[leftUnit]
	right := st.units[rightUnit]
	if left == nil && right == nil {
		return fmt.Errorf("locality: namespace %q has neither unit %d nor %d", ns, leftUnit, rightUnit)
	}
	delete(st.units, leftUnit)
	delete(st.units, rightUnit)
	merged := make([]int, 0, len(left)+len(right))
	seen := make(map[int]bool)
	for _, e := range append(append([]int{}, left...), right...) {
		if !seen[e] {
			seen[e] = true
			merged = append(merged, e)
		}
	}
	st.units[mergedUnit] = merged
	return nil
}

// Units returns the namespace's unit ids, ascending.
func (m *Manager) Units(ns string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return nil
	}
	return st.unitIDs()
}

// unitIDs returns the namespace's unit ids, ascending.
func (st *namespaceState) unitIDs() []int {
	out := make([]int, 0, len(st.units))
	for u := range st.units {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// AssignmentsPerExecutor counts, across all namespaces, how many units list
// each executor; the engine uses it to pick least-loaded executors for
// split targets.
func (m *Manager) AssignmentsPerExecutor() map[int]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]int)
	for _, st := range m.namespaces {
		for _, execs := range st.units {
			for _, e := range execs {
				out[e]++
			}
		}
	}
	return out
}
