package group

import (
	"fmt"
	"sort"
	"sync"
)

// ChangeKind distinguishes rebalance operations.
type ChangeKind int

// Rebalance operation kinds.
const (
	ChangeSplit ChangeKind = iota + 1
	ChangeMerge
)

// Change records one split or merge the manager performed, so the locality
// layer can split or merge the corresponding executor assignments (paper:
// "splitting (merging) a partition group also splits (merges) the
// corresponding local executors").
type Change struct {
	Kind ChangeKind
	// Before is the group (split) or the two sibling groups (merge) that
	// existed before the change.
	Before []Group
	// After is the two sub-groups (split) or the merged group (merge).
	After []Group
}

// Config bounds group sizes. When the byte size of a group (aggregated over
// the most recent Window reported RDDs of the namespace) exceeds MaxBytes
// the group splits; when a group and its sibling together fall below
// MinBytes they merge. This mirrors
// spark.locality.max(min)GroupMemSize in the paper's implementation notes.
type Config struct {
	MaxBytes int64
	MinBytes int64
	// Window is how many of the most recent reported RDDs contribute to
	// group sizes (paper: "the user may configure how many of the most
	// recent RDDs are accounted").
	Window int
}

// DefaultConfig returns the bounds used by the evaluation harness.
func DefaultConfig() Config {
	return Config{MaxBytes: 512 << 20, MinBytes: 64 << 20, Window: 3}
}

// Manager is the GroupManager: it owns one Group Tree per namespace,
// accumulates collection-partition sizes from reported RDDs, and performs
// threshold-triggered splits and merges. It is safe for concurrent use.
type Manager struct {
	mu         sync.Mutex
	cfg        Config
	namespaces map[string]*namespaceState
}

type namespaceState struct {
	tree    *Tree
	history [][]int64 // most recent Window per-partition size vectors
}

// NewManager returns a manager with the given bounds.
func NewManager(cfg Config) *Manager {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	return &Manager{cfg: cfg, namespaces: make(map[string]*namespaceState)}
}

// Register creates the namespace's Group Tree with the given geometry. It is
// idempotent for identical geometry and fails if the namespace exists with a
// different one.
func (m *Manager) Register(ns string, numPartitions, initialGroups int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.namespaces[ns]; ok {
		if st.tree.NumPartitions() != numPartitions {
			return fmt.Errorf("group: namespace %q already registered with %d partitions", ns, st.tree.NumPartitions())
		}
		return nil
	}
	m.namespaces[ns] = &namespaceState{tree: NewTree(numPartitions, initialGroups)}
	return nil
}

// ReportRDD feeds one RDD's per-partition byte sizes into the namespace's
// sliding window (the reportRDD(rdd) API in the paper). The vector length
// must match the namespace's partition count.
func (m *Manager) ReportRDD(ns string, partitionBytes []int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return fmt.Errorf("group: unknown namespace %q", ns)
	}
	if len(partitionBytes) != st.tree.NumPartitions() {
		return fmt.Errorf("group: namespace %q has %d partitions, got %d sizes",
			ns, st.tree.NumPartitions(), len(partitionBytes))
	}
	v := make([]int64, len(partitionBytes))
	copy(v, partitionBytes)
	st.history = append(st.history, v)
	if len(st.history) > m.cfg.Window {
		st.history = st.history[len(st.history)-m.cfg.Window:]
	}
	return nil
}

// aggregated returns the per-partition sizes summed over the window.
func (st *namespaceState) aggregated() []int64 {
	out := make([]int64, st.tree.NumPartitions())
	for _, v := range st.history {
		for i, b := range v {
			out[i] += b
		}
	}
	return out
}

// GroupBytes reports the aggregated byte size of the group holding partition
// range [g.Lo, g.Hi).
func groupBytes(sizes []int64, g Group) int64 {
	var s int64
	for p := g.Lo; p < g.Hi; p++ {
		s += sizes[p]
	}
	return s
}

// Groups returns the namespace's current groups in partition order.
func (m *Manager) Groups(ns string) ([]Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return nil, fmt.Errorf("group: unknown namespace %q", ns)
	}
	return st.tree.Groups(), nil
}

// GroupOf reports the group containing partition p.
//
//starklint:ignore unreachable bench/layers.go (group.groupof_ns_op)
func (m *Manager) GroupOf(ns string, p int) (Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return Group{}, fmt.Errorf("group: unknown namespace %q", ns)
	}
	return st.tree.GroupOf(p), nil
}

// Tree returns the namespace's Group Tree itself. The manager changes the
// tree only inside Rebalance, ReplaySplit and ReplayMerge, so a caller that
// makes those calls may read the tree between them without the lock; any
// other goroutine must go through the manager.
func (m *Manager) Tree(ns string) (*Tree, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return nil, fmt.Errorf("group: unknown namespace %q", ns)
	}
	return st.tree, nil
}

// Sizes returns the aggregated per-group sizes in partition order.
func (m *Manager) Sizes(ns string) (map[int]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return nil, fmt.Errorf("group: unknown namespace %q", ns)
	}
	sizes := st.aggregated()
	out := make(map[int]int64)
	for _, g := range st.tree.Groups() {
		out[g.ID] = groupBytes(sizes, g)
	}
	return out, nil
}

// Rebalance applies threshold-triggered splits and merges until the tree is
// stable, returning the ordered list of changes. Splits run before merges;
// a group splits while it exceeds MaxBytes and spans more than one
// partition, and two sibling leaves merge while their combined size is
// below MinBytes.
func (m *Manager) Rebalance(ns string) ([]Change, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return nil, fmt.Errorf("group: unknown namespace %q", ns)
	}
	sizes := st.aggregated()
	var changes []Change

	// Split pass: repeatedly split the largest oversized group so the
	// change list is deterministic.
	for {
		var candidates []Group
		for _, g := range st.tree.Groups() {
			if g.Width() > 1 && groupBytes(sizes, g) > m.cfg.MaxBytes {
				candidates = append(candidates, g)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			bi, bj := groupBytes(sizes, candidates[i]), groupBytes(sizes, candidates[j])
			if bi != bj {
				return bi > bj
			}
			return candidates[i].ID < candidates[j].ID
		})
		g := candidates[0]
		l, r, err := st.tree.Split(g.ID)
		if err != nil {
			return changes, err
		}
		changes = append(changes, Change{Kind: ChangeSplit, Before: []Group{g}, After: []Group{l, r}})
	}

	// Merge pass: merge sibling leaf pairs whose combined size is under the
	// lower bound, smallest pair first.
	for {
		merged := false
		groups := st.tree.Groups()
		type pair struct {
			a, b  Group
			total int64
		}
		var best *pair
		seen := make(map[int]bool)
		for _, g := range groups {
			if seen[g.ID] {
				continue
			}
			sib, ok := st.tree.SiblingOf(g.ID)
			if !ok {
				continue
			}
			seen[g.ID], seen[sib.ID] = true, true
			total := groupBytes(sizes, g) + groupBytes(sizes, sib)
			if total >= m.cfg.MinBytes {
				continue
			}
			if best == nil || total < best.total || (total == best.total && g.ID < best.a.ID) {
				p := pair{a: g, b: sib, total: total}
				if p.b.ID < p.a.ID {
					p.a, p.b = p.b, p.a
				}
				best = &p
			}
		}
		if best != nil {
			mg, err := st.tree.Merge(best.a.ID)
			if err != nil {
				return changes, err
			}
			changes = append(changes, Change{Kind: ChangeMerge, Before: []Group{best.a, best.b}, After: []Group{mg}})
			merged = true
		}
		if !merged {
			break
		}
	}
	return changes, nil
}

// ReplaySplit re-applies a journaled split during driver crash recovery: it
// splits the named group unconditionally, bypassing the size thresholds —
// the original decision already passed them and its sizes died with the
// driver. Returns the two halves.
func (m *Manager) ReplaySplit(ns string, groupID int) (Group, Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return Group{}, Group{}, fmt.Errorf("group: unknown namespace %q", ns)
	}
	return st.tree.Split(groupID)
}

// ReplayMerge re-applies a journaled merge during driver crash recovery,
// merging the named left sibling with its pair unconditionally. Returns the
// merged group.
func (m *Manager) ReplayMerge(ns string, leftID int) (Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[ns]
	if !ok {
		return Group{}, fmt.Errorf("group: unknown namespace %q", ns)
	}
	return st.tree.Merge(leftID)
}
