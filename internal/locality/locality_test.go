package locality

import (
	"testing"

	"stark/internal/partition"
)

func units(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRegisterRoundRobin(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(4), units(4), []int{10, 11}); err != nil {
		t.Fatal(err)
	}
	for u, want := range map[int]int{0: 10, 1: 11, 2: 10, 3: 11} {
		got, ok := m.Primary("ns", u)
		if !ok || got != want {
			t.Errorf("Primary(%d) = %d,%v want %d", u, got, ok, want)
		}
	}
	if got := m.Units("ns"); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("Units = %v", got)
	}
}

func TestRegisterPartitionerAgreement(t *testing.T) {
	m := NewManager()
	p := partition.NewHash(4)
	if err := m.Register("ns", p, units(4), []int{0}); err != nil {
		t.Fatal(err)
	}
	// Same partitioner: no-op.
	if err := m.Register("ns", partition.NewHash(4), units(4), []int{5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Primary("ns", 0); got != 0 {
		t.Fatal("re-register reassigned units")
	}
	// Conflicting partitioner rejected.
	if err := m.Register("ns", partition.NewHash(8), units(8), []int{0}); err == nil {
		t.Fatal("conflicting partitioner accepted")
	}
	if err := m.Register("", p, nil, []int{0}); err == nil {
		t.Fatal("empty namespace accepted")
	}
	if err := m.Register("ns2", p, units(4), nil); err == nil {
		t.Fatal("no executors accepted")
	}
}

func TestPartitionerLookup(t *testing.T) {
	m := NewManager()
	p := partition.NewHash(2)
	if err := m.Register("ns", p, units(2), []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := m.namespaces["ns"].partitioner; !got.Equivalent(p) {
		t.Fatal("Partitioner lookup wrong")
	}
	if len(m.Units("ns")) != 2 || m.Units("nope") != nil {
		t.Fatal("Units wrong")
	}
}

func TestReplicas(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(2), units(2), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	m.AddReplica("ns", 0, 5)
	m.AddReplica("ns", 0, 5) // idempotent
	if got := m.Preferred("ns", 0); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("Preferred = %v", got)
	}
	m.RemoveReplica("ns", 0, 0)
	if got, _ := m.Primary("ns", 0); got != 5 {
		t.Fatalf("Primary after removal = %d", got)
	}
	// Last executor is never removed.
	m.RemoveReplica("ns", 0, 5)
	if got := m.Preferred("ns", 0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Preferred = %v", got)
	}
	// Unknown namespace/unit are no-ops.
	m.AddReplica("nope", 0, 1)
	if got := m.Preferred("nope", 0); got != nil {
		t.Fatal("phantom namespace")
	}
}

func TestPreferredReturnsCopy(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(1), units(1), []int{7}); err != nil {
		t.Fatal(err)
	}
	got := m.Preferred("ns", 0)
	got[0] = 99
	if p, _ := m.Primary("ns", 0); p != 7 {
		t.Fatal("Preferred leaked internal slice")
	}
}

func TestApplySplit(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(8), []int{0, 4}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	m.AddReplica("ns", 0, 3)
	if err := m.ApplySplit("ns", 0, 0, 2, 9); err != nil {
		t.Fatal(err)
	}
	if got := m.Preferred("ns", 0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("left = %v", got)
	}
	if got := m.Preferred("ns", 2); len(got) != 1 || got[0] != 9 {
		t.Fatalf("right = %v", got)
	}
	if err := m.ApplySplit("ns", 99, 0, 1, 0); err == nil {
		t.Fatal("split of unknown unit succeeded")
	}
	if err := m.ApplySplit("nope", 0, 0, 1, 0); err == nil {
		t.Fatal("split in unknown namespace succeeded")
	}
}

func TestApplyMerge(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(8), []int{0, 2}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	m.AddReplica("ns", 2, 1) // unit 2 now lists {2, 1}; union must dedupe
	if err := m.ApplyMerge("ns", 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	got := m.Preferred("ns", 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("merged = %v", got)
	}
	if got := m.Preferred("ns", 2); len(got) != 0 {
		t.Fatal("right unit survived merge")
	}
	if err := m.ApplyMerge("ns", 50, 51, 50); err == nil {
		t.Fatal("merge of unknown units succeeded")
	}
}

func TestDropExecutor(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(2), units(2), []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	m.AddReplica("ns", 0, 2)
	m.DropExecutor(1, []int{8, 9})
	// Unit 0 had {1,2} -> {2}; unit 1 had {2} untouched.
	if got := m.Preferred("ns", 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("unit0 = %v", got)
	}
	// Kill 2 as well: both units reassigned to fallbacks.
	m.DropExecutor(2, []int{8, 9})
	p0, _ := m.Primary("ns", 0)
	p1, _ := m.Primary("ns", 1)
	if (p0 != 8 && p0 != 9) || (p1 != 8 && p1 != 9) {
		t.Fatalf("fallback primaries = %d, %d", p0, p1)
	}
}

// TestDropExecutorReassignsInUnitOrder pins the fallback round-robin to
// ascending unit order: map iteration order must not pick which orphaned
// unit gets which fallback executor.
func TestDropExecutorReassignsInUnitOrder(t *testing.T) {
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 1, 4: 3, 5: 1, 6: 1, 7: 1}
	for run := 0; run < 20; run++ {
		m := NewManager()
		if err := m.Register("ns", partition.NewHash(8), units(8), []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		m.DropExecutor(0, []int{1, 2, 3})
		for u := 0; u < 8; u++ {
			if got := m.Preferred("ns", u); len(got) != 1 || got[0] != want[u] {
				t.Fatalf("run %d: unit %d preferred %v, want [%d]", run, u, got, want[u])
			}
		}
	}
}

func TestAssignmentsPerExecutor(t *testing.T) {
	m := NewManager()
	if err := m.Register("a", partition.NewHash(2), units(2), []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b", partition.NewHash(2), units(2), []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	got := m.AssignmentsPerExecutor()
	if got[1] != 3 || got[2] != 1 {
		t.Fatalf("assignments = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := NewManager()
	if err := m.Register("ns", partition.NewHash(16), units(16), []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				u := (w*37 + i) % 16
				m.AddReplica("ns", u, 4+w)
				m.Preferred("ns", u)
				m.RemoveReplica("ns", u, 4+w)
				m.AssignmentsPerExecutor()
				m.Units("ns")
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	for u := 0; u < 16; u++ {
		if got := m.Preferred("ns", u); len(got) == 0 {
			t.Fatalf("unit %d lost all executors", u)
		}
	}
}
