package group

import (
	"testing"
	"testing/quick"
)

func mustRegister(t *testing.T, m *Manager, ns string, parts, groups int) {
	t.Helper()
	if err := m.Register(ns, parts, groups); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterIdempotentAndConflict(t *testing.T) {
	m := NewManager(DefaultConfig())
	mustRegister(t, m, "ns", 16, 4)
	if err := m.Register("ns", 16, 4); err != nil {
		t.Fatalf("re-register same geometry: %v", err)
	}
	if err := m.Register("ns", 32, 4); err == nil {
		t.Fatal("re-register different geometry succeeded")
	}
	if _, err := m.Groups("ns"); err != nil {
		t.Fatalf("registered namespace unknown: %v", err)
	}
	if _, err := m.Groups("other"); err == nil {
		t.Fatal("unregistered namespace known")
	}
}

func TestReportValidation(t *testing.T) {
	m := NewManager(DefaultConfig())
	mustRegister(t, m, "ns", 8, 2)
	if err := m.ReportRDD("nope", make([]int64, 8)); err == nil {
		t.Fatal("unknown namespace accepted")
	}
	if err := m.ReportRDD("ns", make([]int64, 7)); err == nil {
		t.Fatal("wrong vector length accepted")
	}
}

func TestSplitOnOversizedGroup(t *testing.T) {
	m := NewManager(Config{MaxBytes: 100, MinBytes: 10, Window: 1})
	mustRegister(t, m, "ns", 8, 2) // groups [0,4) and [4,8)
	sizes := []int64{60, 60, 1, 1, 1, 1, 1, 1}
	if err := m.ReportRDD("ns", sizes); err != nil {
		t.Fatal(err)
	}
	changes, err := m.Rebalance("ns")
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 (120 bytes) splits once into [0,2)=120... still >100, splits
	// again into [0,1)=60 and [1,2)=60.
	if len(changes) < 2 {
		t.Fatalf("changes = %v", changes)
	}
	groups, _ := m.Groups("ns")
	byID := map[int]Group{}
	for _, g := range groups {
		byID[g.ID] = g
	}
	if g, ok := byID[0]; !ok || g.Width() != 1 {
		t.Fatalf("group 0 = %v", byID[0])
	}
	if g, ok := byID[1]; !ok || g.Width() != 1 {
		t.Fatalf("group 1 = %v", byID[1])
	}
	sz, _ := m.Sizes("ns")
	if sz[0] != 60 || sz[1] != 60 {
		t.Fatalf("sizes = %v", sz)
	}
}

func TestMergeOnUndersizedSiblings(t *testing.T) {
	m := NewManager(Config{MaxBytes: 1000, MinBytes: 50, Window: 1})
	mustRegister(t, m, "ns", 8, 4)
	// Groups [0,2),[2,4),[4,6),[6,8); first pair tiny, second pair big.
	if err := m.ReportRDD("ns", []int64{1, 1, 1, 1, 100, 100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	changes, err := m.Rebalance("ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Kind != ChangeMerge {
		t.Fatalf("changes = %+v", changes)
	}
	groups, _ := m.Groups("ns")
	if len(groups) != 3 || groups[0].Width() != 4 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestWindowAggregation(t *testing.T) {
	m := NewManager(Config{MaxBytes: 150, MinBytes: 1, Window: 2})
	mustRegister(t, m, "ns", 4, 1) // single group [0,4)
	// Each RDD alone is under the bound; two in the window exceed it.
	if err := m.ReportRDD("ns", []int64{25, 25, 25, 25}); err != nil {
		t.Fatal(err)
	}
	if ch, _ := m.Rebalance("ns"); len(ch) != 0 {
		t.Fatalf("premature rebalance: %v", ch)
	}
	if err := m.ReportRDD("ns", []int64{25, 25, 25, 25}); err != nil {
		t.Fatal(err)
	}
	ch, _ := m.Rebalance("ns")
	if len(ch) == 0 {
		t.Fatal("window sum over bound did not split")
	}
	// A third report evicts the first from the window (window=2), keeping
	// total at 200 across 2 RDDs; sizes reflect only the window.
	if err := m.ReportRDD("ns", []int64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	sz, _ := m.Sizes("ns")
	var total int64
	for _, b := range sz {
		total += b
	}
	if total != 100 {
		t.Fatalf("window total = %d, want 100", total)
	}
}

func TestRebalanceStable(t *testing.T) {
	m := NewManager(Config{MaxBytes: 100, MinBytes: 10, Window: 1})
	mustRegister(t, m, "ns", 16, 4)
	if err := m.ReportRDD("ns", []int64{30, 30, 30, 30, 1, 1, 1, 1, 1, 1, 1, 1, 200, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rebalance("ns"); err != nil {
		t.Fatal(err)
	}
	// Second rebalance with no new data must be a no-op.
	ch, err := m.Rebalance("ns")
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 0 {
		t.Fatalf("rebalance not stable: %v", ch)
	}
}

func TestSingleHotPartitionCannotSplitBelowOne(t *testing.T) {
	m := NewManager(Config{MaxBytes: 10, MinBytes: 1, Window: 1})
	mustRegister(t, m, "ns", 4, 1)
	if err := m.ReportRDD("ns", []int64{1000, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rebalance("ns"); err != nil {
		t.Fatal(err)
	}
	groups, _ := m.Groups("ns")
	// Hot partition 0 isolated into a single-partition group; no infinite
	// splitting.
	if groups[0].Width() != 1 {
		t.Fatalf("groups = %v", groups)
	}
}

// Property: after any report + rebalance, groups still tile the partition
// space and no multi-partition group exceeds MaxBytes.
func TestRebalancePropertyInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		const parts = 32
		m := NewManager(Config{MaxBytes: 500, MinBytes: 20, Window: 1})
		if err := m.Register("ns", parts, 4); err != nil {
			return false
		}
		sizes := make([]int64, parts)
		for i := range sizes {
			if len(raw) > 0 {
				sizes[i] = int64(raw[i%len(raw)] % 300)
			}
		}
		if err := m.ReportRDD("ns", sizes); err != nil {
			return false
		}
		if _, err := m.Rebalance("ns"); err != nil {
			return false
		}
		groups, _ := m.Groups("ns")
		at := 0
		for _, g := range groups {
			if g.Lo != at {
				return false
			}
			at = g.Hi
			var b int64
			for p := g.Lo; p < g.Hi; p++ {
				b += sizes[p]
			}
			if g.Width() > 1 && b > 500 {
				return false
			}
		}
		return at == parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerConcurrentAccess(t *testing.T) {
	m := NewManager(Config{MaxBytes: 200, MinBytes: 20, Window: 2})
	mustRegister(t, m, "ns", 32, 4)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			defer func() { done <- struct{}{} }()
			sizes := make([]int64, 32)
			for i := range sizes {
				sizes[i] = int64((w*13 + i*7) % 50)
			}
			for i := 0; i < 100; i++ {
				_ = m.ReportRDD("ns", sizes)
				_, _ = m.Rebalance("ns")
				_, _ = m.Groups("ns")
				_, _ = m.Sizes("ns")
				_, _ = m.GroupOf("ns", i%32)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	// Invariant: contiguous coverage survived the stampede.
	groups, err := m.Groups("ns")
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, g := range groups {
		if g.Lo != at {
			t.Fatalf("coverage broken: %v", groups)
		}
		at = g.Hi
	}
	if at != 32 {
		t.Fatalf("coverage ends at %d", at)
	}
}
