package group

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func coverage(t *testing.T, tr *Tree) {
	t.Helper()
	groups := tr.Groups()
	at := 0
	for _, g := range groups {
		if g.Lo != at {
			t.Fatalf("gap or overlap at partition %d: groups %v", at, groups)
		}
		if g.Width() < 1 {
			t.Fatalf("empty group %v", g)
		}
		if g.ID != g.Lo {
			t.Fatalf("group id %d != lo %d", g.ID, g.Lo)
		}
		at = g.Hi
	}
	if at != tr.NumPartitions() {
		t.Fatalf("groups cover [0,%d), want [0,%d)", at, tr.NumPartitions())
	}
}

func TestNewTreeInitialGroups(t *testing.T) {
	tr := NewTree(16, 4)
	groups := tr.Groups()
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	for i, g := range groups {
		if g.Lo != i*4 || g.Hi != (i+1)*4 {
			t.Errorf("group %d = [%d,%d), want [%d,%d)", i, g.Lo, g.Hi, i*4, (i+1)*4)
		}
	}
	coverage(t, tr)
}

func TestSplitAndMerge(t *testing.T) {
	tr := NewTree(16, 4)
	l, r, err := tr.Split(0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Lo != 0 || l.Hi != 2 || r.Lo != 2 || r.Hi != 4 {
		t.Fatalf("split = %v, %v", l, r)
	}
	if len(tr.Groups()) != 5 {
		t.Fatalf("groups = %d", len(tr.Groups()))
	}
	coverage(t, tr)

	m, err := tr.Merge(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lo != 0 || m.Hi != 4 {
		t.Fatalf("merge = %v", m)
	}
	if len(tr.Groups()) != 4 {
		t.Fatalf("groups = %d", len(tr.Groups()))
	}
	coverage(t, tr)
}

func TestSplitSinglePartitionFails(t *testing.T) {
	tr := NewTree(4, 4)
	if _, _, err := tr.Split(0); err == nil {
		t.Fatal("splitting single-partition group succeeded")
	}
}

func TestSplitUnknownGroupFails(t *testing.T) {
	tr := NewTree(16, 4)
	if _, _, err := tr.Split(1); err == nil {
		t.Fatal("splitting non-group id succeeded")
	}
	if _, _, err := tr.Split(99); err == nil {
		t.Fatal("splitting out-of-range id succeeded")
	}
}

func TestMergeRequiresSiblingLeaves(t *testing.T) {
	tr := NewTree(16, 2) // leaves [0,8) and [8,16)
	if _, _, err := tr.Split(0); err != nil {
		t.Fatal(err)
	}
	// Now leaves are [0,4),[4,8),[8,16). Merging 8 needs sibling [0,8),
	// which is not a leaf.
	if _, err := tr.Merge(8); err == nil {
		t.Fatal("merge with non-leaf sibling succeeded")
	}
	// Merging the root back.
	if _, err := tr.Merge(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Merge(0); err != nil {
		t.Fatal(err)
	}
	if len(tr.Groups()) != 1 {
		t.Fatalf("groups = %d, want 1", len(tr.Groups()))
	}
	// Root cannot merge further.
	if _, err := tr.Merge(0); err == nil {
		t.Fatal("merging root succeeded")
	}
}

func TestGroupOf(t *testing.T) {
	tr := NewTree(16, 4)
	if _, _, err := tr.Split(4); err != nil {
		t.Fatal(err)
	}
	cases := map[int]int{0: 0, 3: 0, 4: 4, 5: 4, 6: 6, 7: 6, 8: 8, 15: 12}
	for p, want := range cases {
		if g := tr.GroupOf(p); g.ID != want {
			t.Errorf("GroupOf(%d) = %d, want %d", p, g.ID, want)
		}
	}
}

func TestSiblingOf(t *testing.T) {
	tr := NewTree(8, 4)
	sib, ok := tr.SiblingOf(0)
	if !ok || sib.ID != 2 {
		t.Fatalf("SiblingOf(0) = %v, %v", sib, ok)
	}
	sib, ok = tr.SiblingOf(6)
	if !ok || sib.ID != 4 {
		t.Fatalf("SiblingOf(6) = %v, %v", sib, ok)
	}
	if _, ok := tr.SiblingOf(1); ok {
		t.Fatal("SiblingOf(non-group) succeeded")
	}
}

// TestRandomSplitMergeInvariant drives random valid operations and checks
// that the leaves always exactly tile the partition space.
func TestRandomSplitMergeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree(64, 8)
		for op := 0; op < 200; op++ {
			groups := tr.Groups()
			g := groups[rng.Intn(len(groups))]
			if rng.Intn(2) == 0 {
				_, _, _ = tr.Split(g.ID)
			} else {
				_, _ = tr.Merge(g.ID)
			}
			// Invariant: contiguous non-empty coverage of [0, 64).
			at := 0
			for _, gg := range tr.Groups() {
				if gg.Lo != at || gg.Width() < 1 {
					return false
				}
				at = gg.Hi
			}
			if at != 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMergeAreInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree(32, 4)
		groups := tr.Groups()
		g := groups[rng.Intn(len(groups))]
		if g.Width() < 2 {
			return true
		}
		before := len(tr.Groups())
		if _, _, err := tr.Split(g.ID); err != nil {
			return false
		}
		if _, err := tr.Merge(g.ID); err != nil {
			return false
		}
		after := tr.GroupOf(g.Lo)
		return len(tr.Groups()) == before && after.Lo == g.Lo && after.Hi == g.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTreeValidation(t *testing.T) {
	for _, c := range []struct{ p, g int }{{0, 1}, {3, 1}, {8, 3}, {8, 16}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTree(%d,%d) did not panic", c.p, c.g)
				}
			}()
			NewTree(c.p, c.g)
		}()
	}
}

func TestGroupOfOutOfRangePanics(t *testing.T) {
	tr := NewTree(8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.GroupOf(8)
}
