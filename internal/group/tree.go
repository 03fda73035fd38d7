// Package group implements Stark's extendable partition groups
// (paper Sec. III-C): data is divided into many small partitions whose
// key→partition mapping never changes, and partitions are organized into
// non-overlapping groups — the leaves of a binary Group Tree. A group is the
// unit of task scheduling; splitting or merging groups re-balances load
// without shuffling a single record, because partition boundaries are
// respected.
package group

import "fmt"

// node is a Group Tree node covering partitions [lo, hi).
type node struct {
	lo, hi      int
	left, right *node
}

func (n *node) isLeaf() bool { return n.left == nil }

func (n *node) width() int { return n.hi - n.lo }

// Group describes one leaf of the tree: a contiguous, non-empty partition
// range. ID is the first partition index in the range, which is stable
// across unrelated split/merge operations elsewhere in the tree.
type Group struct {
	ID int
	Lo int // inclusive
	Hi int // exclusive
}

// Width reports the number of partitions in the group.
func (g Group) Width() int { return g.Hi - g.Lo }

// Tree is the Group Tree (paper Fig. 8). It starts as a full binary tree
// with initialGroups leaves over numPartitions partitions and supports leaf
// splits and sibling merges.
type Tree struct {
	root          *node
	numPartitions int
}

// NewTree builds a tree over numPartitions partitions with initialGroups
// leaves. Both must be powers of two with initialGroups <= numPartitions
// (the paper makes the same simplifying assumption and notes it is easily
// relaxed). It panics on invalid configuration.
func NewTree(numPartitions, initialGroups int) *Tree {
	if numPartitions < 1 || numPartitions&(numPartitions-1) != 0 {
		panic(fmt.Sprintf("group: numPartitions %d must be a power of two", numPartitions))
	}
	if initialGroups < 1 || initialGroups&(initialGroups-1) != 0 || initialGroups > numPartitions {
		panic(fmt.Sprintf("group: initialGroups %d must be a power of two <= %d", initialGroups, numPartitions))
	}
	t := &Tree{root: &node{lo: 0, hi: numPartitions}, numPartitions: numPartitions}
	// Expand until the leaf count reaches initialGroups.
	var expand func(n *node, leavesWanted int)
	expand = func(n *node, leavesWanted int) {
		if leavesWanted <= 1 {
			return
		}
		t.splitNode(n)
		expand(n.left, leavesWanted/2)
		expand(n.right, leavesWanted/2)
	}
	expand(t.root, initialGroups)
	return t
}

// NumPartitions reports the fixed partition count the tree covers.
func (t *Tree) NumPartitions() int { return t.numPartitions }

func (t *Tree) splitNode(n *node) {
	mid := n.lo + n.width()/2
	n.left = &node{lo: n.lo, hi: mid}
	n.right = &node{lo: mid, hi: n.hi}
}

// findLeaf returns the leaf containing partition p.
func (t *Tree) findLeaf(p int) *node {
	n := t.root
	for !n.isLeaf() {
		if p < n.right.lo {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// findGroup returns the leaf whose group ID (lo) is id, or nil.
func (t *Tree) findGroup(id int) *node {
	if id < 0 || id >= t.numPartitions {
		return nil
	}
	n := t.findLeaf(id)
	if n.lo != id {
		return nil
	}
	return n
}

// GroupOf reports the group containing partition p.
func (t *Tree) GroupOf(p int) Group {
	if p < 0 || p >= t.numPartitions {
		//starklint:ignore hotalloc invariant panic: callers pass partitions of the tree's collection
		panic(fmt.Sprintf("group: partition %d out of range [0,%d)", p, t.numPartitions))
	}
	n := t.findLeaf(p)
	return Group{ID: n.lo, Lo: n.lo, Hi: n.hi}
}

// Groups returns all leaves in partition order.
func (t *Tree) Groups() []Group {
	var out []Group
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			out = append(out, Group{ID: n.lo, Lo: n.lo, Hi: n.hi})
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return out
}

// Split divides the group with the given id into its two halves and returns
// them. It fails if the group does not exist or holds a single partition
// (paper: "split can be applied to any leaf node with more than one
// partition").
func (t *Tree) Split(id int) (left, right Group, err error) {
	n := t.findGroup(id)
	if n == nil {
		return Group{}, Group{}, fmt.Errorf("group: no group with id %d", id)
	}
	if n.width() < 2 {
		return Group{}, Group{}, fmt.Errorf("group: group %d has a single partition and cannot split", id)
	}
	t.splitNode(n)
	return Group{ID: n.left.lo, Lo: n.left.lo, Hi: n.left.hi},
		Group{ID: n.right.lo, Lo: n.right.lo, Hi: n.right.hi}, nil
}

// Merge joins the group with the given id with its sibling, provided both
// are leaves under the same parent (paper: "merge can only be applied to two
// leaf node groups under the same parent node"). It returns the merged group.
func (t *Tree) Merge(id int) (Group, error) {
	n := t.findGroup(id)
	if n == nil {
		return Group{}, fmt.Errorf("group: no group with id %d", id)
	}
	parent := t.parentOf(n)
	if parent == nil {
		return Group{}, fmt.Errorf("group: group %d is the root and has no sibling", id)
	}
	if !parent.left.isLeaf() || !parent.right.isLeaf() {
		return Group{}, fmt.Errorf("group: sibling of group %d is not a leaf", id)
	}
	parent.left, parent.right = nil, nil
	return Group{ID: parent.lo, Lo: parent.lo, Hi: parent.hi}, nil
}

// parentOf walks from the root to find n's parent; nil for the root.
func (t *Tree) parentOf(target *node) *node {
	if target == t.root {
		return nil
	}
	n := t.root
	for {
		var next *node
		if target.lo < n.right.lo {
			next = n.left
		} else {
			next = n.right
		}
		if next == target {
			return n
		}
		if next.isLeaf() {
			return nil
		}
		n = next
	}
}

// SiblingOf reports the sibling group of the group with the given id, with
// ok=false when the group does not exist, is the root, or its sibling is not
// a leaf (i.e. the pair is not mergeable).
func (t *Tree) SiblingOf(id int) (Group, bool) {
	n := t.findGroup(id)
	if n == nil {
		return Group{}, false
	}
	parent := t.parentOf(n)
	if parent == nil || !parent.left.isLeaf() || !parent.right.isLeaf() {
		return Group{}, false
	}
	sib := parent.left
	if sib == n {
		sib = parent.right
	}
	return Group{ID: sib.lo, Lo: sib.lo, Hi: sib.hi}, true
}
