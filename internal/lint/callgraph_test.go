package lint_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"stark/internal/lint"
)

// edgeKeys renders a node's out-edges as "kind calleeName" strings, deduped
// and sorted, for golden comparison.
func edgeKeys(n *lint.Node) []string {
	if n == nil {
		return nil
	}
	set := map[string]bool{}
	for _, e := range n.Out {
		set[fmt.Sprintf("%s %s", e.Kind, e.Callee.Name)] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func assertEdges(t *testing.T, g *lint.CallGraph, caller string, want []string) {
	t.Helper()
	n := g.Node(caller)
	if n == nil {
		t.Fatalf("no node for %s", caller)
	}
	got := edgeKeys(n)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s edges mismatch\nwant:\n  %s\ngot:\n  %s",
			caller, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
	}
}

// TestCallGraphFixture pins the builder's golden behavior over the fixture:
// static calls, method-value references, interface-dispatch
// over-approximation, and generic origin normalization.
func TestCallGraphFixture(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "callgraph"), "fixture/callgraph")
	g := lint.BuildCallGraph([]*lint.Package{pkg})

	assertEdges(t, g, "fixture/callgraph.direct", []string{
		"static fixture/callgraph.leaf",
		"static (*fixture/callgraph.adder).add",
		"static (fixture/callgraph.adder).get",
	})
	assertEdges(t, g, "fixture/callgraph.methodValue", []string{
		"ref fixture/callgraph.leaf",
		"ref (*fixture/callgraph.adder).add",
	})
	// The interface call must over-approximate to every module
	// implementation, whichever receiver form satisfies the interface.
	assertEdges(t, g, "fixture/callgraph.dispatch", []string{
		"iface (fixture/callgraph.impl1).do",
		"iface (*fixture/callgraph.impl2).do",
	})
	assertEdges(t, g, "fixture/callgraph.useGeneric", []string{
		"static fixture/callgraph.identity",
	})

	// Every fixture function must be a node with its declaration bound.
	for _, name := range []string{
		"fixture/callgraph.direct", "fixture/callgraph.leaf",
		"(*fixture/callgraph.adder).add", "(fixture/callgraph.impl1).do",
	} {
		n := g.Node(name)
		if n == nil || n.Decl == nil || n.Pkg == nil {
			t.Errorf("node %s missing source binding: %+v", name, n)
		}
	}
}

// TestCallGraphCrossPackage loads real module packages with source and
// asserts the cross-package edge lands on the callee's source-bound node:
// the rdd join transform must reach the record merge-join kernel even
// though the two packages type-check against different types.Package views.
// It also pins the edges that need an interface seen through another
// package's export data, a generic constraint, or a package-level var
// initialiser.
func TestCallGraphCrossPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	root := moduleRoot(t)
	pkgs, err := lint.Load(root, "./internal/rdd", "./internal/record", "./internal/partition",
		"./internal/locality", "./internal/experiments", "./cmd/starkbench")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	if len(pkgs) != 6 {
		t.Fatalf("want 6 packages, got %d", len(pkgs))
	}
	g := lint.BuildCallGraph(pkgs)

	for _, c := range []struct{ caller, edge string }{
		{"(*stark/internal/rdd.Graph).GroupByKey", "iface (stark/internal/partition.Hash).Equivalent"},
		{"(*stark/internal/locality.Manager).Register", "iface (stark/internal/partition.Range).Equivalent"},
		{"stark/cmd/starkbench.profile", "iface (stark/internal/experiments.Fig20Config).Quick"},
		{"stark/cmd/starkbench.init", "static stark/internal/experiments.RunFig20"},
	} {
		if !slices.Contains(edgeKeys(g.Node(c.caller)), c.edge) {
			t.Errorf("%s: no edge %q", c.caller, c.edge)
		}
	}

	callee := g.Node("stark/internal/record.JoinRecords")
	if callee == nil {
		t.Fatal("no node for stark/internal/record.JoinRecords")
	}
	if callee.Decl == nil || callee.Pkg == nil {
		t.Fatal("JoinRecords node lost its source binding across packages")
	}
	found := false
	for _, n := range g.Nodes() {
		if n.Pkg == nil || n.Pkg.ImportPath != "stark/internal/rdd" {
			continue
		}
		for _, e := range n.Out {
			if e.Callee == callee {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no edge from stark/internal/rdd into record.JoinRecords; cross-package resolution is broken")
	}
}
