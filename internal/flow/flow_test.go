package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleFlow(t *testing.T) {
	// s -> a -> t with bottleneck 3.
	g := NewGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	if f := g.MaxFlow(0, 2); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example, max flow 23.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if f := g.MaxFlow(0, 5); f != 23 {
		t.Fatalf("flow = %d, want 23", f)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 3, 10)
	if f := g.MaxFlow(0, 3); f != 0 {
		t.Fatalf("flow = %d, want 0", f)
	}
}

func TestSelfSourceSink(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1)
	if f := g.MaxFlow(0, 0); f != 0 {
		t.Fatal("s==t must give zero flow")
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	g := NewGraph(6)
	caps := []struct {
		u, v int
		c    int64
	}{
		{0, 1, 16}, {0, 2, 13}, {1, 2, 10}, {2, 1, 4}, {1, 3, 12},
		{3, 2, 9}, {2, 4, 14}, {4, 3, 7}, {3, 5, 20}, {4, 5, 4},
	}
	orig := make(map[int]int64)
	for _, e := range caps {
		id := g.AddEdge(e.u, e.v, e.c)
		orig[id] = e.c
	}
	f := g.MaxFlow(0, 5)
	var cutSum int64
	for _, id := range g.MinCutEdges(0) {
		cutSum += orig[id]
	}
	if cutSum != f {
		t.Fatalf("cut sum %d != flow %d", cutSum, f)
	}
}

func TestNodeSplitCutSelectsCheapNode(t *testing.T) {
	// Two parallel RDD chains a->x->t and b->y->t. Node capacities: a=10,
	// b=10, x=1, y=2 modeled by node splitting; the cut must pick x and y.
	// Layout: in(i)=2i, out(i)=2i+1 for i in 0..3 (a,b,x,y); s=8, t=9.
	g := NewGraph(10)
	in := func(i int) int { return 2 * i }
	out := func(i int) int { return 2*i + 1 }
	nodeCaps := []int64{10, 10, 1, 2}
	var nodeEdge [4]int
	for i, c := range nodeCaps {
		nodeEdge[i] = g.AddEdge(in(i), out(i), c)
	}
	g.AddEdge(8, in(0), Inf)
	g.AddEdge(8, in(1), Inf)
	g.AddEdge(out(0), in(2), Inf) // a -> x
	g.AddEdge(out(1), in(3), Inf) // b -> y
	g.AddEdge(out(2), 9, Inf)
	g.AddEdge(out(3), 9, Inf)
	if f := g.MaxFlow(8, 9); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
	cut := g.MinCutEdges(8)
	want := map[int]bool{nodeEdge[2]: true, nodeEdge[3]: true}
	if len(cut) != 2 || !want[cut[0]] || !want[cut[1]] {
		t.Fatalf("cut = %v, want node edges of x and y", cut)
	}
}

func TestFlowConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := NewGraph(n)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddEdge(u, v, int64(rng.Intn(20)))
		}
		f := g.MaxFlow(0, n-1)
		// Conservation: net flow out of every internal node is zero.
		net := make([]int64, n)
		g.ForwardEdges(func(_ int, e *Edge) {
			net[e.From] += e.Flow()
			net[e.To] -= e.Flow()
		})
		if net[0] != f || net[n-1] != -f {
			t.Fatalf("trial %d: source/sink net %d/%d, flow %d", trial, net[0], net[n-1], f)
		}
		for i := 1; i < n-1; i++ {
			if net[i] != 0 {
				t.Fatalf("trial %d: node %d net flow %d", trial, i, net[i])
			}
		}
	}
}

func TestCutSeparatesQuick(t *testing.T) {
	// Property: after MaxFlow, the sink is never on the source side.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := NewGraph(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+int64(rng.Intn(9)))
			}
		}
		g.MaxFlow(0, n-1)
		return !g.SourceSide(0)[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// ForwardEdges iterates over all forward (non-reverse) edges, calling fn
// with each edge id and edge.
func (g *Graph) ForwardEdges(fn func(id int, e *Edge)) {
	for i := 0; i < len(g.edges); i += 2 {
		fn(i, &g.edges[i])
	}
}

// SourceSide returns, after MaxFlow, the set of nodes reachable from s in
// the residual graph. The minimum cut is exactly the set of forward edges
// from SourceSide to its complement.
func (g *Graph) SourceSide(s int) []bool {
	seen := make([]bool, g.n)
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.adj[u] {
			e := &g.edges[id]
			if e.Cap > 0 && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// MinCutEdges returns, after MaxFlow, the ids of forward edges crossing the
// minimum cut (from the source side to the sink side). The sum of their
// original capacities equals the max-flow value.
func (g *Graph) MinCutEdges(s int) []int {
	side := g.SourceSide(s)
	var cut []int
	g.ForwardEdges(func(id int, e *Edge) {
		if side[e.From] && !side[e.To] {
			cut = append(cut, id)
		}
	})
	return cut
}
