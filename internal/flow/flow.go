// Package flow implements Dinic's maximum-flow algorithm on directed graphs
// with integer capacities, plus min-cut extraction. The CheckpointOptimizer
// (paper Sec. III-D) reduces "cheapest RDD set that breaks every violating
// lineage path" to a minimum s-t cut on a node-split graph: each RDD becomes
// an in-node and an out-node joined by an edge whose capacity is the RDD's
// checkpoint cost, while dependency edges get infinite capacity.
package flow

import "math"

// Inf is the capacity used for uncuttable edges. It is far below overflow
// range for sums over any realistic graph.
const Inf int64 = math.MaxInt64 / 8

// Edge is a directed edge with residual bookkeeping.
type Edge struct {
	From, To int
	Cap      int64 // remaining (residual) capacity
	flow     int64
	isRev    bool
}

// Flow reports the units of flow pushed over this edge.
func (e *Edge) Flow() int64 { return e.flow }

// Residual reports the remaining capacity of this edge.
func (e *Edge) Residual() int64 { return e.Cap }

// Graph is a flow network under construction or after MaxFlow.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // node -> indices into edges
	level []int
	iter  []int
}

// NewGraph returns an empty network with n nodes, numbered 0..n-1.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// AddEdge adds a directed edge from u to v with the given capacity and
// returns its edge id, usable with EdgeByID after MaxFlow. Capacities must
// be non-negative; AddEdge panics otherwise since a negative capacity is a
// programming error in graph construction.
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("flow: edge endpoint out of range")
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v, Cap: capacity})
	g.adj[u] = append(g.adj[u], id)
	g.edges = append(g.edges, Edge{From: v, To: u, Cap: 0, isRev: true})
	g.adj[v] = append(g.adj[v], id+1)
	return id
}

// EdgeByID returns the edge added by the AddEdge call that returned id.
func (g *Graph) EdgeByID(id int) *Edge { return &g.edges[id] }

func (g *Graph) bfs(s int) {
	g.level = make([]int, g.n)
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int, 0, g.n)
	g.level[s] = 0
	queue = append(queue, s)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[u] {
			e := &g.edges[id]
			if e.Cap > 0 && g.level[e.To] < 0 {
				g.level[e.To] = g.level[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
}

func (g *Graph) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; g.iter[u] < len(g.adj[u]); g.iter[u]++ {
		id := g.adj[u][g.iter[u]]
		e := &g.edges[id]
		if e.Cap <= 0 || g.level[e.To] != g.level[u]+1 {
			continue
		}
		pushed := f
		if e.Cap < pushed {
			pushed = e.Cap
		}
		d := g.dfs(e.To, t, pushed)
		if d > 0 {
			e.Cap -= d
			e.flow += d
			rev := &g.edges[id^1]
			rev.Cap += d
			rev.flow -= d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s-t flow, mutating residual capacities.
// Calling it twice continues from the previous residual state, so callers
// should build a fresh Graph per computation.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	for {
		g.bfs(s)
		if g.level[t] < 0 {
			return total
		}
		g.iter = make([]int, g.n)
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
}
