// Package planetaint models the two-clock engine shape for the
// interprocedural plane-isolation fixture: an Engine holding cluster,
// store, and stats state, and a planeCtx overlay whose methods run on
// worker goroutines. Under the fixture's
// permissive policy every named type here counts as control-plane state
// except the plane-local overlay types (planeCtx, task).
package planetaint

type Stats struct{ CacheHits, CacheMisses int64 }

type Cluster struct{ recency []int }

// CachePut mutates LRU recency — a control-plane effect inferred from its
// store, with no manual mutator registration.
func (c *Cluster) CachePut(id int) { c.recency = append(c.recency, id) }

// CachePeek is a pure read.
func (c *Cluster) CachePeek(id int) bool { return len(c.recency) > 0 && c.recency[0] == id }

type index struct{ byReduce map[int][]int }

func (ix *index) rebuild(n int) {
	ix.byReduce = make(map[int][]int, n)
}

type Store struct {
	ix    index
	dirty bool
	n     int
}

// ReadReduce looks pure but lazily rebuilds the index: a transitive
// control-plane mutation two hops deep.
func (s *Store) ReadReduce(id int) []int {
	if s.dirty {
		s.ix.rebuild(s.n)
	}
	return s.ix.byReduce[id]
}

// Blocks is a pure read.
func (s *Store) Blocks(id int) int { return s.n }

type Engine struct {
	cl    *Cluster
	store *Store
	stats Stats
}

// noteHit is a control-plane helper with no plane marker in its signature;
// data-plane callers are caught through the call graph.
func noteHit(e *Engine) { e.stats.CacheHits++ }

type task struct{ count int }

type planeCtx struct {
	e     *Engine
	hits  int64
	drops []int
}
