package planetaint

// runPlane is a data-plane root by name: unguarded stores through the
// engine and calls to inferred mutators must flag.
func runPlane(px *planeCtx, t *task) {
	t.count++
	px.hits++
	px.e.stats.CacheMisses++ // want planetaint
	px.e.cl.CachePut(1)      // want planetaint
}

// cacheHit hides the mutation behind one call hop into a helper whose
// signature carries no plane marker.
func (px *planeCtx) cacheHit(id int) {
	noteHit(px.e) // want planetaint
}

// reduceInput reaches the mutation two hops away (ReadReduce -> rebuild):
// the retired one-hop planesafety analyzer missed exactly this shape.
func (px *planeCtx) reduceInput(id int) []int {
	return px.e.store.ReadReduce(id) // want planetaint
}

// putUnbuffered models a side-effect helper that applies its effect
// instead of buffering it: the raw mutator call must flag.
func (px *planeCtx) putUnbuffered(id int) {
	px.e.cl.CachePut(id) // want planetaint
}
