package planetaint

// cachePut buffers the effect in the overlay — the sanctioned pattern;
// nothing flags.
func (px *planeCtx) cachePut(id int) {
	px.drops = append(px.drops, id)
}

// peek performs pure reads through control-plane state: reads never flag.
func (px *planeCtx) peek(id int) bool {
	return px.e.cl.CachePeek(id) && px.e.store.Blocks(id) > 0
}

// accumulate mutates only plane-local state (the task being executed and
// the overlay itself).
func (px *planeCtx) accumulate(t *task, vals []int) int {
	sum := 0
	for _, v := range vals {
		sum += v
	}
	t.count = sum
	px.hits++
	return sum
}

// drainBatch runs on the event loop — not a planeCtx method, no planeCtx
// parameter — so control-plane stores are its job.
func (e *Engine) drainBatch(id int) {
	e.stats.CacheMisses++
	e.cl.CachePut(id)
	noteHit(e)
}
