// Package arena provides bump-pointer scratch allocators for the data
// plane's per-task working memory. The paper-adjacent motivation is
// Lifetime-Based Memory Management (PAPERS.md): the scratch a task needs —
// partition-index tables, group counts, hash tables — lives exactly as long
// as one data-plane batch, so instead of allocating it per operator call and
// leaning on the GC, each worker carves it out of a reusable arena that
// resets at the batch boundary. Steady-state, the shuffle/group/join paths
// allocate only their escaping outputs.
//
// A Pool is NOT safe for concurrent use; the engine keeps one set of pools
// per plane context, and plane contexts never cross worker goroutines.
package arena

// Pool is a typed bump allocator. Take carves zeroed slices out of one
// backing buffer; Reset reclaims everything at once. Slices taken before a
// Reset must not be used after it — they alias the recycled buffer.
type Pool[T any] struct {
	buf []T
	off int
	// held counts live bytes across grows within one epoch, to size the
	// next epoch's buffer so steady state needs a single buffer.
	held int
}

// Take returns a zeroed slice of length n carved from the pool. When the
// current buffer is exhausted the pool grows; previously taken slices stay
// valid (they keep the old buffer alive) but belong to the same epoch and
// die at Reset.
func (p *Pool[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if p.off+n > len(p.buf) {
		p.held += p.off
		size := p.held + n
		if size < 2*len(p.buf) {
			size = 2 * len(p.buf)
		}
		if size < 64 {
			size = 64
		}
		p.buf = make([]T, size)
		p.off = 0
	}
	s := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	clear(s)
	return s
}

// Reset reclaims every slice taken since the last Reset. The backing buffer
// is retained for reuse, so a steady-state workload stops allocating.
func (p *Pool[T]) Reset() {
	p.off = 0
	p.held = 0
}
