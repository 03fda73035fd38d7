package hotalloc

import "fmt"

// groupHot is a hot-path kernel root: every allocation-inducing construct
// in it must flag.
//
//starklint:hotpath
func groupHot(rows []row) int64 {
	var total int64
	for _, r := range rows {
		sink(r.key) // want hotalloc
		total += r.key
	}
	seen := make(map[int64]bool, len(rows)) // want hotalloc
	for _, r := range rows {
		seen[r.key] = true
	}
	var keys []int64
	for _, r := range rows {
		keys = append(keys, r.key) // want hotalloc
	}
	_ = len(keys)
	_ = len(seen)
	return total
}

// labelHot builds strings the expensive way.
//
//starklint:hotpath
func labelHot(rows []row) string {
	name := ""
	for _, r := range rows {
		name += r.val // want hotalloc
	}
	_ = name
	return fmt.Sprintf("batch-%d", len(rows)) // want hotalloc
}

// helper is NOT annotated, but reachHot pulls it into the audited closure:
// its per-call slice literal flags where it allocates.
func helper(n int) []int {
	pair := []int{n, n + 1} // want hotalloc
	return pair
}

//starklint:hotpath
func reachHot(n int) []int { return helper(n) }

// scheduleHot hands the queue a closure over its arguments: the closure
// and the captured row escape on every call.
//
//starklint:hotpath
func scheduleHot(q *queue, r row) {
	q.push(func() { sinkConcrete(r.key) }) // want hotalloc
}

// sendBoxed boxes a value that is not pointer-shaped, an int and a struct,
// and beside a pointer argument hands over a capturing literal.
//
//starklint:hotpath
func sendBoxed(s *sender, r *row, n int) {
	s.send(deliverRow, n)                        // want hotalloc
	s.send(deliverRow, *r)                       // want hotalloc
	s.send(func(any) { sinkConcrete(r.key) }, r) // want hotalloc
}
