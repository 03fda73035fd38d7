// Package hotalloc exercises the hot-path allocation lint. Only functions
// annotated //starklint:hotpath — and everything they reach through the
// call graph — are audited; identical constructs in unannotated code stay
// silent.
package hotalloc

type row struct {
	key int64
	val string
}

func sink(v any) {}

func sinkConcrete(v int64) {}

// queue keeps the callbacks handed to it, as an event loop does.
type queue struct{ fns []func() }

func (q *queue) push(fn func()) { q.fns = append(q.fns, fn) }

// sender delivers fn(arg) later, as the simulated network does.
type sender struct {
	fns  []func(any)
	args []any
}

func (s *sender) send(fn func(any), arg any) {
	s.fns = append(s.fns, fn)
	s.args = append(s.args, arg)
}

func deliverRow(arg any) { sinkConcrete(arg.(*row).key) }
