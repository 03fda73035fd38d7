// Package vtime provides the virtual clock and discrete-event loop that
// drive the simulated cluster. All latencies in the simulation are expressed
// as time.Duration on this virtual timeline; no wall-clock sleeping is
// involved, so experiments that simulate hours of cluster time finish in
// milliseconds of real time.
//
// An event has one form: a handler and the argument it is called with. A
// caller that binds its handler once and passes a pointer as the argument
// schedules without allocating; At and After keep the closure form by
// passing the closure itself as the argument.
package vtime

import "time"

// event is one scheduled call of fn(arg). Events are held by value in the
// loop's heap, so scheduling one allocates nothing once the heap has grown
// to the loop's steady-state depth.
type event struct {
	at  time.Duration
	seq uint64
	fn  func(any)
	arg any
}

// before orders events by deadline, ties by insertion order, so the
// simulation is deterministic.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// Loop is a deterministic discrete-event loop over virtual time: a binary
// min-heap of events by value, ordered by (deadline, insertion sequence).
// The zero value is ready to use, starting at virtual time zero.
type Loop struct {
	now time.Duration
	pq  []event
	seq uint64
	// postStep, when set, runs after every executed event, still at the
	// event's virtual time and before the next event, even one due at the
	// same instant. The engine uses it as the event boundary where deferred
	// data-plane work joins back into the control plane.
	postStep func()
}

// SetPostStep installs (or, with nil, removes) a callback invoked after
// every event executed by Step, at the event's virtual time. Work the
// callback schedules runs in later events as usual.
func (l *Loop) SetPostStep(fn func()) { l.postStep = fn }

// NewLoop returns an event loop starting at virtual time zero.
func NewLoop() *Loop { return &Loop{} }

// Now reports the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// AtArg schedules fn(arg) at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event runs next, after already-due events
// scheduled earlier). A func or pointer argument is stored in the interface
// without being copied, so a bound fn with a pointer argument allocates
// nothing.
func (l *Loop) AtArg(t time.Duration, fn func(any), arg any) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.pq = append(l.pq, event{at: t, seq: l.seq, fn: fn, arg: arg})
	l.up(len(l.pq) - 1)
}

// AfterArg schedules fn(arg) d after the current virtual time. Negative d
// clamps to zero.
func (l *Loop) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	l.AtArg(l.now+d, fn, arg)
}

// callClosure is the handler of At and After events: the argument is the
// closure itself.
func callClosure(fn any) { fn.(func())() }

// At schedules fn to run at absolute virtual time t, clamped like AtArg.
func (l *Loop) At(t time.Duration, fn func()) { l.AtArg(t, callClosure, fn) }

// After schedules fn to run d after the current virtual time, clamped like
// AfterArg.
func (l *Loop) After(d time.Duration, fn func()) { l.AfterArg(d, callClosure, fn) }

// Step runs the earliest pending event, advancing the clock to its deadline.
// It reports whether an event was run.
//
//starklint:hotpath
func (l *Loop) Step() bool {
	if len(l.pq) == 0 {
		return false
	}
	ev := l.pq[0]
	last := len(l.pq) - 1
	l.pq[0] = l.pq[last]
	l.pq[last] = event{} // drop the handler and argument references
	l.pq = l.pq[:last]
	if last > 0 {
		l.down(0)
	}
	l.now = ev.at
	ev.fn(ev.arg)
	if l.postStep != nil {
		l.postStep()
	}
	return true
}

// up restores the heap order from leaf i towards the root.
func (l *Loop) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !l.pq[i].before(&l.pq[p]) {
			return
		}
		l.pq[i], l.pq[p] = l.pq[p], l.pq[i]
		i = p
	}
}

// down restores the heap order from node i towards the leaves.
func (l *Loop) down(i int) {
	n := len(l.pq)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && l.pq[r].before(&l.pq[c]) {
			c = r
		}
		if !l.pq[c].before(&l.pq[i]) {
			return
		}
		l.pq[i], l.pq[c] = l.pq[c], l.pq[i]
		i = c
	}
}

// Run processes events until none remain. Events may schedule further
// events; Run keeps going until the queue drains.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil processes events with deadlines <= t and then advances the clock
// to exactly t. Events scheduled beyond t remain pending.
func (l *Loop) RunUntil(t time.Duration) {
	for len(l.pq) > 0 && l.pq[0].at <= t {
		l.Step()
	}
	if l.now < t {
		l.now = t
	}
}
