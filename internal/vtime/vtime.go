// Package vtime provides the virtual clock and discrete-event loop that
// drive the simulated cluster. All latencies in the simulation are expressed
// as time.Duration on this virtual timeline; no wall-clock sleeping is
// involved, so experiments that simulate hours of cluster time finish in
// milliseconds of real time.
package vtime

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback on the virtual timeline.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	// Ties break by insertion order so the simulation is deterministic.
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Loop is a deterministic discrete-event loop over virtual time.
// The zero value is ready to use, starting at virtual time zero.
type Loop struct {
	now time.Duration
	pq  eventHeap
	seq uint64
	// postStep, when set, runs after every executed event, still at the
	// event's virtual time. The engine uses it as the event boundary where
	// deferred data-plane work joins back into the control plane.
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

// NextAt peeks at the earliest pending event's deadline without running it;
// ok is false when the queue is empty. The engine's event-fusion path uses
// it to keep deferred data-plane batches accumulating while further events
// remain at the current instant.
func (l *Loop) NextAt() (time.Duration, bool) {
	if len(l.pq) == 0 {
		return 0, false
	}
	return l.pq[0].at, true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event runs next, after already-due events
// scheduled earlier).
func (l *Loop) At(t time.Duration, fn func()) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	heap.Push(&l.pq, &event{at: t, seq: l.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative d
// clamps to zero.
func (l *Loop) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	l.At(l.now+d, fn)
}

// Step runs the earliest pending event, advancing the clock to its deadline.
// It reports whether an event was run.
func (l *Loop) Step() bool {
	if len(l.pq) == 0 {
		return false
	}
	ev := heap.Pop(&l.pq).(*event)
	l.now = ev.at
	ev.fn()
	if l.postStep != nil {
		l.postStep()
	}
	return true
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
