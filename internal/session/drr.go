package session

import (
	"sort"

	"stark/internal/engine"
)

// Deficit round-robin dispatch: tenants form a ring in registration order;
// each visit to a tenant with queued work credits its deficit by
// quota*quantum, and the head entry runs once the deficit covers its cost
// (result-stage task count). Over any busy interval each tenant's served
// cost converges to its quota share, independent of job sizes — the
// fair-scheduling half of the tenant-isolation invariant. All state is
// integers mutated in ring order, so the dispatch sequence is a pure
// function of the submission sequence.

// dispatch fills free engine slots from the queues. Reentrant calls (engine
// completion callbacks fire inside SubmitJob) fold into the outer loop.
func (s *Server) dispatch() {
	if s.closed || s.dispatching {
		return
	}
	s.dispatching = true
	defer func() { s.dispatching = false }()
	for s.active < s.cfg.MaxActive && s.queued > 0 {
		en := s.pickDRR()
		if en == nil {
			return
		}
		s.run(en)
	}
}

// pickDRR pops the next entry to run. Every full ring pass credits each
// backlogged tenant at least quantum cost units, so the visit bound below
// covers the largest head cost; nil only when every queue is empty.
func (s *Server) pickDRR() *entry {
	n := len(s.tenants)
	if n == 0 || s.queued == 0 {
		return nil
	}
	maxHead := 1
	for _, t := range s.tenants {
		if len(t.queue) > 0 && t.queue[0].cost > maxHead {
			maxHead = t.queue[0].cost
		}
	}
	limit := n * (maxHead/quantum + 2)
	for visit := 0; visit < limit; visit++ {
		t := s.tenants[s.rr%n]
		if len(t.queue) == 0 {
			// An idle tenant accrues no credit — deficits measure backlog
			// service, not wall-clock presence.
			t.deficit = 0
			s.advance()
			continue
		}
		// One quantum per visit: arriving at a backlogged tenant credits it
		// quota*quantum exactly once; it then serves heads while the deficit
		// lasts and yields the ring when the next head no longer fits.
		if !s.credited {
			t.deficit += t.quota * quantum
			s.credited = true
		}
		head := t.queue[0]
		if t.deficit >= head.cost {
			t.deficit -= head.cost
			t.queue = t.queue[1:]
			return head
		}
		s.advance()
	}
	return nil
}

// advance moves the ring cursor to the next tenant, opening a fresh visit.
func (s *Server) advance() {
	s.rr++
	s.credited = false
}

// run hands one entry to the engine.
func (s *Server) run(en *entry) {
	s.queued--
	en.state = stateRunning
	en.dispatchedAt = s.eng.Now()
	qd := en.dispatchedAt - en.queuedAt
	dup := s.runningDuplicate(en.key)
	s.bump(func(st *Stats) {
		st.Dispatched++
		st.QueueDelays = append(st.QueueDelays, qd)
		if dup {
			st.DuplicateComputations++
		}
	})
	s.active++
	id := s.eng.SubmitJob(en.final, en.action, func(r engine.JobResult) {
		s.onEngineDone(en, r)
	})
	en.engID = id
	// A closed or failing engine completes the callback synchronously, in
	// which case the entry is already terminal and must not be tracked.
	if en.state != stateDone {
		s.running[id] = en
	}
}

// runningDuplicate reports whether another running entry computes the same
// key — by construction impossible (the dedup index admits one entry per
// key); the overload oracle pins the resulting counter to zero.
func (s *Server) runningDuplicate(key dedupKey) bool {
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if s.running[id].key == key {
			return true
		}
	}
	return false
}
