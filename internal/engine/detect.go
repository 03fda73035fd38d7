package engine

import (
	"fmt"
	"time"

	netsim "stark/internal/net"
)

// This file is the driver's failure-detection plane. When heartbeats are
// enabled the driver no longer learns of failures omnisciently: executors
// send heartbeats over the simulated network, and the driver's view of each
// executor moves alive → suspected → dead on missed-heartbeat timeouts.
// Suspicion only excludes the executor from scheduling (a late heartbeat
// clears it); a dead declaration bumps the executor's epoch, resubmits its
// in-flight tasks, and fails its locality assignments over. Results that
// later arrive from a stale epoch are rejected (see onTaskResult), and a
// heartbeat from a declared-dead executor rejoins it under the new epoch.
//
// Liveness: the heartbeat and detector timers run only while jobs are
// active and at least one executor process is alive, so the discrete-event
// loop still drains when the simulation is idle or irrecoverably wedged.

// viewState is the driver's opinion of one executor.
type viewState int

const (
	viewAlive viewState = iota
	viewSuspected
	viewDead
)

func (v viewState) String() string {
	switch v {
	case viewSuspected:
		return "suspected"
	case viewDead:
		return "dead"
	}
	return "alive"
}

// ensureHeartbeats (re)arms the per-executor heartbeat timers and the
// driver's detector when a job becomes active. Heartbeat ages reset for
// every executor the driver does not consider dead, so idle gaps between
// jobs never count as missed heartbeats.
func (e *Engine) ensureHeartbeats() {
	if e.hb.Interval <= 0 || e.activeJobs <= 0 || e.driverDown {
		return
	}
	if !e.detectorArmed {
		now := e.loop.Now()
		for id := range e.lastBeat {
			if e.execView[id] != viewDead {
				e.lastBeat[id] = now
			}
		}
		e.detectorArmed = true
		e.loop.AfterArg(e.hb.Interval, onDetect, e)
	}
	for id := 0; id < e.cl.NumExecutors(); id++ {
		e.armBeat(id)
	}
}

// armBeat starts an executor's heartbeat chain if it is not already
// beating. The first beat goes out immediately.
func (e *Engine) armBeat(id int) {
	if e.hb.Interval <= 0 || e.beatArmed[id] || e.activeJobs <= 0 || e.cl.Executor(id).Dead() {
		return
	}
	e.beatArmed[id] = true
	e.beat(id)
}

// beat is one executor-side heartbeat tick: send (unreliable, carrying the
// process incarnation) and reschedule. The chain stops when the process is
// dead or no job is active; armBeat restarts it.
func (e *Engine) beat(id int) {
	if e.activeJobs <= 0 || e.cl.Executor(id).Dead() {
		e.beatArmed[id] = false
		return
	}
	b := e.beats[id]
	if inc := e.cl.Executor(id).Incarnation(); b == nil || b.inc != inc {
		b = &beatRec{e: e, id: id, inc: inc}
		e.beats[id] = b
	}
	e.net.Send(id, netsim.Driver, netsim.Heartbeat, false, onBeatMsg, b)
	e.loop.AfterArg(e.hb.Interval, onBeat, b)
}

// beatRec is what an executor's heartbeat timer and its heartbeats carry:
// the executor and the process incarnation the record was made under. A
// new record replaces an executor's when its incarnation changes, so a
// heartbeat already in flight still reports the incarnation it was sent
// under.
type beatRec struct {
	e       *Engine
	id, inc int
}

// The heartbeat and detector handlers are package functions that find
// their engine in the event's argument, so a steady-state tick builds no
// closure: onBeat runs an executor's next tick, onBeatMsg delivers a
// heartbeat to the driver, and onDetect runs the detector's scan.
func onBeat(b any)    { r := b.(*beatRec); r.e.beat(r.id) }
func onBeatMsg(b any) { r := b.(*beatRec); r.e.onHeartbeat(r.id, r.inc) }
func onDetect(e any)  { e.(*Engine).detect() }

// detect is the driver's periodic missed-heartbeat scan.
func (e *Engine) detect() {
	if e.activeJobs <= 0 || e.driverDown {
		// A crashed driver cannot scan; RestartDriver resets heartbeat ages
		// and re-arms the detector.
		e.detectorArmed = false
		return
	}
	now := e.loop.Now()
	for id := 0; id < e.cl.NumExecutors(); id++ {
		if e.execView[id] == viewDead {
			continue
		}
		elapsed := now - e.lastBeat[id]
		if elapsed >= e.hb.DeadAfter {
			e.declareDead(id)
		} else if elapsed >= e.hb.SuspectAfter && e.execView[id] == viewAlive {
			e.suspect(id)
		}
	}
	// Keep scanning only while some executor process is alive; with every
	// process down (and no restart event pending) rescheduling forever would
	// keep RunJob from detecting the wedge. Declarations above still ran.
	if !e.anyProcessAlive() {
		e.detectorArmed = false
		return
	}
	e.loop.AfterArg(e.hb.Interval, onDetect, e)
}

// anyProcessAlive reports whether some executor process is up, without
// building the list AliveExecutors returns.
func (e *Engine) anyProcessAlive() bool {
	for id := 0; id < e.cl.NumExecutors(); id++ {
		if !e.cl.Executor(id).Dead() {
			return true
		}
	}
	return false
}

// suspect excludes an executor from scheduling until a heartbeat arrives.
func (e *Engine) suspect(id int) {
	e.execView[id] = viewSuspected
	e.recUpdate(func(r *recMetrics) { r.Suspicions++ })
	if e.tracer != nil {
		e.trace("executor-suspect", -1, -1, -1, id,
			fmt.Sprintf("silent=%v", e.loop.Now()-e.lastBeat[id]))
	}
}

// declareDead gives up on an executor: its epoch bumps (fencing any result
// still in flight from the old incarnation), its in-flight tasks are
// resubmitted, and locality fails over. The recovery epoch opens at the
// executor's last heard heartbeat, so the measured recovery delay includes
// the detection latency.
func (e *Engine) declareDead(id int) {
	det := e.loop.Now() - e.lastBeat[id]
	e.execView[id] = viewDead
	e.execEpoch[id]++
	e.recUpdate(func(r *recMetrics) {
		r.DeadDeclarations++
		r.DetectionDelays = append(r.DetectionDelays, det)
	})
	if e.tracer != nil {
		e.trace("executor-dead", -1, -1, -1, id,
			fmt.Sprintf("detect=%v epoch=%d", det, e.execEpoch[id]))
	}
	e.loc.DropExecutor(id, e.viewAliveExecutors(id))
	e.resubmitLostTasks(id, e.lastBeat[id])
	e.schedule()
}

// onHeartbeat is the driver-side heartbeat handler: refresh the executor's
// liveness age, clear suspicion, rejoin declared-dead executors, and catch
// restarts that happened under the radar via the incarnation number.
func (e *Engine) onHeartbeat(id, incarnation int) {
	if e.driverDown {
		return // nobody home; the restart handshake resyncs incarnations
	}
	if incarnation != e.incSeen[id] {
		e.incSeen[id] = incarnation
		e.observeRestart(id)
	}
	switch e.execView[id] {
	case viewDead:
		e.execView[id] = viewAlive
		e.recUpdate(func(r *recMetrics) { r.Rejoins++ })
		if e.tracer != nil {
			e.trace("executor-rejoin", -1, -1, -1, id, fmt.Sprintf("epoch=%d", e.execEpoch[id]))
		}
		e.lastBeat[id] = e.loop.Now()
		e.schedule()
	case viewSuspected:
		e.execView[id] = viewAlive
		e.recUpdate(func(r *recMetrics) { r.SuspicionsCleared++ })
		e.trace("executor-unsuspect", -1, -1, -1, id, "")
		e.lastBeat[id] = e.loop.Now()
		e.schedule()
	default:
		e.lastBeat[id] = e.loop.Now()
	}
}

// observeRestart handles the driver's first heartbeat from a new process
// incarnation: whatever the old process was running is gone, so the epoch
// bumps, tracked tasks resubmit, the cold cache's locality assignments fail
// over, and the fresh process gets blacklist probation — the same treatment
// the omniscient RestartExecutor applies, reconstructed purely from the
// heartbeat stream. If the old incarnation was already declared dead this
// reduces to the epoch bump (its tasks were resubmitted at declaration).
func (e *Engine) observeRestart(id int) {
	e.execEpoch[id]++
	if e.tracer != nil {
		e.trace("executor-new-incarnation", -1, -1, -1, id, fmt.Sprintf("epoch=%d", e.execEpoch[id]))
	}
	e.loc.DropExecutor(id, e.viewAliveExecutors(id))
	e.recMu.Lock()
	delete(e.blacklistUntil, id)
	e.recMu.Unlock()
	e.resubmitLostTasks(id, e.lastBeat[id])
	e.drainDeferredCheckpoints()
}

// viewAliveExecutors lists executors the driver currently believes usable,
// excluding the given id — the failover pool for locality reassignment.
func (e *Engine) viewAliveExecutors(except int) []int {
	var out []int
	for id := 0; id < e.cl.NumExecutors(); id++ {
		if id == except || e.execView[id] != viewAlive || e.cl.Executor(id).Dead() {
			continue
		}
		out = append(out, id)
	}
	return out
}

// --- fault.System network surface ---------------------------------------

// PartitionExecutor cuts an executor off from the driver bidirectionally:
// heartbeats, launches, and results are lost until HealExecutor.
func (e *Engine) PartitionExecutor(id int) {
	e.trace("executor-partition", -1, -1, -1, id, "")
	e.net.Partition(id)
}

// HealExecutor reconnects a partitioned executor. The executor rejoins when
// its next heartbeat crosses; reliable in-flight messages retransmit
// through.
func (e *Engine) HealExecutor(id int) {
	e.trace("executor-heal", -1, -1, -1, id, "")
	e.net.Heal(id)
}

// SetNetDelay adds extra latency to every control message (0 restores
// normal latency) — the delayed-heartbeat fault.
func (e *Engine) SetNetDelay(extra time.Duration) {
	if e.tracer != nil {
		e.trace("net-delay", -1, -1, -1, -1, fmt.Sprintf("extra=%v", extra))
	}
	e.net.SetExtraDelay(extra)
}
