package engine

import (
	"fmt"
	"time"

	"stark/internal/cluster"
	"stark/internal/metrics"
	netsim "stark/internal/net"
	"stark/internal/record"
)

// schedule runs one scheduling round: delay scheduling first (launch every
// pending task that has a free data-local slot), then remote launches for
// tasks whose locality wait expired or that have no locality to wait for —
// ordered by Minimum-Contention-First when enabled (paper Algorithm 1).
// Tasks still waiting arm a timer so the round re-runs at wait expiry.
// Every queued task belongs to a live job: failJob discards a failing job's
// queue entries, so no round checks for finished jobs.
func (e *Engine) schedule() {
	if e.driverDown {
		return
	}
	for {
		free := e.freeSlots()
		if free == 0 {
			break
		}
		progress := false

		// Pass 1: NODE_LOCAL launches for locality-capable tasks. Stop as
		// soon as the cluster fills — under overload the pending queue is
		// huge and scanning it with no slots free is pure waste.
		for _, t := range e.prefPending {
			if free == 0 {
				break
			}
			if t.aborted || t.launched() {
				continue
			}
			for _, ex := range e.preferredExecutors(t) {
				if e.cl.Executor(ex).FreeSlots() > 0 {
					e.launch(t, ex, metrics.NodeLocal)
					progress = true
					free--
					break
				}
			}
		}
		e.compactPrefPending()

		// Pass 2: REMOTE launches — locality-capable tasks whose wait
		// expired or that have no live preference, then the plain FIFO.
		// Collect no more eligible tasks than there are free slots.
		now := e.loop.Now()
		var eligible []*task
		for _, t := range e.prefPending {
			if free == 0 || len(eligible) >= free {
				break
			}
			if t.aborted || t.launched() {
				continue
			}
			if now-t.submitted >= e.cfg.Sched.LocalityWait || len(e.preferredExecutors(t)) == 0 {
				eligible = append(eligible, t)
			}
		}
		// MCF offers cost a scoring pass and draw no randomness, so skip
		// them when no task could take a remote slot. The randomized
		// baseline permutes every pass: its draw count is part of the seed.
		var offers []int
		if !e.mcf() || len(eligible) > 0 || e.plainHead < len(e.plainPending) {
			offers = e.remoteOffers()
		}
		if len(offers) > 0 && free > 0 {
			oi := 0
			nextTask := func() *task {
				if len(eligible) > 0 {
					t := eligible[0]
					eligible = eligible[1:]
					return t
				}
				for e.plainHead < len(e.plainPending) {
					t := e.plainPending[e.plainHead]
					e.plainPending[e.plainHead] = nil
					e.plainHead++
					if t == nil || t.launched() || t.promoted || t.aborted {
						continue
					}
					return t
				}
				return nil
			}
			for {
				// Cycle offers, one task per executor per round, like
				// Spark's resourceOffers.
				tried := 0
				for tried < len(offers) && e.cl.Executor(offers[oi]).FreeSlots() == 0 {
					oi = (oi + 1) % len(offers)
					tried++
				}
				if tried == len(offers) {
					break
				}
				t := nextTask()
				if t == nil {
					break
				}
				e.launch(t, offers[oi], metrics.Remote)
				progress = true
				oi = (oi + 1) % len(offers)
			}
		}
		e.compactPrefPending()
		e.compactPlainPending()

		if !progress {
			break
		}
	}

	// Arm locality-wait timers for tasks still waiting on busy local slots.
	// The unarmed counter keeps this O(1) in the common all-armed case.
	if e.unarmed == 0 {
		return
	}
	for _, t := range e.prefPending {
		if t.waitArmed || t.launched() || t.aborted {
			continue
		}
		t.waitArmed = true
		e.unarmed--
		deadline := t.submitted + e.cfg.Sched.LocalityWait
		e.loop.At(deadline+time.Millisecond, func() { e.schedule() })
	}
	if e.unarmed < 0 {
		e.unarmed = 0
	}
}

// freeSlots counts free slots across live executors.
func (e *Engine) freeSlots() int {
	n := 0
	for _, ex := range e.cl.Executors() {
		n += ex.FreeSlots()
	}
	return n
}

// compactPrefPending removes launched and aborted tasks, preserving
// submission order.
func (e *Engine) compactPrefPending() {
	kept := e.prefPending[:0]
	for _, t := range e.prefPending {
		if !t.launched() && !t.aborted {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(e.prefPending); i++ {
		e.prefPending[i] = nil
	}
	e.prefPending = kept
}

// compactPlainPending releases consumed queue prefix memory, amortized.
func (e *Engine) compactPlainPending() {
	if e.plainHead > 4096 && e.plainHead > len(e.plainPending)/2 {
		e.plainPending = append([]*task(nil), e.plainPending[e.plainHead:]...)
		e.plainHead = 0
	}
}

func (t *task) launched() bool { return t.tm.Locality != 0 }

// preferredExecutors returns the live executors a task would be NODE_LOCAL
// on. Namespace tasks use the LocalityManager's unit assignment. Other
// tasks mirror Spark 1.3's DAGScheduler.getPreferredLocsInternal: walk the
// narrow chain breadth-first and return the cached locations of the first
// RDD that has any — for a cogroup that is effectively the first parent
// branch, so the chosen executor is local for ONE branch and recomputes the
// rest, the co-locality gap the paper measures (Sec. II-B). Only a CacheFlag
// RDD can have cached locations (DESIGN §4, "Block directory"), so the
// others are skipped without a directory lookup.
//
// The result lives in the engine's scratch and is valid until the next
// call: both schedule-loop callers consume it before calling again.
func (e *Engine) preferredExecutors(t *task) []int {
	if t.coll != nil {
		e.prefs = e.loc.AppendPreferred(e.prefs[:0], t.coll.name, t.unit.Unit)
		return e.keepSchedulable(e.prefs)
	}
	if len(t.partitions) != 1 {
		return nil
	}
	p := t.partitions[0]
	for _, r := range t.sr.st.NarrowChain() {
		if !r.CacheFlag {
			continue
		}
		e.prefs = e.cl.AppendLocations(e.prefs[:0], cluster.BlockID{RDD: r.ID, Partition: p})
		if locs := e.keepSchedulable(e.prefs); len(locs) > 0 {
			return locs
		}
	}
	return nil
}

// keepSchedulable filters execs in place, keeping executors the scheduler
// may offer slots on: alive and outside any blacklist exclusion window.
func (e *Engine) keepSchedulable(execs []int) []int {
	out := execs[:0]
	for _, id := range execs {
		if e.schedulable(id) {
			out = append(out, id)
		}
	}
	return out
}

// mcf reports whether remote offers are ordered Minimum-Contention-First.
func (e *Engine) mcf() bool { return e.cfg.Features.MCF }

// remoteOffers lists live executors with free slots, ordered for remote
// assignment, in a scratch slice valid until the next call. MCF sorts
// ascending by unique collection partitions cached (Algorithm 1 line 5).
// Otherwise offers are randomly permuted, matching Spark's randomized
// resource offers — the behaviour that scatters partitions of independent
// RDDs across servers and breaks co-locality for the Spark baselines (paper
// Sec. III-B).
func (e *Engine) remoteOffers() []int {
	if e.mcf() {
		return e.offersByContention()
	}
	offers := e.offers[:0]
	for _, ex := range e.cl.Executors() {
		if ex.FreeSlots() > 0 && e.schedulable(ex.ID) {
			offers = append(offers, ex.ID)
		}
	}
	e.rng.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })
	return offers
}

// offersByContention is the MCF offer order: schedulable executors with a
// free slot, ascending by the number of collection units they cache, ties
// by executor id. Each score is an O(1) read of the cluster's unit index
// and the order is an insertion sort over at most NumExecutors entries in
// the engine's scratch (capacity NumExecutors, so the appends never grow
// it): a scheduling pass allocates nothing here.
//
//starklint:hotpath
func (e *Engine) offersByContention() []int {
	offers, units := e.offers[:0], e.offerUnits[:0]
	for _, ex := range e.cl.Executors() {
		if ex.FreeSlots() == 0 || !e.schedulable(ex.ID) {
			continue
		}
		n := e.cl.UnitsCached(ex.ID)
		i := len(offers)
		offers, units = append(offers, ex.ID), append(units, n)
		// Executors arrive in id order, so shifting only past strictly
		// larger scores keeps ties ascending by id.
		for ; i > 0 && units[i-1] > n; i-- {
			offers[i], units[i] = offers[i-1], units[i-1]
		}
		offers[i], units[i] = ex.ID, n
	}
	return offers
}

// launch assigns a task to an executor: the slot is reserved driver-side,
// the task is fenced with the executor's current epoch, and the launch
// command travels over the control network (reliable — it retransmits
// through transient partitions). Under the default zero-latency network the
// command delivers synchronously and the data plane runs in this same
// event, byte-identical to the pre-network engine.
//
//starklint:hotpath
func (e *Engine) launch(t *task, exec int, loc metrics.Locality) {
	ex := e.cl.Executor(exec)
	ex.Acquire()
	t.slotHeld = true
	t.exec = exec
	t.launchInc = ex.Incarnation()
	t.fence = e.execEpoch[exec]
	t.tm.Executor = exec
	t.tm.Locality = loc
	t.tm.Started = e.loop.Now()
	if t.counted && !t.waitArmed {
		// The task launches before its locality-wait timer was armed.
		e.unarmed--
	}
	e.running[t.id] = t
	e.traceTaskLaunch(t, exec, loc)
	e.net.Send(netsim.Driver, exec, netsim.TaskLaunch, true, e.onLaunch, t)
}

// releaseSlot frees a task's reserved slot, but only while the slot
// accounting it was charged against still exists: a kill zeroes the
// executor's busy count wholesale, so a release against a dead — or since
// restarted — process would corrupt the books.
func (e *Engine) releaseSlot(t *task) {
	if !t.slotHeld {
		return
	}
	t.slotHeld = false
	ex := e.cl.Executor(t.exec)
	if !ex.Dead() && ex.Incarnation() == t.launchInc {
		ex.Release()
	}
}

// execTask is the executor-side receipt of a launch command. The guard
// checks run now, at delivery time; the data plane itself is deferred to the
// event boundary (plane.go), where the batch accumulated during this event
// executes — on the worker pool when safe — and joins back in dispatch
// order. A command that arrives after the task was cancelled, or at a
// process that has since died, does nothing. The target is t.exec, which
// only launch writes.
//
//starklint:hotpath
func (e *Engine) execTask(t *task) {
	if t.aborted || t.lost {
		e.releaseSlot(t)
		return
	}
	ex := e.cl.Executor(t.exec)
	if ex.Dead() || ex.Incarnation() != t.launchInc {
		// Delivered to a dead (or reborn) process: nothing runs and no
		// result will come back. The driver re-learns via its failure path.
		t.slotHeld = false
		t.lost = true
		return
	}
	e.batch = append(e.batch, t)
}

// taskDone is the executor-side completion: the slot frees and the result
// reports back over the control network (reliable). A task whose process
// died mid-run reports to nobody; a task the driver cancelled under the
// same epoch is dropped executor-side. A cancelled task whose epoch moved
// on (the driver declared this executor dead) still reports, so the driver
// can exercise — and count — the stale-epoch rejection.
//
//starklint:hotpath
func (e *Engine) taskDone(t *task) {
	if t.lost {
		return
	}
	e.releaseSlot(t)
	if t.aborted && t.fence == e.execEpoch[t.exec] {
		delete(e.running, t.id)
		return
	}
	e.net.Send(t.exec, netsim.Driver, netsim.TaskResult, true, e.onResult, t)
}

// onTaskResult is the driver-side receipt of a task result: epoch fencing
// first, then map-output commit, metrics, replica bookkeeping, and stage
// countdown. Failed attempts divert to the recovery plane.
func (e *Engine) onTaskResult(t *task) {
	if e.driverDown {
		// The result arrived at a crashed driver: nobody is listening. The
		// executor-side commit already happened (slot freed); the restarted
		// driver re-learns outcomes by resubmitting from the journal, and
		// anything this task would have committed is fenced by the new
		// incarnation's epochs.
		return
	}
	delete(e.running, t.id)
	if t.aborted || t.fence != e.execEpoch[t.exec] {
		if t.fence != e.execEpoch[t.exec] {
			e.recUpdate(func(r *recMetrics) { r.StaleEpochRejections++ })
			if e.tracer != nil {
				e.trace("stale-result", t.sr.job.id, t.sr.st.ID, t.id, t.exec,
					fmt.Sprintf("fence=%d epoch=%d", t.fence, e.execEpoch[t.exec]))
			}
		}
		// The fenced attempt's slot freed executor-side at completion; after
		// a driver restart the resubmitted stages may be waiting on exactly
		// that capacity, so re-offer it now.
		e.schedule()
		return
	}
	t.tm.Finished = e.loop.Now()
	if t.failErr != nil {
		e.onTaskFailure(t)
		e.schedule()
		return
	}
	if err := e.commitMapOutputs(t); err != nil {
		t.failErr = err
		e.onTaskFailure(t)
		e.schedule()
		return
	}
	t.sr.job.tasks = append(t.sr.job.tasks, t.tm)
	e.recordTaskStats(t.tm)
	e.traceTaskFinish(t)
	e.noteTaskSuccess(t)

	// Apply action results now that the task is known to have survived.
	t.sr.job.count += t.count
	for i, data := range t.collected {
		p := t.partitions[i]
		if t.collectedFP != nil {
			if got := record.Fingerprint(data); got != t.collectedFP[i] {
				panic(fmt.Sprintf("engine: collected partition %d of task %d mutated between staging and accept (copy-on-write violation)", p, t.id))
			}
		}
		t.sr.job.parts[p] = data
	}

	// Contention-aware replication (paper Sec. III-C3): a remote launch
	// materialized the unit's chain in this executor's cache; the policy
	// decides whether that copy is worth keeping as a replica, and whether
	// a cooled-down unit should retire one.
	if c := t.coll; c != nil {
		now := e.loop.Now()
		switch t.tm.Locality {
		case metrics.Remote:
			if e.repl.OnRemoteLaunch(t.unit, now) {
				e.loc.AddReplica(c.name, t.unit.Unit, t.exec)
				if e.tracer != nil {
					e.trace("replica-add", t.sr.job.id, -1, -1, t.exec, fmt.Sprintf("unit=%s/%d", c.name, t.unit.Unit))
				}
			}
		case metrics.NodeLocal:
			e.repl.OnLocalLaunch(t.unit, now)
		}
		if e.repl.ShouldDeReplicate(t.unit, now) {
			e.deReplicate(c, t.unit)
		}
	}

	t.sr.remaining--
	if t.sr.remaining == 0 {
		e.onStageComplete(t.sr)
	} else {
		e.maybeSpeculate(t.sr)
	}
	e.schedule()
}

// deReplicate retires the unit's most recently added replica: drops its
// cached blocks — every one the cluster's unit index counts under the unit
// there — and removes it from the preferred-executor list. When locality
// already lost the replica (its executor died), only the policy's count
// catches up.
func (e *Engine) deReplicate(c *collection, u cluster.UnitID) {
	execs := e.loc.Preferred(c.name, u.Unit)
	if len(execs) < 2 {
		e.repl.Dropped(u)
		return
	}
	victim := execs[len(execs)-1]
	e.cl.DropUnit(victim, u)
	e.loc.RemoveReplica(c.name, u.Unit, victim)
	e.repl.Dropped(u)
	if e.tracer != nil {
		e.trace("replica-drop", -1, -1, -1, victim, fmt.Sprintf("unit=%s/%d", c.name, u.Unit))
	}
}

// KillExecutor fails an executor process at the current virtual time:
// cached blocks vanish and its running tasks will report to nobody. With
// heartbeat detection disabled the driver also reacts omnisciently, right
// now: the epoch bumps, running tasks are resubmitted, and locality
// assignments fail over. With detection enabled the driver reacts only
// when the heartbeat timeouts expire (see declareDead), so detection
// latency becomes part of the measured recovery delay.
func (e *Engine) KillExecutor(id int) {
	e.trace("executor-kill", -1, -1, -1, id, "")
	e.cl.Kill(id)
	for _, tid := range sortedIDs(e.running) {
		t := e.running[tid]
		if t.exec != id || t.lost {
			continue
		}
		// The process died under the task: its slot accounting is gone and
		// no completion or result event will fire for it.
		t.lost = true
		t.slotHeld = false
	}
	if e.driverDown {
		// The driver is down too: no reaction now. The restart sweep
		// excludes the dead executor via liveness checks, and journal-driven
		// resubmission re-covers its lost work.
		return
	}
	if e.hb.Interval > 0 {
		return
	}
	e.execEpoch[id]++
	e.loc.DropExecutor(id, e.cl.AliveExecutors())
	e.resubmitLostTasks(id, e.loop.Now())
	e.schedule()
	e.drainBatch() // cover kills injected from outside the event loop
}

// resubmitLostTasks aborts every tracked task on an executor the driver has
// given up on and enqueues fresh clones. The shared recovery epoch opens at
// epochStart — the failure time when the driver is omniscient, the
// executor's last heard heartbeat under detection — and closes when every
// clone has succeeded, yielding the measured recovery delay. Task ids are
// walked in sorted order so clone ids stay deterministic.
func (e *Engine) resubmitLostTasks(id int, epochStart time.Duration) {
	var ep *recoveryEpoch
	for _, tid := range sortedIDs(e.running) {
		t := e.running[tid]
		if t.exec != id || t.aborted {
			continue
		}
		t.aborted = true
		delete(e.running, tid)
		if t.detachPartner() {
			continue // the live speculative partner is now the sole attempt
		}
		if t.epoch == nil {
			if ep == nil {
				ep = &recoveryEpoch{start: epochStart}
			}
			t.epoch = ep
			ep.pending++
		}
		clone := e.cloneTask(t, t.attempt)
		if e.tracer != nil {
			e.trace("task-resubmit", t.sr.job.id, t.sr.st.ID, clone.id, -1,
				fmt.Sprintf("of=%d killed exec=%d", t.id, id))
		}
		e.enqueue(clone)
	}
}

// RestartExecutor revives a failed executor process with a cold cache. With
// heartbeat detection disabled the driver reacts omnisciently: any
// blacklist exclusion window closes (the fresh process gets probationary
// offers; only a successful task clears the blacklist entry itself),
// deferred checkpoints retry, and scheduling resumes. With detection
// enabled the new process merely starts heartbeating — the driver notices
// the new incarnation when the first beat arrives (see observeRestart).
func (e *Engine) RestartExecutor(id int) {
	e.trace("executor-restart", -1, -1, -1, id, "")
	e.cl.Restart(id)
	if e.driverDown {
		// The fresh process comes up while the driver is down; the restart
		// handshake (RestartDriver) records its incarnation.
		return
	}
	if e.hb.Interval > 0 {
		e.armBeat(id)
		e.ensureHeartbeats()
		return
	}
	e.recMu.Lock()
	delete(e.blacklistUntil, id)
	e.recMu.Unlock()
	e.drainDeferredCheckpoints()
	e.schedule()
	e.drainBatch() // cover restarts injected from outside the event loop
}

// blockID is sugar for constructing block ids.
func blockID(rddID, part int) cluster.BlockID {
	return cluster.BlockID{RDD: rddID, Partition: part}
}
