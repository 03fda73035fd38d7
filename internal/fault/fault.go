// Package fault is the deterministic, seed-driven fault-injection subsystem
// (Sec. III-D's operating regime made first-class). A Schedule describes
// executor crashes with optional restart, straggler slowdowns, lost
// checkpoint/shuffle blocks, and a transient storage-error probability; an
// Injector arms the schedule on the virtual clock and drives the engine
// through a narrow System interface. Because every decision is a function of
// the schedule seed and the deterministic event order of the single-threaded
// simulation, two runs with equal seeds inject byte-identical fault
// sequences — the property the chaos harness and the determinism tests
// build on.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"stark/internal/vtime"
)

// ErrInjected marks a transient storage failure produced by the injector.
// The engine's retry path treats it like any other storage error; tests and
// the chaos harness unwrap it to distinguish injected faults from bugs.
var ErrInjected = errors.New("fault: injected storage error")

// Crash fails one executor at a virtual time, optionally restarting it
// after a delay (0 means the executor stays dead).
type Crash struct {
	At           time.Duration
	Executor     int
	RestartAfter time.Duration
}

// Straggler slows one executor by Factor for a window of virtual time; new
// task launches there take Factor times their modeled duration.
type Straggler struct {
	At       time.Duration
	For      time.Duration
	Executor int
	Factor   float64
}

// BlockLoss deletes one persisted block at a virtual time. Pick is reduced
// modulo the number of committed blocks of the chosen kind at injection
// time, so schedules stay valid without knowing store contents in advance.
type BlockLoss struct {
	At         time.Duration
	Checkpoint bool // true: checkpoint block; false: shuffle map output
	Pick       int
}

// Partition cuts one executor off from the driver — bidirectionally, for a
// window of virtual time. Heartbeats and task results are lost while the
// window is open; what happens next depends on whether the window outlasts
// the driver's suspicion/death timeouts.
type Partition struct {
	At       time.Duration
	For      time.Duration
	Executor int
}

// NetDelay adds Extra latency to every control-plane message for a window
// of virtual time — the delayed-heartbeat fault.
type NetDelay struct {
	At    time.Duration
	For   time.Duration
	Extra time.Duration
}

// BlockCorrupt flips the checksum of one persisted block at a virtual time,
// so the next reader sees an integrity failure instead of wrong bytes. Pick
// is reduced modulo the committed block count, like BlockLoss.
type BlockCorrupt struct {
	At         time.Duration
	Checkpoint bool // true: checkpoint block; false: shuffle map output
	Pick       int
}

// DriverCrash fails the driver at a virtual time and restarts it after a
// delay, forcing a write-ahead-journal replay. TearTail removes that many
// bytes from the journal's end at crash time, simulating a crash mid-append
// (0 leaves the journal intact). Requires the engine's driver-recovery
// feature; RestartAfter must be positive — a driver that never comes back
// would wedge every in-flight job.
type DriverCrash struct {
	At           time.Duration
	RestartAfter time.Duration
	TearTail     int
}

// MemPressure shrinks one executor's effective cache capacity to Factor
// times the configured bound for a window of virtual time — the memory
// squeeze that precedes an OOM. While the window is open, puts that no
// longer fit degrade gracefully (the engine refuses the cache and streams)
// unless an ExecutorOOM window is also armed on the executor.
type MemPressure struct {
	At       time.Duration
	For      time.Duration
	Executor int
	Factor   float64
}

// ExecutorOOM arms an out-of-memory window on one executor: while open, a
// put that cannot fit under the (pressure-shrunk) capacity fails the task
// with the engine's typed ErrOOM instead of degrading to a cache refusal,
// driving the normal retry/lineage-recompute path. Pair it with an
// overlapping MemPressure window to make puts actually overflow.
type ExecutorOOM struct {
	At       time.Duration
	For      time.Duration
	Executor int
}

// TenantStorm is an open-loop arrival burst against one tenant session:
// starting At, Jobs submissions spaced Every apart, each at Priority. The
// injector never waits for completions — arrival rate is decoupled from
// service rate, which is what pushes the admission controller into shedding.
type TenantStorm struct {
	At       time.Duration
	Tenant   int
	Jobs     int
	Every    time.Duration
	Priority int
}

// SlowTenant submits one poison job through a tenant session at a virtual
// time: a job whose tasks take Factor times their modeled duration,
// exercising deadline cancellation and fair-share isolation against a
// tenant that hogs the cluster.
type SlowTenant struct {
	At     time.Duration
	Tenant int
	Factor float64
}

// Schedule is a complete fault plan. The zero value injects nothing.
type Schedule struct {
	// Seed drives the transient storage-error rolls; runs with equal seeds
	// and equal event orders fail the exact same operations.
	Seed int64
	// StorageErrorProb is the per-operation probability that a persistent
	// storage read or write transiently fails.
	StorageErrorProb float64
	Crashes          []Crash
	Stragglers       []Straggler
	BlockLoss        []BlockLoss

	// Network-model faults (require the engine's transport layer).
	// MsgDropProb is the per-message probability that a control-plane
	// message is lost in flight, rolled on an RNG stream independent of
	// the storage-error rolls.
	MsgDropProb  float64
	Partitions   []Partition
	NetDelays    []NetDelay
	BlockCorrupt []BlockCorrupt

	// Driver-fault events (require the engine's driver-recovery feature).
	DriverCrashes []DriverCrash

	// Memory-pressure fault events.
	MemPressures []MemPressure
	ExecutorOOMs []ExecutorOOM

	// Session-layer fault events (require the multi-tenant job server;
	// delivered through ArmSession, not Arm).
	TenantStorms []TenantStorm
	SlowTenants  []SlowTenant
}

// Empty reports whether the schedule injects no faults at all.
func (s Schedule) Empty() bool {
	return s.StorageErrorProb == 0 && s.MsgDropProb == 0 &&
		len(s.Crashes) == 0 && len(s.Stragglers) == 0 && len(s.BlockLoss) == 0 &&
		len(s.Partitions) == 0 && len(s.NetDelays) == 0 && len(s.BlockCorrupt) == 0 &&
		len(s.DriverCrashes) == 0 && len(s.MemPressures) == 0 && len(s.ExecutorOOMs) == 0 &&
		len(s.TenantStorms) == 0 && len(s.SlowTenants) == 0
}

// Events reports the number of scheduled (non-probabilistic) fault events.
func (s Schedule) Events() int {
	return len(s.Crashes) + len(s.Stragglers) + len(s.BlockLoss) +
		len(s.Partitions) + len(s.NetDelays) + len(s.BlockCorrupt) +
		len(s.DriverCrashes) + len(s.MemPressures) + len(s.ExecutorOOMs) +
		len(s.TenantStorms) + len(s.SlowTenants)
}

// System is the surface the injector drives; the engine implements it.
type System interface {
	KillExecutor(id int)
	RestartExecutor(id int)
	SetStraggler(id int, factor float64)
	// LoseBlock deletes the pick-th committed shuffle map output, or
	// checkpoint block when checkpoint is set (modulo the current count),
	// reporting whether anything existed to drop.
	LoseBlock(checkpoint bool, pick int) bool
	// PartitionExecutor / HealExecutor open and close a bidirectional
	// network partition between the driver and one executor.
	PartitionExecutor(id int)
	HealExecutor(id int)
	// SetNetDelay adds extra latency to every control message (0 restores
	// normal latency).
	SetNetDelay(extra time.Duration)
	// CorruptBlock flips the checksum of the pick-th committed shuffle map
	// output, or checkpoint block when checkpoint is set (modulo the current
	// count), reporting whether anything existed to corrupt.
	CorruptBlock(checkpoint bool, pick int) bool
	// CrashDriver fails the driver, tearing tearTail bytes off the journal;
	// RestartDriver replays the journal and resumes. Both require the
	// driver-recovery feature.
	CrashDriver(tearTail int)
	RestartDriver()
	// SetMemPressure shrinks an executor's effective cache capacity to
	// factor times the configured bound (factor >= 1 restores it).
	SetMemPressure(id int, factor float64)
	// SetOOMWindow arms or disarms an executor's out-of-memory window:
	// while armed, a cache put that cannot fit fails the task with a typed
	// OOM error instead of degrading to a graceful refusal.
	SetOOMWindow(id int, armed bool)
}

// SessionSystem is the session-layer surface the injector drives; the
// multi-tenant job server implements it. Tenant indices are reduced modulo
// the registered tenant count by the implementation, so schedules stay valid
// without knowing the tenant roster in advance.
type SessionSystem interface {
	// StormSubmit submits one open-loop burst job through the tenant's
	// session at the given priority; the injector never waits for it.
	StormSubmit(tenant, priority int)
	// PoisonSubmit submits one poison job through the tenant's session whose
	// tasks take factor times their modeled duration.
	PoisonSubmit(tenant int, factor float64)
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	Crashes         int
	Restarts        int
	Stragglers      int
	BlocksDropped   int
	BlocksCorrupted int
	Partitions      int
	Heals           int
	DelayWindows    int
	StorageErrors   int
	StorageRolls    int // operations that consulted the error probability
	MsgDrops        int
	MsgRolls        int // messages that consulted the drop probability
	MissedDrops     int // block events that found nothing to drop/corrupt
	DriverCrashes   int
	DriverRestarts  int
	MemPressures    int // mem-pressure windows opened
	OOMWindows      int // executor-OOM windows armed
	TenantStorms    int // storm bursts started
	StormJobs       int // individual storm submissions delivered
	PoisonJobs      int // slow-tenant poison submissions delivered
}

// Total reports the number of faults delivered (restarts and heals are
// repairs, not faults, and are excluded).
func (s Stats) Total() int {
	return s.Crashes + s.Stragglers + s.BlocksDropped + s.BlocksCorrupted +
		s.Partitions + s.DelayWindows + s.StorageErrors + s.MsgDrops +
		s.DriverCrashes + s.MemPressures + s.OOMWindows + s.StormJobs + s.PoisonJobs
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("crashes=%d restarts=%d stragglers=%d partitions=%d delayWindows=%d blocksDropped=%d blocksCorrupted=%d storageErrors=%d/%d msgDrops=%d/%d driverCrashes=%d memPressure=%d oomWindows=%d stormJobs=%d poisonJobs=%d",
		s.Crashes, s.Restarts, s.Stragglers, s.Partitions, s.DelayWindows,
		s.BlocksDropped, s.BlocksCorrupted, s.StorageErrors, s.StorageRolls,
		s.MsgDrops, s.MsgRolls, s.DriverCrashes, s.MemPressures, s.OOMWindows,
		s.StormJobs, s.PoisonJobs)
}

// Injector delivers one Schedule. Create with New, wire storage errors via
// StorageOp and message drops via MessageOp, and call Arm once to place the
// scheduled events on the clock. Fault delivery happens on the engine's
// single event-loop goroutine; the mutex only protects the Stats snapshot
// so monitoring goroutines may read counters mid-run.
type Injector struct {
	sched Schedule
	rng   *rand.Rand
	// msgRNG is a separate stream for message-drop rolls so arming network
	// faults never perturbs the storage-error roll sequence (determinism
	// across feature combinations).
	msgRNG *rand.Rand
	mu     sync.Mutex
	stats  Stats
}

// New builds an injector for the schedule.
func New(s Schedule) *Injector {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		sched:  s,
		rng:    rand.New(rand.NewSource(seed)),
		msgRNG: rand.New(rand.NewSource(mix(seed ^ 0xbeef))),
	}
}

// Schedule returns the armed schedule.
func (in *Injector) Schedule() Schedule { return in.sched }

// Stats returns a snapshot of the faults delivered so far. Safe to call
// from a goroutine other than the event loop's.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// bump applies one stats mutation under the lock.
func (in *Injector) bump(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// Arm places every scheduled fault event on the loop. Call once, before
// running the loop.
func (in *Injector) Arm(loop *vtime.Loop, sys System) {
	for _, c := range in.sched.Crashes {
		c := c
		loop.At(c.At, func() {
			in.bump(func(s *Stats) { s.Crashes++ })
			sys.KillExecutor(c.Executor)
		})
		if c.RestartAfter > 0 {
			loop.At(c.At+c.RestartAfter, func() {
				in.bump(func(s *Stats) { s.Restarts++ })
				sys.RestartExecutor(c.Executor)
			})
		}
	}
	for _, st := range in.sched.Stragglers {
		st := st
		loop.At(st.At, func() {
			in.bump(func(s *Stats) { s.Stragglers++ })
			sys.SetStraggler(st.Executor, st.Factor)
		})
		loop.At(st.At+st.For, func() { sys.SetStraggler(st.Executor, 1) })
	}
	for _, bl := range in.sched.BlockLoss {
		bl := bl
		loop.At(bl.At, func() {
			dropped := sys.LoseBlock(bl.Checkpoint, bl.Pick)
			in.bump(func(s *Stats) {
				if dropped {
					s.BlocksDropped++
				} else {
					s.MissedDrops++
				}
			})
		})
	}
	for _, p := range in.sched.Partitions {
		p := p
		loop.At(p.At, func() {
			in.bump(func(s *Stats) { s.Partitions++ })
			sys.PartitionExecutor(p.Executor)
		})
		loop.At(p.At+p.For, func() {
			in.bump(func(s *Stats) { s.Heals++ })
			sys.HealExecutor(p.Executor)
		})
	}
	for _, d := range in.sched.NetDelays {
		d := d
		loop.At(d.At, func() {
			in.bump(func(s *Stats) { s.DelayWindows++ })
			sys.SetNetDelay(d.Extra)
		})
		loop.At(d.At+d.For, func() { sys.SetNetDelay(0) })
	}
	for _, bc := range in.sched.BlockCorrupt {
		bc := bc
		loop.At(bc.At, func() {
			corrupted := sys.CorruptBlock(bc.Checkpoint, bc.Pick)
			in.bump(func(s *Stats) {
				if corrupted {
					s.BlocksCorrupted++
				} else {
					s.MissedDrops++
				}
			})
		})
	}
	for _, mp := range in.sched.MemPressures {
		mp := mp
		loop.At(mp.At, func() {
			in.bump(func(s *Stats) { s.MemPressures++ })
			sys.SetMemPressure(mp.Executor, mp.Factor)
		})
		loop.At(mp.At+mp.For, func() { sys.SetMemPressure(mp.Executor, 1) })
	}
	for _, oe := range in.sched.ExecutorOOMs {
		oe := oe
		loop.At(oe.At, func() {
			in.bump(func(s *Stats) { s.OOMWindows++ })
			sys.SetOOMWindow(oe.Executor, true)
		})
		loop.At(oe.At+oe.For, func() { sys.SetOOMWindow(oe.Executor, false) })
	}
	for _, dc := range in.sched.DriverCrashes {
		dc := dc
		loop.At(dc.At, func() {
			in.bump(func(s *Stats) { s.DriverCrashes++ })
			sys.CrashDriver(dc.TearTail)
		})
		restartAfter := dc.RestartAfter
		if restartAfter <= 0 {
			// A never-restarting driver would wedge every job; clamp to an
			// immediate restart at the next instant.
			restartAfter = 1
		}
		loop.At(dc.At+restartAfter, func() {
			in.bump(func(s *Stats) { s.DriverRestarts++ })
			sys.RestartDriver()
		})
	}
}

// ArmSession places every session-layer fault event on the loop, driving
// the multi-tenant job server through SessionSystem. Call once, before
// running the loop; independent of Arm so engine-only setups never pay for
// it.
func (in *Injector) ArmSession(loop *vtime.Loop, sys SessionSystem) {
	for _, ts := range in.sched.TenantStorms {
		ts := ts
		for j := 0; j < ts.Jobs; j++ {
			j := j
			loop.At(ts.At+time.Duration(j)*ts.Every, func() {
				in.bump(func(s *Stats) {
					if j == 0 {
						s.TenantStorms++
					}
					s.StormJobs++
				})
				sys.StormSubmit(ts.Tenant, ts.Priority)
			})
		}
	}
	for _, sl := range in.sched.SlowTenants {
		sl := sl
		loop.At(sl.At, func() {
			in.bump(func(s *Stats) { s.PoisonJobs++ })
			sys.PoisonSubmit(sl.Tenant, sl.Factor)
		})
	}
}

// StorageOp rolls the transient-error probability for one persistent
// storage operation, returning ErrInjected (wrapped with the operation
// name) on a hit. The engine installs it as the store's fault hook.
func (in *Injector) StorageOp(op string) error {
	if in.sched.StorageErrorProb <= 0 {
		return nil
	}
	hit := in.rng.Float64() < in.sched.StorageErrorProb
	in.bump(func(s *Stats) {
		s.StorageRolls++
		if hit {
			s.StorageErrors++
		}
	})
	if hit {
		return fmt.Errorf("%w: %s", ErrInjected, op)
	}
	return nil
}

// MessageOp rolls the message-drop probability for one control-plane
// message, reporting whether it is lost. The engine installs it as the
// network's fault hook.
func (in *Injector) MessageOp() bool {
	if in.sched.MsgDropProb <= 0 {
		return false
	}
	hit := in.msgRNG.Float64() < in.sched.MsgDropProb
	in.bump(func(s *Stats) {
		s.MsgRolls++
		if hit {
			s.MsgDrops++
		}
	})
	return hit
}

// RandomSchedule derives a randomized but fully deterministic fault plan
// from a seed: one to three executor crashes (each followed by a restart,
// and never targeting executor 0, so the cluster cannot die out entirely),
// up to two straggler windows, up to three lost persisted blocks, and a
// small transient storage-error probability. Events land within the given
// virtual-time horizon on a cluster of the given size.
func RandomSchedule(seed int64, horizon time.Duration, executors int) Schedule {
	rng := rand.New(rand.NewSource(mix(seed)))
	s := Schedule{Seed: mix(seed ^ 0x5eed)}
	if horizon <= 0 {
		horizon = time.Second
	}
	at := func(loFrac, hiFrac float64) time.Duration {
		f := loFrac + rng.Float64()*(hiFrac-loFrac)
		return time.Duration(f * float64(horizon))
	}
	if executors < 2 {
		// A single-executor cluster can only absorb transient faults.
		s.StorageErrorProb = 0.05
		return s
	}
	crashes := 1 + rng.Intn(3)
	perm := rng.Perm(executors - 1) // victims drawn from 1..executors-1
	if crashes > len(perm) {
		crashes = len(perm)
	}
	for i := 0; i < crashes; i++ {
		s.Crashes = append(s.Crashes, Crash{
			At:           at(0.05, 0.85),
			Executor:     1 + perm[i],
			RestartAfter: time.Duration(float64(horizon) * (0.05 + 0.15*rng.Float64())),
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Stragglers = append(s.Stragglers, Straggler{
			At:       at(0, 0.7),
			For:      time.Duration(float64(horizon) * (0.1 + 0.2*rng.Float64())),
			Executor: rng.Intn(executors),
			Factor:   2 + 4*rng.Float64(),
		})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.BlockLoss = append(s.BlockLoss, BlockLoss{
			At:         at(0.1, 0.9),
			Checkpoint: rng.Intn(2) == 0,
			Pick:       rng.Intn(1 << 16),
		})
	}
	probs := []float64{0, 0.01, 0.02, 0.04}
	s.StorageErrorProb = probs[rng.Intn(len(probs))]
	return s
}

// WithNetFaults returns a copy of the schedule extended with randomized
// network-model faults derived from the same seed on an independent RNG
// stream (so the base schedule's draws — pinned by tests — are untouched):
// one or two bidirectional partition windows whose durations straddle the
// driver's suspicion and death timeouts, a per-message drop probability, at
// most one delayed-heartbeat window, and up to two corrupted persisted
// blocks. Partitions never target executor 0, matching RandomSchedule's
// crash rule, so the cluster keeps a reachable executor.
func (s Schedule) WithNetFaults(seed int64, horizon time.Duration, executors int) Schedule {
	rng := rand.New(rand.NewSource(mix(seed ^ 0x7e7)))
	if horizon <= 0 {
		horizon = time.Second
	}
	at := func(loFrac, hiFrac float64) time.Duration {
		f := loFrac + rng.Float64()*(hiFrac-loFrac)
		return time.Duration(f * float64(horizon))
	}
	if executors >= 2 {
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			s.Partitions = append(s.Partitions, Partition{
				At: at(0.05, 0.7),
				// 100ms..1.2s: short windows exercise suspect-then-clear,
				// long ones dead-declaration followed by rejoin.
				For:      100*time.Millisecond + time.Duration(rng.Int63n(int64(1100*time.Millisecond))),
				Executor: 1 + rng.Intn(executors-1),
			})
		}
	}
	probs := []float64{0, 0.02, 0.05, 0.1}
	s.MsgDropProb = probs[rng.Intn(len(probs))]
	if rng.Intn(2) == 0 {
		s.NetDelays = append(s.NetDelays, NetDelay{
			At:    at(0.1, 0.6),
			For:   time.Duration(float64(horizon) * (0.1 + 0.2*rng.Float64())),
			Extra: 20*time.Millisecond + time.Duration(rng.Int63n(int64(280*time.Millisecond))),
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.BlockCorrupt = append(s.BlockCorrupt, BlockCorrupt{
			At:         at(0.1, 0.9),
			Checkpoint: rng.Intn(2) == 0,
			Pick:       rng.Intn(1 << 16),
		})
	}
	return s
}

// WithDriverFaults returns a copy of the schedule extended with one
// randomized driver crash-restart derived from the same seed on an
// independent RNG stream (leaving the base and network draws untouched).
// The crash lands mid-run, the restart follows within a few percent of the
// horizon, and roughly half the crashes tear a few bytes off the journal
// tail to exercise torn-frame truncation.
func (s Schedule) WithDriverFaults(seed int64, horizon time.Duration) Schedule {
	rng := rand.New(rand.NewSource(mix(seed ^ 0xd21fe2)))
	if horizon <= 0 {
		horizon = time.Second
	}
	at := time.Duration((0.15 + 0.55*rng.Float64()) * float64(horizon))
	restart := time.Duration((0.02 + 0.06*rng.Float64()) * float64(horizon))
	if restart <= 0 {
		restart = 1
	}
	tear := 0
	if rng.Intn(2) == 0 {
		tear = 1 + rng.Intn(16)
	}
	s.DriverCrashes = append(s.DriverCrashes, DriverCrash{
		At:           at,
		RestartAfter: restart,
		TearTail:     tear,
	})
	return s
}

// WithMemFaults returns a copy of the schedule extended with randomized
// memory-pressure faults derived from the same seed on an independent RNG
// stream (leaving the base, network, and driver draws untouched): one or
// two mem-pressure windows whose shrink factors are drawn small enough to
// squeeze even generously-provisioned executors (down to a zero-capacity
// squeeze), and, roughly half the time, one ExecutorOOM window nested
// inside the first pressure window so overflowing puts fail tasks rather
// than merely degrade. OOM windows never target executor 0 (matching the
// crash rule) and stay short relative to the engine's default cumulative
// retry backoff, so a task that OOMs at the window's edge still has a
// retry landing after the squeeze lifts.
func (s Schedule) WithMemFaults(seed int64, horizon time.Duration, executors int) Schedule {
	rng := rand.New(rand.NewSource(mix(seed ^ 0x3e30a7)))
	if horizon <= 0 {
		horizon = time.Second
	}
	if executors < 1 {
		return s
	}
	// Shrink factors multiply capacities that may be many GiB while the
	// workload caches kilobytes; only near-zero factors actually bite.
	factors := []float64{0, 1e-7, 1e-6, 1e-5}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		s.MemPressures = append(s.MemPressures, MemPressure{
			At:       time.Duration((0.05 + 0.6*rng.Float64()) * float64(horizon)),
			For:      time.Duration(float64(horizon) * (0.1 + 0.2*rng.Float64())),
			Executor: rng.Intn(executors),
			Factor:   factors[rng.Intn(len(factors))],
		})
	}
	if executors >= 2 && rng.Intn(2) == 0 {
		mp := s.MemPressures[len(s.MemPressures)-1]
		mp.Executor = 1 + rng.Intn(executors-1)
		oomFor := 50*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
		if oomFor > mp.For {
			oomFor = mp.For
		}
		s.MemPressures[len(s.MemPressures)-1] = mp
		s.ExecutorOOMs = append(s.ExecutorOOMs, ExecutorOOM{
			At:       mp.At,
			For:      oomFor,
			Executor: mp.Executor,
		})
	}
	return s
}

// WithTenantFaults returns a copy of the schedule extended with randomized
// session-layer faults derived from the same seed on an independent RNG
// stream (leaving the base, network, and driver draws untouched): one or two
// open-loop tenant storms whose arrival rates outpace any plausible service
// rate, and, roughly half the time, one slow-tenant poison job. Tenant
// indices are drawn from [0, tenants); implementations reduce them modulo
// the live roster.
func (s Schedule) WithTenantFaults(seed int64, horizon time.Duration, tenants int) Schedule {
	rng := rand.New(rand.NewSource(mix(seed ^ 0x7e4a47)))
	if horizon <= 0 {
		horizon = time.Second
	}
	if tenants < 1 {
		tenants = 1
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		s.TenantStorms = append(s.TenantStorms, TenantStorm{
			At:       time.Duration((0.05 + 0.6*rng.Float64()) * float64(horizon)),
			Tenant:   rng.Intn(tenants),
			Jobs:     4 + rng.Intn(12),
			Every:    time.Duration(float64(horizon) * (0.002 + 0.01*rng.Float64())),
			Priority: rng.Intn(3),
		})
	}
	if rng.Intn(2) == 0 {
		s.SlowTenants = append(s.SlowTenants, SlowTenant{
			At:     time.Duration((0.1 + 0.5*rng.Float64()) * float64(horizon)),
			Tenant: rng.Intn(tenants),
			Factor: 4 + 8*rng.Float64(),
		})
	}
	return s
}

// Describe renders the armed fault plan as one line per scheduled event,
// sorted by virtual time (probabilistic knobs follow at the end) — the
// output of starkbench's -dump-faults flag.
func (s Schedule) Describe() []string {
	type ev struct {
		at   time.Duration
		line string
	}
	var evs []ev
	add := func(at time.Duration, format string, args ...any) {
		evs = append(evs, ev{at, fmt.Sprintf("%12v  %s", at, fmt.Sprintf(format, args...))})
	}
	for _, c := range s.Crashes {
		add(c.At, "crash        exec=%d restartAfter=%v", c.Executor, c.RestartAfter)
	}
	for _, st := range s.Stragglers {
		add(st.At, "straggle     exec=%d factor=%.2f for=%v", st.Executor, st.Factor, st.For)
	}
	for _, bl := range s.BlockLoss {
		kind := "shuffle"
		if bl.Checkpoint {
			kind = "checkpoint"
		}
		add(bl.At, "block-loss   %s pick=%d", kind, bl.Pick)
	}
	for _, p := range s.Partitions {
		add(p.At, "partition    exec=%d heal=+%v", p.Executor, p.For)
	}
	for _, d := range s.NetDelays {
		add(d.At, "net-delay    extra=%v for=%v", d.Extra, d.For)
	}
	for _, bc := range s.BlockCorrupt {
		kind := "shuffle"
		if bc.Checkpoint {
			kind = "checkpoint"
		}
		add(bc.At, "block-corrupt %s pick=%d", kind, bc.Pick)
	}
	for _, dc := range s.DriverCrashes {
		add(dc.At, "driver-crash restartAfter=%v tearTail=%d", dc.RestartAfter, dc.TearTail)
	}
	for _, mp := range s.MemPressures {
		add(mp.At, "mem-pressure exec=%d factor=%.2g for=%v", mp.Executor, mp.Factor, mp.For)
	}
	for _, oe := range s.ExecutorOOMs {
		add(oe.At, "oom-window   exec=%d for=%v", oe.Executor, oe.For)
	}
	for _, ts := range s.TenantStorms {
		add(ts.At, "tenant-storm tenant=%d jobs=%d every=%v prio=%d", ts.Tenant, ts.Jobs, ts.Every, ts.Priority)
	}
	for _, sl := range s.SlowTenants {
		add(sl.At, "slow-tenant  tenant=%d factor=%.2f", sl.Tenant, sl.Factor)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	out := make([]string, 0, len(evs)+2)
	for _, e := range evs {
		out = append(out, e.line)
	}
	if s.StorageErrorProb > 0 {
		out = append(out, fmt.Sprintf("%12s  storage-error prob=%.3f", "-", s.StorageErrorProb))
	}
	if s.MsgDropProb > 0 {
		out = append(out, fmt.Sprintf("%12s  msg-drop      prob=%.3f", "-", s.MsgDropProb))
	}
	return out
}

// mix scrambles a seed so adjacent chaos seeds produce unrelated schedules
// (splitmix64 finalizer).
func mix(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z & 0x7fffffffffffffff)
}
