// Package session is the multi-tenant job-submission layer over the engine:
// N tenant sessions submit actions against shared namespaces through an
// admission controller with bounded queues and a memory-budget pin ledger,
// a deficit-round-robin dispatcher weighted by tenant quota, per-job
// deadlines with cooperative cancellation, and explicit overload behavior —
// when a bound is exceeded, the lowest-priority queued job is shed fast
// with a typed ErrOverload instead of degrading every tenant.
//
// Identical concurrent submissions (same final RDD, same action) are
// computed once: later submissions subscribe to the in-flight computation
// and receive the same result, so a hot RDD hammered by several tenants
// costs one execution (Stats.DuplicateComputations pins the invariant).
//
// Like the engine it wraps, the server is single-threaded on the virtual
// event loop: Submit, timers, and engine callbacks all run on the loop
// goroutine. The mutex only guards the Stats snapshot for monitoring
// goroutines, mirroring fault.Injector.
package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"stark/internal/engine"
	"stark/internal/rdd"
)

// Config bounds the admission controller and dispatcher. Zero fields take
// the documented defaults.
type Config struct {
	// MaxActive caps concurrently running engine jobs (default 4). Queued
	// work beyond it waits for the dispatcher.
	MaxActive int
	// MaxQueuedPerTenant bounds one tenant's queue (default 32); the
	// overflow victim is drawn from that tenant only, so one tenant's burst
	// never sheds another tenant's work.
	MaxQueuedPerTenant int
	// MaxQueuedTotal bounds the queued entries across all tenants
	// (default 128).
	MaxQueuedTotal int
	// MemoryBudget bounds the admission pin ledger in bytes (0 = unlimited):
	// every queued or running entry pins Parts*bytesPerPartition until it
	// reaches a terminal state, modeling the cache footprint an admitted
	// job may occupy.
	MemoryBudget int64
	// TrackClusterMemory couples the ledger to the cluster's live,
	// pressure-shrunk cache capacity: the effective budget becomes
	// min(MemoryBudget, TotalEffectiveCapacity()), so MemPressure windows
	// and executor deaths shrink admission headroom immediately and the
	// server sheds with ErrOverload instead of admitting work the squeezed
	// cluster cannot hold.
	TrackClusterMemory bool
}

const (
	// bytesPerPartition is the per-partition admission charge.
	bytesPerPartition = 1 << 20
	// quantum is the deficit-round-robin quantum in partition-cost units
	// credited per visit, multiplied by the tenant's quota.
	quantum = 8
)

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		MaxActive:          4,
		MaxQueuedPerTenant: 32,
		MaxQueuedTotal:     128,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxActive <= 0 {
		c.MaxActive = d.MaxActive
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = d.MaxQueuedPerTenant
	}
	if c.MaxQueuedTotal <= 0 {
		c.MaxQueuedTotal = d.MaxQueuedTotal
	}
	return c
}

// Result is what a tenant submission delivers: the engine's job result plus
// the session-layer accounting the isolation oracle asserts on.
type Result struct {
	engine.JobResult
	// Tenant names the submitting tenant.
	Tenant string
	// Shared reports that the result came from subscribing to another
	// submission's identical in-flight computation.
	Shared bool
	// QueueDelay is the virtual admission-to-dispatch time (0 for shared
	// results, which never queue); Latency is admission-to-delivery.
	QueueDelay time.Duration
	Latency    time.Duration
}

// SubmitOptions parameterize one submission.
type SubmitOptions struct {
	// Priority orders shedding under overload: higher survives longer.
	Priority int
	// Deadline, when positive, bounds the job's virtual completion time
	// relative to submission; expiry cancels cooperatively with
	// ErrDeadlineExceeded.
	Deadline time.Duration
	// OnDone fires exactly once with the terminal result.
	OnDone func(Result)
}

// Job is a tenant's handle on one submission.
type Job struct {
	tenant   *Tenant
	id       int // server-wide submission sequence; larger = newer
	priority int
	cb       func(Result)
	ent      *entry
	pinned   int64
	admitted time.Duration
	done     bool
	res      Result
}

// ID returns the server-wide submission sequence number.
func (j *Job) ID() int { return j.id }

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.done }

// Result returns the terminal result (zero until Done).
func (j *Job) Result() Result { return j.res }

// entry is one unit of engine work. Several Jobs may attach to it (dedup
// subscription); it runs while at least one attachment remains.
type entry struct {
	key          dedupKey
	final        *rdd.RDD
	action       engine.Action
	cost         int // DRR cost: result-stage task count
	owner        *Tenant
	attached     []*Job
	queuedAt     time.Duration
	dispatchedAt time.Duration
	state        int
	engID        int
}

const (
	stateQueued = iota
	stateRunning
	stateDone
)

// prio is the entry's effective shed priority: the max over attachments, so
// a low-priority submission sheltered by a high-priority subscriber
// survives as long as the subscriber does.
func (en *entry) prio() int {
	p := en.attached[0].priority
	for _, j := range en.attached[1:] {
		if j.priority > p {
			p = j.priority
		}
	}
	return p
}

// newest is the largest attachment id — the shed tie-break (newest goes
// first).
func (en *entry) newest() int {
	n := en.attached[0].id
	for _, j := range en.attached[1:] {
		if j.id > n {
			n = j.id
		}
	}
	return n
}

type dedupKey struct {
	rddID  int
	action engine.Action
}

// Tenant is one session against the shared server.
type Tenant struct {
	srv   *Server
	name  string
	idx   int
	quota int

	deficit int
	queue   []*entry
}

// Name returns the tenant's registration name.
func (t *Tenant) Name() string { return t.name }

// Quota returns the tenant's fair-share weight.
func (t *Tenant) Quota() int { return t.quota }

// Server is the multi-tenant job server. Create with Open, register
// tenants, then Submit through them; all calls must run on the engine's
// event-loop goroutine.
type Server struct {
	eng *engine.Engine
	cfg Config

	tenants  []*Tenant // ring order = registration order
	rr       int       // DRR ring cursor
	credited bool      // current ring visit already received its quantum

	work    map[dedupKey]*entry // queued or running entries, by dedup key
	running map[int]*entry      // running entries, by engine job id
	queued  int
	active  int
	pinned  int64
	seq     int
	closed  bool

	dispatching bool // reentrancy guard: engine callbacks re-trigger dispatch

	stormJob  func(tenant, n int) (*rdd.RDD, engine.Action)
	poisonJob func(tenant int, factor float64) (*rdd.RDD, engine.Action)
	stormSeq  int

	mu     sync.Mutex
	stats  Stats
	tstats []TenantStats
}

// Open builds a server over the engine.
func Open(eng *engine.Engine, cfg Config) *Server {
	return &Server{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		work:    make(map[dedupKey]*entry),
		running: make(map[int]*entry),
	}
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// RegisterTenant adds a tenant session with the given fair-share quota
// (clamped to >= 1). Registration order fixes the DRR ring order, so it is
// part of the deterministic inputs.
func (s *Server) RegisterTenant(name string, quota int) *Tenant {
	if quota < 1 {
		quota = 1
	}
	t := &Tenant{srv: s, name: name, idx: len(s.tenants), quota: quota}
	s.tenants = append(s.tenants, t)
	s.mu.Lock()
	s.tstats = append(s.tstats, TenantStats{Name: name, Quota: quota})
	s.mu.Unlock()
	return t
}

// Tenants returns the registered tenants in ring order.
func (s *Server) Tenants() []*Tenant { return append([]*Tenant(nil), s.tenants...) }

// bump applies one stats mutation under the lock.
func (s *Server) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// tbump applies one per-tenant stats mutation under the lock.
func (s *Server) tbump(t *Tenant, f func(*TenantStats)) {
	s.mu.Lock()
	f(&s.tstats[t.idx])
	s.mu.Unlock()
}

// Stats returns a deep-copied snapshot, safe to call from any goroutine.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.clone()
}

// TenantStats returns per-tenant snapshots in ring order.
func (s *Server) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TenantStats(nil), s.tstats...)
}

// Submit runs an action on final through this tenant's session. The job is
// admitted (queued or subscribed to identical in-flight work), shed with
// ErrOverload, or rejected with ErrServerClosed; opts.OnDone fires exactly
// once either way.
func (t *Tenant) Submit(final *rdd.RDD, action engine.Action, opts SubmitOptions) *Job {
	s := t.srv
	now := s.eng.Now()
	j := &Job{
		tenant:   t,
		id:       s.seq,
		priority: opts.Priority,
		cb:       opts.OnDone,
		admitted: now,
	}
	s.seq++
	s.bump(func(st *Stats) { st.Submitted++ })
	s.tbump(t, func(ts *TenantStats) { ts.Submitted++ })
	if s.closed {
		s.fail(j, fmt.Errorf("session: tenant %s job %d: %w", t.name, j.id, ErrServerClosed))
		return j
	}

	// Shared-lineage dedup: an identical computation already queued or
	// running serves this submission too — attach, never recompute.
	key := dedupKey{rddID: final.ID, action: action}
	if en := s.work[key]; en != nil {
		en.attached = append(en.attached, j)
		j.ent = en
		s.bump(func(st *Stats) {
			st.Admitted++
			st.DedupSubscriptions++
		})
		s.tbump(t, func(ts *TenantStats) { ts.Admitted++ })
		s.armDeadline(j, opts.Deadline)
		return j
	}

	charge := int64(final.Parts) * bytesPerPartition
	if !s.admit(t, j, charge) {
		return j
	}

	en := &entry{
		key:      key,
		final:    final,
		action:   action,
		cost:     final.Parts,
		owner:    t,
		attached: []*Job{j},
		queuedAt: now,
		state:    stateQueued,
	}
	j.ent = en
	j.pinned = charge
	s.pinned += charge
	t.queue = append(t.queue, en)
	s.queued++
	s.work[key] = en
	s.bump(func(st *Stats) {
		st.Admitted++
		if s.queued > st.MaxQueued {
			st.MaxQueued = s.queued
		}
	})
	s.tbump(t, func(ts *TenantStats) { ts.Admitted++ })
	s.armDeadline(j, opts.Deadline)
	s.dispatch()
	return j
}

// admit enforces the bounded queues and the memory budget, shedding
// lower-priority queued work to make room when the incoming job outranks
// it. Reports whether j may be queued; on false, j has already failed with
// ErrOverload.
func (s *Server) admit(t *Tenant, j *Job, charge int64) bool {
	budget := s.effectiveBudget()
	if budget > 0 && charge > budget {
		s.shedJob(j) // larger than the whole budget: never admissible
		return false
	}
	for len(t.queue) >= s.cfg.MaxQueuedPerTenant {
		if !s.shedFrom([]*Tenant{t}, j.priority) {
			s.shedJob(j)
			return false
		}
	}
	for s.queued >= s.cfg.MaxQueuedTotal ||
		(budget > 0 && s.pinned+charge > budget) {
		if !s.shedFrom(s.tenants, j.priority) {
			s.shedJob(j)
			return false
		}
	}
	return true
}

// effectiveBudget resolves the ledger bound for this instant: the static
// MemoryBudget, optionally clamped to the cluster's current effective cache
// capacity (TrackClusterMemory), which mem-pressure faults shrink.
func (s *Server) effectiveBudget() int64 {
	b := s.cfg.MemoryBudget
	if s.cfg.TrackClusterMemory {
		if c := s.eng.Cluster().TotalEffectiveCapacity(); b <= 0 || c < b {
			b = c
		}
	}
	return b
}

// shedFrom sheds the lowest-priority queued entry across the given tenants
// (tie broken toward the newest submission) provided it ranks strictly
// below minPrio. Reports whether anything was shed.
func (s *Server) shedFrom(tenants []*Tenant, minPrio int) bool {
	var victim *entry
	for _, t := range tenants {
		for _, en := range t.queue {
			if victim == nil || en.prio() < victim.prio() ||
				(en.prio() == victim.prio() && en.newest() > victim.newest()) {
				victim = en
			}
		}
	}
	if victim == nil || victim.prio() >= minPrio {
		return false
	}
	s.unqueue(victim)
	for _, vj := range append([]*Job(nil), victim.attached...) {
		s.shedJob(vj)
	}
	victim.attached = nil
	return true
}

// shedJob fails one submission fast with ErrOverload.
func (s *Server) shedJob(j *Job) {
	s.bump(func(st *Stats) { st.Shed++ })
	s.tbump(j.tenant, func(ts *TenantStats) { ts.Shed++ })
	s.fail(j, fmt.Errorf("session: tenant %s job %d: %w", j.tenant.name, j.id, ErrOverload))
}

// unqueue removes a queued entry from its owner's queue and the dedup
// index.
func (s *Server) unqueue(en *entry) {
	q := en.owner.queue
	for i, e := range q {
		if e == en {
			en.owner.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	s.queued--
	en.state = stateDone
	delete(s.work, en.key)
}

// armDeadline places the job's deadline timer on the virtual clock.
func (s *Server) armDeadline(j *Job, d time.Duration) {
	if d <= 0 {
		return
	}
	s.eng.Loop().At(j.admitted+d, func() { s.onDeadline(j) })
}

// onDeadline cancels an unfinished job at deadline expiry. Queued-only work
// fails directly with ErrDeadlineExceeded; running work whose sole
// remaining attachment expired is unwound through the engine's cooperative
// cancellation, so its delivered chain carries both ErrDeadlineExceeded and
// engine.ErrJobCancelled. A subscriber's expiry detaches it alone — the
// primary computation keeps running.
func (s *Server) onDeadline(j *Job) {
	if j.done {
		return
	}
	en := j.ent
	if en.state == stateRunning && len(en.attached) == 1 && en.attached[0] == j {
		// Drop the dedup index first so a fresh identical submission never
		// subscribes to a dying computation, then unwind cooperatively:
		// in-flight tasks abort, slots free, and the engine callback
		// delivers the typed cancellation to this job.
		delete(s.work, en.key)
		s.eng.CancelJob(en.engID, ErrDeadlineExceeded)
		return
	}
	s.detach(en, j)
	if len(en.attached) == 0 && en.state == stateQueued {
		s.unqueue(en)
	}
	s.bump(func(st *Stats) { st.DeadlineExceeded++ })
	s.tbump(j.tenant, func(ts *TenantStats) { ts.Deadline++ })
	s.fail(j, fmt.Errorf("session: tenant %s job %d: %w", j.tenant.name, j.id, ErrDeadlineExceeded))
	s.dispatch()
}

// detach removes one attachment from an entry.
func (s *Server) detach(en *entry, j *Job) {
	for i, a := range en.attached {
		if a == j {
			en.attached = append(en.attached[:i], en.attached[i+1:]...)
			return
		}
	}
}

// fail delivers a terminal error to one submission and releases its pin.
func (s *Server) fail(j *Job, err error) {
	if j.done {
		return
	}
	j.done = true
	s.releasePin(j)
	j.res = Result{
		JobResult: engine.JobResult{JobID: j.id, Err: err},
		Tenant:    j.tenant.name,
		Latency:   s.eng.Now() - j.admitted,
	}
	if j.cb != nil {
		j.cb(j.res)
	}
}

// releasePin returns the job's admission charge to the memory budget.
func (s *Server) releasePin(j *Job) {
	s.pinned -= j.pinned
	j.pinned = 0
}

// onEngineDone routes one engine completion to every attached submission
// and frees the dispatch slot.
func (s *Server) onEngineDone(en *entry, r engine.JobResult) {
	s.active--
	delete(s.running, r.JobID)
	if en.state != stateDone {
		en.state = stateDone
		delete(s.work, en.key)
	}
	now := s.eng.Now()
	attached := append([]*Job(nil), en.attached...)
	en.attached = nil
	for i, j := range attached {
		if j.done {
			continue
		}
		j.done = true
		s.releasePin(j)
		shared := i > 0 // first attachment is the originating submission
		qd := time.Duration(0)
		if !shared {
			qd = en.dispatchedAt - en.queuedAt
		}
		j.res = Result{
			JobResult:  r,
			Tenant:     j.tenant.name,
			Shared:     shared,
			QueueDelay: qd,
			Latency:    now - j.admitted,
		}
		s.bump(func(st *Stats) {
			st.Latencies = append(st.Latencies, j.res.Latency)
			switch {
			case r.Err == nil:
				st.Completed++
			case errors.Is(r.Err, ErrDeadlineExceeded):
				st.DeadlineExceeded++
			case errors.Is(r.Err, ErrServerClosed):
				st.Closed++
			default:
				st.Failed++
			}
		})
		s.tbump(j.tenant, func(ts *TenantStats) {
			if shared {
				ts.Shared++
			}
			switch {
			case r.Err == nil:
				ts.Completed++
			case errors.Is(r.Err, ErrDeadlineExceeded):
				ts.Deadline++
			default:
				ts.Failed++
			}
		})
		if j.cb != nil {
			j.cb(j.res)
		}
	}
	s.dispatch()
}

// Close shuts the server down idempotently: queued submissions fail with
// ErrServerClosed, running jobs are cancelled through the engine, and later
// Submits reject immediately. It does not close the engine.
func (s *Server) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, t := range s.tenants {
		for _, en := range append([]*entry(nil), t.queue...) {
			s.unqueue(en)
			for _, j := range append([]*Job(nil), en.attached...) {
				s.bump(func(st *Stats) { st.Closed++ })
				s.fail(j, fmt.Errorf("session: tenant %s job %d: %w", j.tenant.name, j.id, ErrServerClosed))
			}
			en.attached = nil
		}
		t.queue = nil
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s.eng.CancelJob(id, ErrServerClosed)
	}
}

// Closed reports whether Close ran.
func (s *Server) Closed() bool { return s.closed }

// SetStormFactory installs the workload used for fault-injected tenant
// storms: called once per storm arrival with the target tenant index and a
// server-wide storm sequence number, it returns the job to submit.
func (s *Server) SetStormFactory(f func(tenant, n int) (*rdd.RDD, engine.Action)) {
	s.stormJob = f
}

// SetPoisonFactory installs the workload used for fault-injected slow
// tenants: it returns a job whose tasks cost roughly factor times a normal
// pass (e.g. a high-CostFactor MapPartitions).
func (s *Server) SetPoisonFactory(f func(tenant int, factor float64) (*rdd.RDD, engine.Action)) {
	s.poisonJob = f
}

// StormSubmit implements fault.SessionSystem: one open-loop burst arrival
// through the (tenant mod roster)'s session at the given priority. A no-op
// until tenants and a storm factory are registered.
func (s *Server) StormSubmit(tenant, priority int) {
	if len(s.tenants) == 0 || s.stormJob == nil || s.closed {
		return
	}
	t := s.tenants[tenant%len(s.tenants)]
	n := s.stormSeq
	s.stormSeq++
	final, action := s.stormJob(t.idx, n)
	t.Submit(final, action, SubmitOptions{Priority: priority})
}

// PoisonSubmit implements fault.SessionSystem: one slow-tenant poison job
// through the (tenant mod roster)'s session. A no-op until tenants and a
// poison factory are registered.
func (s *Server) PoisonSubmit(tenant int, factor float64) {
	if len(s.tenants) == 0 || s.poisonJob == nil || s.closed {
		return
	}
	t := s.tenants[tenant%len(s.tenants)]
	final, action := s.poisonJob(t.idx, factor)
	t.Submit(final, action, SubmitOptions{})
}
