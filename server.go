package stark

import (
	"stark/internal/engine"
	"stark/internal/fault"
	"stark/internal/session"
)

// JobServer is the multi-tenant job-submission layer: tenant sessions
// submit actions against shared namespaces through an admission controller
// with bounded queues, a quota-weighted deficit-round-robin dispatcher,
// per-job deadlines with cooperative cancellation, and typed overload
// shedding (ErrOverload). Identical concurrent submissions are computed
// once and shared. Create with Context.NewJobServer.
type JobServer = session.Server

// TenantSession is one tenant's session against a JobServer.
type TenantSession = session.Tenant

// JobServerConfig bounds the server's admission controller and dispatcher.
type JobServerConfig = session.Config

// JobSubmitOptions parameterize one tenant submission: shed priority,
// virtual-time deadline, and the completion callback.
type JobSubmitOptions = session.SubmitOptions

// TenantJob is a tenant's handle on one submission.
type TenantJob = session.Job

// TenantResult is what a tenant submission delivers.
type TenantResult = session.Result

// JobServerStats counts admissions, dispatches, sheds, deadline
// cancellations, dedup subscriptions, and latency/queue-delay samples.
type JobServerStats = session.Stats

// TenantServerStats is one tenant's slice of the same counters.
type TenantServerStats = session.TenantStats

// JobAction selects what a submitted job does with its final RDD.
type JobAction = engine.Action

// Job actions.
const (
	ActionCount       = engine.ActionCount
	ActionCollect     = engine.ActionCollect
	ActionMaterialize = engine.ActionMaterialize
)

// Typed session and engine errors, for errors.Is across wrapping.
var (
	// ErrOverload marks a submission shed fast by admission control.
	ErrOverload = session.ErrOverload
	// ErrDeadlineExceeded marks a job cancelled at deadline expiry.
	ErrDeadlineExceeded = session.ErrDeadlineExceeded
	// ErrServerClosed marks work rejected or abandoned at server shutdown.
	ErrServerClosed = session.ErrServerClosed
	// ErrJobCancelled marks a job withdrawn before completion and unwound
	// cooperatively by the engine.
	ErrJobCancelled = engine.ErrJobCancelled
	// ErrStorage marks persistent-storage failures.
	ErrStorage = engine.ErrStorage
	// ErrFetchFailed marks shuffle-fetch failures (handled internally by
	// stage resubmission; visible only when resubmission bounds exhaust).
	ErrFetchFailed = engine.ErrFetchFailed
)

// TenantStormFault is an open-loop arrival burst against one tenant session
// (fault-injected; requires a JobServer with a storm factory).
type TenantStormFault = fault.TenantStorm

// SlowTenantFault submits one poison job through a tenant session whose
// tasks run Factor times slower than normal.
type SlowTenantFault = fault.SlowTenant

// SubmitTo routes this RDD's action through a tenant session instead of
// running it inline: the submission passes admission control, waits its
// quota-weighted turn, and delivers asynchronously through opts.OnDone.
func (r *RDD) SubmitTo(t *TenantSession, action JobAction, opts JobSubmitOptions) *TenantJob {
	return t.Submit(r.r, action, opts)
}

// SetStormJobs installs the job builder that TenantStormFault events invoke:
// each burst arrival calls f with the target tenant index and a per-server
// storm sequence number and submits the returned action at the storm's
// priority.
func SetStormJobs(s *JobServer, f func(tenant, n int) (*RDD, JobAction)) {
	s.SetStormFactory(func(tenant, n int) (*internalRDD, JobAction) {
		r, a := f(tenant, n)
		return r.r, a
	})
}

// SetPoisonJobs installs the job builder that SlowTenantFault events invoke:
// f receives the target tenant index and the slowdown factor and returns the
// poison job submitted through that tenant's session.
func SetPoisonJobs(s *JobServer, f func(tenant int, factor float64) (*RDD, JobAction)) {
	s.SetPoisonFactory(func(tenant int, factor float64) (*internalRDD, JobAction) {
		r, a := f(tenant, factor)
		return r.r, a
	})
}

// NewJobServer opens a multi-tenant job server over this context's engine.
// When a fault schedule with session-layer events (TenantStormFault,
// SlowTenantFault) is armed, those events are wired to this server.
func (c *Context) NewJobServer(cfg JobServerConfig) *JobServer {
	s := session.Open(c.eng, cfg)
	if in := c.eng.Injector(); in != nil {
		in.ArmSession(c.eng.Loop(), s)
	}
	return s
}
