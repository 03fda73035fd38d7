package session

import "errors"

// Typed sentinel errors for the multi-tenant job server. They are designed
// for errors.Is across wrapping: every rejection or cancellation the server
// produces carries exactly one of these in its chain (plus the engine's
// ErrJobCancelled when an already-running job was unwound), so callers
// branch on error identity, never on message text.
var (
	// ErrOverload marks a submission shed by admission control: a queue
	// bound was exceeded and this job was (or displaced) the
	// lowest-priority queued work. Shed jobs fail fast — they never consume
	// cluster time.
	ErrOverload = errors.New("session: overload, job shed")

	// ErrDeadlineExceeded marks a job cancelled because its deadline passed
	// before completion. Queued jobs fail directly; running jobs are unwound
	// through the engine's cooperative cancellation, so the chain also
	// carries engine.ErrJobCancelled.
	ErrDeadlineExceeded = errors.New("session: deadline exceeded")

	// ErrServerClosed marks a submission rejected, or an in-flight job
	// abandoned, because the server shut down.
	ErrServerClosed = errors.New("session: server closed")
)
