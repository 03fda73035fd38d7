package experiments

import (
	"io"
	"time"

	"stark"
	"stark/internal/trending"
)

// RecoveryResult measures actual failure-recovery delay against the
// configured bound — the property Sec. III-D promises ("bounded failure
// recovery delay"). The paper reports the checkpoint *volume* (Fig. 18);
// this companion experiment validates the *bound* itself by killing an
// executor after the trending app ran and timing the job that recomputes
// the lost partitions.
type RecoveryResult struct {
	Bounds []time.Duration
	// Recovery[i] is the post-failure job makespan under Bounds[i].
	Recovery []time.Duration
	// NoCheckpoint is the same measurement with checkpointing disabled.
	NoCheckpoint time.Duration
	// Baseline is the pre-failure steady job makespan.
	Baseline time.Duration
}

// DefaultRecoveryBounds are the bounds starkbench compares: below, at and
// above DefaultCheckpoint's 3.2 s.
func DefaultRecoveryBounds() []time.Duration {
	return []time.Duration{time.Second, 3200 * time.Millisecond, 10 * time.Second}
}

// RunRecovery runs the trending app for the configured steps under each
// recovery bound, fails an executor, and measures the recomputation job.
func RunRecovery(cfg CheckpointConfig, bounds []time.Duration) (RecoveryResult, error) {
	res := RecoveryResult{Bounds: bounds}
	run := func(opts ...stark.Option) (recovery, baseline time.Duration, err error) {
		var last *stark.RDD
		ctx, err := runTrending(cfg, func(_ *stark.Context, _ int, out trending.StepRDDs) { last = out.Res }, opts...)
		if err != nil {
			return 0, 0, err
		}
		// Steady-state job before the failure.
		_, jmBase, err := last.Filter(func(stark.Record) bool { return true }).Count()
		if err != nil {
			return 0, 0, err
		}
		// Fail the executor holding the first result partition.
		ctx.KillExecutor(0)
		_, jmRec, err := last.Filter(func(stark.Record) bool { return true }).Count()
		if err != nil {
			return 0, 0, err
		}
		return jmRec.Makespan(), jmBase.Makespan(), nil
	}

	for _, b := range bounds {
		rec, base, err := run(stark.WithCheckpointing(b, 1))
		if err != nil {
			return res, err
		}
		res.Recovery = append(res.Recovery, rec)
		res.Baseline = base
	}
	rec, _, err := run()
	if err != nil {
		return res, err
	}
	res.NoCheckpoint = rec
	return res, nil
}

// Print emits the recovery table.
func (r RecoveryResult) Print(w io.Writer) {
	fprintf(w, "Recovery: post-failure job delay vs checkpoint bound r (companion to Sec. III-D)\n")
	fprintf(w, "  steady-state job (no failure): %s\n", fmtSec(r.Baseline))
	for i, b := range r.Bounds {
		fprintf(w, "  bound %-8v recovery %s\n", b, fmtSec(r.Recovery[i]))
	}
	fprintf(w, "  no checkpointing: recovery %s\n", fmtSec(r.NoCheckpoint))
}
