package engine

import (
	"errors"
	"testing"
	"time"

	"stark/internal/partition"
)

// countingCloser records how often the journal sink was closed — the handle
// hygiene the shutdown contract promises: exactly once, no matter how many
// times or in which driver state Close runs.
type countingCloser struct {
	writes int
	closes int
	failAt int // nth write that fails (0 = never)
}

func (c *countingCloser) Write(p []byte) (int, error) {
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func (c *countingCloser) Close() error {
	c.closes++
	return nil
}

// TestCloseIdempotent: Close fails in-flight jobs with a typed
// ErrJobCancelled chain, closes the journal sink exactly once, and every
// later Close — and every later submission, crash, or restart — is a
// harmless no-op.
func TestCloseIdempotent(t *testing.T) {
	e := New(driverTestConfig())
	sink := &countingCloser{}
	e.jrn.SetSink(sink)
	g := e.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))

	var inflight error
	done := false
	e.SubmitJob(pb, ActionCount, func(r JobResult) {
		inflight = r.Err
		done = true
	})
	e.Loop().At(time.Millisecond, func() {
		if err := e.Close(); err != nil {
			t.Errorf("first Close: %v", err)
		}
	})
	e.Loop().Run()

	if !done {
		t.Fatal("in-flight job never delivered a result")
	}
	if !errors.Is(inflight, ErrJobCancelled) {
		t.Fatalf("in-flight job error = %v, want ErrJobCancelled chain", inflight)
	}
	if sink.closes != 1 {
		t.Fatalf("journal sink closed %d times, want exactly 1", sink.closes)
	}

	// Double Close: no panic, no second sink close, same (nil) error.
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sink.closes != 1 {
		t.Fatalf("double Close leaked a second sink close (%d)", sink.closes)
	}

	// Submissions after Close fail fast with the same typed chain.
	var late error
	e.SubmitJob(pb, ActionCount, func(r JobResult) { late = r.Err })
	if !errors.Is(late, ErrJobCancelled) {
		t.Fatalf("post-close submission error = %v, want ErrJobCancelled chain", late)
	}
	if rec := e.Recovery(); rec.JobCancellations != 1 {
		t.Fatalf("JobCancellations = %d, want 1 (the in-flight job)", rec.JobCancellations)
	}

	// Driver fault surface after Close: both ignore the closed engine.
	e.CrashDriver(0)
	if e.driverDown {
		t.Fatal("CrashDriver acted on a closed driver")
	}
	e.RestartDriver()
}

// TestCloseDuringCrashRecovery: Close landing inside a crash window (driver
// down, submissions buffered) must fail the buffered jobs with the typed
// chain, close the journal sink exactly once, and leave RestartDriver a
// no-op — the shutdown wins over the in-progress recovery.
func TestCloseDuringCrashRecovery(t *testing.T) {
	e := New(driverTestConfig())
	sink := &countingCloser{}
	e.jrn.SetSink(sink)
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))

	var buffered error
	e.Loop().At(time.Millisecond, func() { e.CrashDriver(0) })
	e.Loop().At(2*time.Millisecond, func() {
		e.SubmitJob(pb, ActionCount, func(r JobResult) { buffered = r.Err })
		if !e.driverDown {
			t.Error("driver expected down at submit time")
		}
	})
	e.Loop().At(3*time.Millisecond, func() {
		if err := e.Close(); err != nil {
			t.Errorf("Close during crash window: %v", err)
		}
	})
	// The scheduled restart from a recovery plan that raced the shutdown.
	e.Loop().At(4*time.Millisecond, func() { e.RestartDriver() })
	e.Loop().Run()

	if !errors.Is(buffered, ErrJobCancelled) {
		t.Fatalf("buffered job error = %v, want ErrJobCancelled chain", buffered)
	}
	if e.driverDown {
		t.Fatal("closed driver reports down: RestartDriver should not have flipped state")
	}
	if sink.closes != 1 {
		t.Fatalf("journal sink closed %d times, want exactly 1", sink.closes)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close after close-during-recovery: %v", err)
	}
	if sink.closes != 1 {
		t.Fatalf("repeat Close re-closed the sink (%d)", sink.closes)
	}
}

// TestCloseLatchesSinkWriteError: a failing sink neither panics Append nor
// loses the diagnosis — the first write error is latched and surfaces from
// Close, idempotently.
func TestCloseLatchesSinkWriteError(t *testing.T) {
	e := New(driverTestConfig())
	sink := &countingCloser{failAt: 1}
	e.jrn.SetSink(sink)
	g := e.Graph()
	src := g.Source("src", dataset(100, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))
	if _, _, err := e.Count(pb); err != nil {
		t.Fatalf("count: %v", err)
	}
	err := e.Close()
	if err == nil {
		t.Fatal("Close did not surface the latched sink write error")
	}
	if again := e.Close(); again != err {
		t.Fatalf("repeat Close returned %v, want the same latched error %v", again, err)
	}
}
