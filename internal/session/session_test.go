package session

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"stark/internal/engine"
	"stark/internal/rdd"
	"stark/internal/record"
)

// testConfig returns a small fast cluster.
func testConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Cluster.NumExecutors = 4
	cfg.Cluster.SlotsPerExecutor = 2
	cfg.Cluster.MemoryPerExecutor = 1 << 30
	return cfg
}

// dataset builds n records over parts partitions.
func dataset(n, parts int) [][]record.Record {
	out := make([][]record.Record, parts)
	for i := 0; i < n; i++ {
		out[i%parts] = append(out[i%parts], record.Pair(fmt.Sprintf("k%04d", i), int64(i)))
	}
	return out
}

// countJob builds a distinct small count workload.
func countJob(g *rdd.Graph, name string, parts int) *rdd.RDD {
	src := g.Source(name, dataset(40*parts, parts), true)
	return g.Map(src, name+"-m", false, func(r record.Record) record.Record { return r })
}

// slowJob builds a workload whose tasks cost roughly factor map passes.
func slowJob(g *rdd.Graph, name string, parts int, factor float64) *rdd.RDD {
	src := g.Source(name, dataset(40*parts, parts), true)
	return g.MapPartitions(src, name+"-slow", false, factor,
		func(in []record.Record) []record.Record { return in })
}

func TestBasicCompletion(t *testing.T) {
	e := engine.New(testConfig())
	s := Open(e, DefaultConfig())
	a := s.RegisterTenant("a", 1)
	b := s.RegisterTenant("b", 1)

	var got []Result
	for i, tn := range []*Tenant{a, b, a} {
		final := countJob(e.Graph(), fmt.Sprintf("j%d", i), 4)
		tn.Submit(final, engine.ActionCount, SubmitOptions{
			OnDone: func(r Result) { got = append(got, r) },
		})
	}
	e.Loop().Run()

	if len(got) != 3 {
		t.Fatalf("delivered %d results, want 3", len(got))
	}
	for _, r := range got {
		if r.Err != nil {
			t.Fatalf("tenant %s: %v", r.Tenant, r.Err)
		}
		if r.Count != 160 {
			t.Fatalf("tenant %s count = %d, want 160", r.Tenant, r.Count)
		}
		if r.Latency <= 0 {
			t.Fatalf("tenant %s latency = %v", r.Tenant, r.Latency)
		}
	}
	st := s.Stats()
	if st.Submitted != 3 || st.Admitted != 3 || st.Completed != 3 || st.Dispatched != 3 {
		t.Fatalf("stats = %+v", st)
	}
	ts := s.TenantStats()
	if ts[0].Completed != 2 || ts[1].Completed != 1 {
		t.Fatalf("tenant stats = %+v", ts)
	}
}

func TestDedupComputesOnce(t *testing.T) {
	e := engine.New(testConfig())
	s := Open(e, DefaultConfig())
	a := s.RegisterTenant("a", 1)
	b := s.RegisterTenant("b", 1)

	hot := countJob(e.Graph(), "hot", 4)
	var ra, rb Result
	a.Submit(hot, engine.ActionCount, SubmitOptions{OnDone: func(r Result) { ra = r }})
	b.Submit(hot, engine.ActionCount, SubmitOptions{OnDone: func(r Result) { rb = r }})
	e.Loop().Run()

	if ra.Err != nil || rb.Err != nil {
		t.Fatalf("errs: %v / %v", ra.Err, rb.Err)
	}
	if ra.Count != rb.Count {
		t.Fatalf("counts diverge: %d vs %d", ra.Count, rb.Count)
	}
	if ra.Shared || !rb.Shared {
		t.Fatalf("shared flags = %v/%v, want false/true", ra.Shared, rb.Shared)
	}
	st := s.Stats()
	if st.DedupSubscriptions != 1 {
		t.Fatalf("dedup subscriptions = %d, want 1", st.DedupSubscriptions)
	}
	if st.DuplicateComputations != 0 {
		t.Fatalf("duplicate computations = %d, want 0", st.DuplicateComputations)
	}
	if jobs := e.Stats().Jobs; jobs != 1 {
		t.Fatalf("engine ran %d jobs, want 1 (dedup)", jobs)
	}
}

func TestDRRFairnessByQuota(t *testing.T) {
	e := engine.New(testConfig())
	cfg := DefaultConfig()
	cfg.MaxActive = 1 // serialize so dispatch order is the fairness signal
	s := Open(e, cfg)
	heavy := s.RegisterTenant("heavy", 3)
	light := s.RegisterTenant("light", 1)

	var order []string
	for i := 0; i < 8; i++ {
		for _, tn := range []*Tenant{light, heavy} {
			tn := tn
			final := countJob(e.Graph(), fmt.Sprintf("%s%d", tn.Name(), i), 4)
			tn.Submit(final, engine.ActionCount, SubmitOptions{
				OnDone: func(r Result) {
					if r.Err != nil {
						t.Errorf("%s: %v", tn.Name(), r.Err)
					}
					order = append(order, tn.Name())
				},
			})
		}
	}
	e.Loop().Run()

	if len(order) != 16 {
		t.Fatalf("completed %d, want 16", len(order))
	}
	// With quotas 3:1 over equal-cost jobs, the first half of completions
	// must favor the heavy tenant roughly 3:1.
	h := 0
	for _, n := range order[:8] {
		if n == "heavy" {
			h++
		}
	}
	if h < 5 {
		t.Fatalf("heavy served %d of first 8 completions, want >= 5 (order %v)", h, order)
	}
}

func TestDeadlineQueued(t *testing.T) {
	e := engine.New(testConfig())
	cfg := DefaultConfig()
	cfg.MaxActive = 1
	s := Open(e, cfg)
	a := s.RegisterTenant("a", 1)

	long := slowJob(e.Graph(), "long", 4, 50)
	a.Submit(long, engine.ActionCount, SubmitOptions{})
	var r Result
	quick := countJob(e.Graph(), "quick", 4)
	a.Submit(quick, engine.ActionCount, SubmitOptions{
		Deadline: time.Millisecond, // expires while still queued
		OnDone:   func(res Result) { r = res },
	})
	e.Loop().Run()

	if !errors.Is(r.Err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", r.Err)
	}
	if errors.Is(r.Err, engine.ErrJobCancelled) {
		t.Fatalf("queued job never reached the engine, chain should not carry ErrJobCancelled: %v", r.Err)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("deadline count = %d", st.DeadlineExceeded)
	}
}

func TestDeadlineRunningUnwinds(t *testing.T) {
	e := engine.New(testConfig())
	s := Open(e, DefaultConfig())
	a := s.RegisterTenant("a", 1)

	long := slowJob(e.Graph(), "long", 8, 200)
	var r Result
	a.Submit(long, engine.ActionCount, SubmitOptions{
		Deadline: 5 * time.Millisecond,
		OnDone:   func(res Result) { r = res },
	})
	e.Loop().Run()

	if !errors.Is(r.Err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", r.Err)
	}
	if !errors.Is(r.Err, engine.ErrJobCancelled) {
		t.Fatalf("running job must unwind through engine cancellation: %v", r.Err)
	}
	if got := e.Recovery().JobCancellations; got != 1 {
		t.Fatalf("engine job cancellations = %d, want 1", got)
	}
	// The unwound job's slots freed: a follow-up job still completes.
	after := countJob(e.Graph(), "after", 4)
	var r2 Result
	a.Submit(after, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r2 = res }})
	e.Loop().Run()
	if r2.Err != nil || r2.Count != 160 {
		t.Fatalf("post-cancel job: count=%d err=%v", r2.Count, r2.Err)
	}
}

func TestDeadlineOnSubscriberLeavesPrimary(t *testing.T) {
	e := engine.New(testConfig())
	s := Open(e, DefaultConfig())
	a := s.RegisterTenant("a", 1)
	b := s.RegisterTenant("b", 1)

	hot := slowJob(e.Graph(), "hot", 4, 50)
	var ra, rb Result
	a.Submit(hot, engine.ActionCount, SubmitOptions{OnDone: func(r Result) { ra = r }})
	b.Submit(hot, engine.ActionCount, SubmitOptions{
		Deadline: time.Millisecond,
		OnDone:   func(r Result) { rb = r },
	})
	e.Loop().Run()

	if !errors.Is(rb.Err, ErrDeadlineExceeded) {
		t.Fatalf("subscriber err = %v, want ErrDeadlineExceeded", rb.Err)
	}
	if ra.Err != nil {
		t.Fatalf("primary must survive its subscriber's deadline: %v", ra.Err)
	}
	if ra.Count != 160 {
		t.Fatalf("primary count = %d", ra.Count)
	}
}

func TestOverloadShedsLowestPriority(t *testing.T) {
	e := engine.New(testConfig())
	cfg := DefaultConfig()
	cfg.MaxActive = 1
	cfg.MaxQueuedTotal = 2
	cfg.MaxQueuedPerTenant = 2
	s := Open(e, cfg)
	a := s.RegisterTenant("a", 1)

	// One running + two queued low-priority jobs fill the server.
	a.Submit(slowJob(e.Graph(), "run", 4, 50), engine.ActionCount, SubmitOptions{Priority: 5})
	var lowA, lowB, high, extra Result
	a.Submit(countJob(e.Graph(), "lowA", 4), engine.ActionCount,
		SubmitOptions{Priority: 1, OnDone: func(r Result) { lowA = r }})
	a.Submit(countJob(e.Graph(), "lowB", 4), engine.ActionCount,
		SubmitOptions{Priority: 2, OnDone: func(r Result) { lowB = r }})

	// A higher-priority arrival sheds the lowest-priority queued job fast.
	a.Submit(countJob(e.Graph(), "high", 4), engine.ActionCount,
		SubmitOptions{Priority: 4, OnDone: func(r Result) { high = r }})
	if !lowA.Shed() {
		t.Fatalf("lowA should have shed immediately, got %+v", lowA)
	}
	if !errors.Is(lowA.Err, ErrOverload) {
		t.Fatalf("victim err = %v, want ErrOverload", lowA.Err)
	}

	// An arrival that is itself lowest-priority fails fast instead.
	a.Submit(countJob(e.Graph(), "extra", 4), engine.ActionCount,
		SubmitOptions{Priority: 0, OnDone: func(r Result) { extra = r }})
	if !errors.Is(extra.Err, ErrOverload) {
		t.Fatalf("low-priority arrival err = %v, want ErrOverload", extra.Err)
	}

	e.Loop().Run()
	if lowB.Err != nil || high.Err != nil {
		t.Fatalf("survivors must complete: lowB=%v high=%v", lowB.Err, high.Err)
	}
	st := s.Stats()
	if st.Shed != 2 {
		t.Fatalf("shed = %d, want 2", st.Shed)
	}
}

func TestMemoryBudgetSheds(t *testing.T) {
	e := engine.New(testConfig())
	cfg := DefaultConfig()
	cfg.MemoryBudget = 2 << 20
	s := Open(e, cfg)
	a := s.RegisterTenant("a", 1)

	var r Result
	big := countJob(e.Graph(), "big", 8) // pins 8 MiB > 2 MiB budget
	a.Submit(big, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r = res }})
	if !errors.Is(r.Err, ErrOverload) {
		t.Fatalf("over-budget submission err = %v, want ErrOverload", r.Err)
	}
	small := countJob(e.Graph(), "small", 2)
	var r2 Result
	a.Submit(small, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r2 = res }})
	e.Loop().Run()
	if r2.Err != nil {
		t.Fatalf("within-budget submission failed: %v", r2.Err)
	}
}

// Shed reports whether the result carries ErrOverload (test helper).
func (r Result) Shed() bool { return errors.Is(r.Err, ErrOverload) }

func TestCloseFailsQueuedAndCancelsRunning(t *testing.T) {
	e := engine.New(testConfig())
	cfg := DefaultConfig()
	cfg.MaxActive = 1
	s := Open(e, cfg)
	a := s.RegisterTenant("a", 1)

	var running, queued, late Result
	a.Submit(slowJob(e.Graph(), "run", 4, 50), engine.ActionCount,
		SubmitOptions{OnDone: func(r Result) { running = r }})
	a.Submit(countJob(e.Graph(), "queued", 4), engine.ActionCount,
		SubmitOptions{OnDone: func(r Result) { queued = r }})

	s.Close()
	s.Close() // idempotent

	if !errors.Is(queued.Err, ErrServerClosed) {
		t.Fatalf("queued err = %v, want ErrServerClosed", queued.Err)
	}
	if !errors.Is(running.Err, ErrServerClosed) || !errors.Is(running.Err, engine.ErrJobCancelled) {
		t.Fatalf("running err = %v, want ErrServerClosed via engine cancellation", running.Err)
	}
	a.Submit(countJob(e.Graph(), "late", 4), engine.ActionCount,
		SubmitOptions{OnDone: func(r Result) { late = r }})
	if !errors.Is(late.Err, ErrServerClosed) {
		t.Fatalf("post-close err = %v, want ErrServerClosed", late.Err)
	}
	e.Loop().Run() // must not wedge or double-deliver
	if !s.Closed() {
		t.Fatal("Closed() = false")
	}
}

// TestTrackClusterMemorySheds couples the admission ledger to the cluster's
// live effective capacity: a job that fits the static budget is shed once a
// MemPressure window shrinks the executors underneath it.
func TestTrackClusterMemorySheds(t *testing.T) {
	ecfg := testConfig()
	ecfg.Cluster.MemoryPerExecutor = 1 << 19 // 4 executors -> 2 MiB total
	e := engine.New(ecfg)
	cfg := DefaultConfig()
	cfg.MemoryBudget = 1 << 40 // effectively unlimited static budget
	cfg.TrackClusterMemory = true
	s := Open(e, cfg)
	a := s.RegisterTenant("a", 1)

	var r Result
	fits := countJob(e.Graph(), "fits", 2) // pins 2 MiB = capacity
	a.Submit(fits, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r = res }})
	e.Loop().Run()
	if r.Err != nil {
		t.Fatalf("capacity-fitting submission failed: %v", r.Err)
	}

	// Squeeze every executor to a quarter capacity: the same shape of job
	// now exceeds the cluster's effective memory and must shed up front.
	for i := 0; i < 4; i++ {
		e.SetMemPressure(i, 0.25)
	}
	var r2 Result
	again := countJob(e.Graph(), "again", 2)
	a.Submit(again, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r2 = res }})
	if !errors.Is(r2.Err, ErrOverload) {
		t.Fatalf("submission under mem pressure err = %v, want ErrOverload", r2.Err)
	}

	// Releasing the pressure restores admission.
	for i := 0; i < 4; i++ {
		e.SetMemPressure(i, 1)
	}
	var r3 Result
	after := countJob(e.Graph(), "after", 2)
	a.Submit(after, engine.ActionCount, SubmitOptions{OnDone: func(res Result) { r3 = res }})
	e.Loop().Run()
	if r3.Err != nil {
		t.Fatalf("submission after pressure release failed: %v", r3.Err)
	}
}
