package engine

// Satellite contract for the plane's sequential fallback: exactly ONE fault
// knob — StorageErrorProb > 0 — forces the data plane sequential, because
// its per-operation RNG draws must happen in dispatch order. Every other
// fault kind is either scheduled at virtual times (draw-free during plane
// execution) or rolls on control-plane RNG streams, so the worker pool
// stays engaged and chaos runs can never silently go sequential. This test
// pins that predicate.

import (
	"testing"
	"time"

	"stark/internal/fault"
	"stark/internal/partition"
	"stark/internal/record"
)

func TestPoolEligibility(t *testing.T) {
	mk := func(s fault.Schedule, driverRecovery bool) *Engine {
		cfg := testConfig()
		cfg.Execution.Parallelism = 4
		cfg.Faults = s
		cfg.DriverRecovery = driverRecovery
		return New(cfg)
	}
	ms := time.Millisecond
	cases := []struct {
		name     string
		sched    fault.Schedule
		driver   bool
		wantPool bool
	}{
		{"no-faults", fault.Schedule{}, false, true},
		{"storage-error-prob", fault.Schedule{StorageErrorProb: 0.01}, false, false},
		{"crash", fault.Schedule{Crashes: []fault.Crash{{At: ms, Executor: 0, RestartAfter: ms}}}, false, true},
		{"straggler", fault.Schedule{Stragglers: []fault.Straggler{{At: ms, For: ms, Executor: 0, Factor: 3}}}, false, true},
		{"block-loss", fault.Schedule{BlockLoss: []fault.BlockLoss{{At: ms, Pick: 0}}}, false, true},
		{"block-corrupt", fault.Schedule{BlockCorrupt: []fault.BlockCorrupt{{At: ms, Pick: 0}}}, false, true},
		{"msg-drop", fault.Schedule{MsgDropProb: 0.5}, false, true},
		{"net-partition", fault.Schedule{Partitions: []fault.Partition{{At: ms, For: ms, Executor: 0}}}, false, true},
		{"net-delay", fault.Schedule{NetDelays: []fault.NetDelay{{At: ms, For: ms, Extra: ms}}}, false, true},
		{"driver-crash", fault.Schedule{DriverCrashes: []fault.DriverCrash{{At: ms, RestartAfter: ms}}}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mk(tc.sched, tc.driver)
			if got := e.poolEligible(8); got != tc.wantPool {
				t.Fatalf("%s: poolEligible(8) = %v, want %v", tc.name, got, tc.wantPool)
			}
			// Regardless of faults, a single plane never pools.
			if e.poolEligible(1) {
				t.Fatalf("%s: single-plane batch must not pool", tc.name)
			}
		})
	}
	// Parallelism 1 never pools, even fault-free.
	cfg := testConfig()
	cfg.Execution.Parallelism = 1
	if New(cfg).poolEligible(8) {
		t.Fatal("parallelism 1 must not pool")
	}
}

// TestEveryEventJoinsItsPlanes pins the event boundary: the planes an event
// dispatches run and join before the next event, even one at the same
// virtual instant. The last map task's finish starts the reduce stage; a
// probe scheduled at that instant must find the reduce planes already
// joined, as inline execution would leave them.
func TestEveryEventJoinsItsPlanes(t *testing.T) {
	cfg := testConfig()
	cfg.Execution.Parallelism = 1
	e := New(cfg)
	g := e.Graph()
	src := g.Source("src", dataset(400, 4), false)
	rbk := g.ReduceByKey(src, "sum", partition.NewHash(4), func(a, b any) any {
		x, _ := record.AsInt64(a)
		y, _ := record.AsInt64(b)
		return x + y
	})
	probes, pending := 0, 0
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind != "task-finish" {
			return
		}
		e.Loop().At(e.Now(), func() {
			probes++
			if len(e.batch) > 0 {
				pending++
			}
		})
	})
	n, _, err := e.Count(rbk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
	if probes == 0 {
		t.Fatal("no probe ran")
	}
	if pending > 0 {
		t.Fatalf("%d of %d same-instant probes saw dispatched planes not yet joined", pending, probes)
	}
}
