package engine

// Satellite contract for the plane's sequential fallback: exactly ONE fault
// knob — StorageErrorProb > 0 — forces the data plane sequential, because
// its per-operation RNG draws must happen in dispatch order. Every other
// fault kind is either scheduled at virtual times (draw-free during plane
// execution) or rolls on control-plane RNG streams, so the worker pool
// stays engaged and batch coarsening can never silently serialize chaos
// runs. This test pins that predicate.

import (
	"testing"
	"time"

	"stark/internal/fault"
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
