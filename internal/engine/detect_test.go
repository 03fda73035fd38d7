package engine

import (
	"testing"
	"time"

	"stark/internal/config"
	netsim "stark/internal/net"
	"stark/internal/partition"
)

// hbConfig is testConfig with heartbeat detection on tight timeouts and a
// small-but-nonzero control-network latency.
func hbConfig() Config {
	cfg := testConfig()
	cfg.Network = netsim.Config{BaseDelay: 50 * time.Microsecond}
	cfg.Heartbeat = config.Heartbeat{
		Enabled:      true,
		Interval:     2 * time.Millisecond,
		SuspectAfter: 6 * time.Millisecond,
		DeadAfter:    15 * time.Millisecond,
	}
	return cfg
}

// TestPartitionHealRejoinNewEpoch is the partition round-trip contract: a
// partitioned executor is declared dead on missed heartbeats (bumping its
// epoch and resubmitting its tasks), its late results are rejected as
// stale, and after the partition heals its next heartbeat rejoins it —
// schedulable again, under the new epoch — while every job's result stays
// correct.
func TestPartitionHealRejoinNewEpoch(t *testing.T) {
	e := New(hbConfig())
	epoch0 := e.execEpoch[2]
	e.Loop().At(time.Millisecond, func() { e.PartitionExecutor(2) })
	e.Loop().At(40*time.Millisecond, func() { e.HealExecutor(2) })

	g := e.Graph()
	src := g.Source("src", dataset(4000, 16), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(16))
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("count under partition: %v", err)
	}
	if n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}

	rec := e.Recovery()
	if rec.DeadDeclarations == 0 {
		t.Fatal("partitioned executor was never declared dead")
	}
	if rec.Suspicions == 0 {
		t.Fatal("no suspicion preceded the dead declaration")
	}
	if e.execEpoch[2] <= epoch0 {
		t.Fatalf("epoch = %d, want > %d after dead declaration", e.execEpoch[2], epoch0)
	}
	if d := rec.MaxDetectionDelay(); d < hbConfig().Heartbeat.DeadAfter {
		t.Fatalf("detection delay %v below DeadAfter %v", d, hbConfig().Heartbeat.DeadAfter)
	}
	if rec.StaleEpochRejections == 0 {
		t.Fatal("no stale-epoch result was rejected — the old incarnation's results went unfenced")
	}
	epochDead := e.execEpoch[2]

	// A second job restarts the heartbeat plane; the healed executor's first
	// beat rejoins it under the (new) epoch and it serves tasks again.
	n2, jm, err := e.Count(pb)
	if err != nil {
		t.Fatalf("post-heal count: %v", err)
	}
	if n2 != 4000 {
		t.Fatalf("post-heal count = %d, want 4000", n2)
	}
	rec = e.Recovery()
	if rec.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", rec.Rejoins)
	}
	if got := e.execView[2].String(); got != "alive" {
		t.Fatalf("view = %q after heal+rejoin, want alive", got)
	}
	if e.execEpoch[2] < epochDead {
		t.Fatalf("epoch went backwards: %d < %d", e.execEpoch[2], epochDead)
	}
	if !e.schedulable(2) {
		t.Fatal("rejoined executor must be schedulable")
	}
	served := false
	for _, tm := range jm.Tasks {
		if tm.Executor == 2 {
			served = true
		}
	}
	if !served {
		t.Fatal("rejoined executor served no tasks in the post-heal job")
	}
}

// TestTransientPartitionOnlySuspects: a partition shorter than DeadAfter
// causes a suspicion that the next heartbeat clears — no dead declaration,
// no task resubmission, correct results.
func TestTransientPartitionOnlySuspects(t *testing.T) {
	e := New(hbConfig())
	e.Loop().At(time.Millisecond, func() { e.PartitionExecutor(2) })
	e.Loop().At(10*time.Millisecond, func() { e.HealExecutor(2) })
	g := e.Graph()
	src := g.Source("src", dataset(4000, 16), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(16))
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
	rec := e.Recovery()
	if rec.Suspicions == 0 {
		t.Fatal("an 9ms silence must trip the 6ms suspicion window")
	}
	if rec.SuspicionsCleared == 0 {
		t.Fatal("the post-heal heartbeat never cleared the suspicion")
	}
	if rec.DeadDeclarations != 0 {
		t.Fatalf("dead declarations = %d, want 0 for a transient partition", rec.DeadDeclarations)
	}
	if got := e.execView[2].String(); got != "alive" {
		t.Fatalf("view = %q, want alive", got)
	}
}

// TestCrashDetectedByMissedHeartbeats: with detection on, a crash is NOT
// handled omnisciently — the driver only reacts once DeadAfter of silence
// has elapsed, so the measured recovery delay includes detection latency.
// The restarted process announces itself with a new incarnation and rejoins
// under a fresh epoch.
func TestCrashDetectedByMissedHeartbeats(t *testing.T) {
	e := New(hbConfig())
	inc0 := e.Cluster().Executor(2).Incarnation()
	e.Loop().At(time.Millisecond, func() { e.KillExecutor(2) })
	e.Loop().At(40*time.Millisecond, func() { e.RestartExecutor(2) })
	g := e.Graph()
	src := g.Source("src", dataset(4000, 16), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(16))
	n, _, err := e.Count(pb)
	if err != nil {
		t.Fatalf("count across crash: %v", err)
	}
	if n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
	rec := e.Recovery()
	if rec.DeadDeclarations == 0 {
		t.Fatal("crashed executor was never declared dead via heartbeats")
	}
	if len(rec.RecoveryDelays) == 0 {
		t.Fatal("no recovery delay measured")
	}
	if d := rec.MaxRecoveryDelay(); d < hbConfig().Heartbeat.DeadAfter {
		t.Fatalf("recovery delay %v must include the %v detection window",
			d, hbConfig().Heartbeat.DeadAfter)
	}
	if got := e.Cluster().Executor(2).Incarnation(); got != inc0+1 {
		t.Fatalf("incarnation = %d, want %d after restart", got, inc0+1)
	}
}
