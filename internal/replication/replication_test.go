package replication

import (
	"testing"
	"testing/quick"
	"time"

	"stark/internal/cluster"
)

var k = cluster.UnitID{NS: 1, Unit: 3}

// unit returns k's state decayed to now, as the launch hooks see it.
func unit(p *Policy, k cluster.UnitID, now time.Duration) *unitState {
	st := p.state(k)
	st.decayTo(now, p.cfg.HalfLife)
	return st
}

func TestDefaultsApplied(t *testing.T) {
	p := NewPolicy(Config{})
	if p.cfg.MaxReplicas != 4 || p.cfg.HalfLife != 30*time.Second || p.cfg.DemandPerReplica != 8 {
		t.Fatalf("defaults not applied: %+v", p.cfg)
	}
}

func TestColdUnitHasOneReplica(t *testing.T) {
	p := NewPolicy(Config{})
	if got := p.TargetLocked(unit(p, k, 0)); got != 1 {
		t.Fatalf("target = %d", got)
	}
	if got := p.state(k).replicas; got != 1 {
		t.Fatalf("replicas = %d", got)
	}
}

func TestRemoteLaunchesGrowReplicas(t *testing.T) {
	p := NewPolicy(Config{DemandPerReplica: 4, MaxReplicas: 3})
	adopted := 0
	for i := 0; i < 10; i++ {
		if p.OnRemoteLaunch(k, time.Duration(i)*time.Millisecond) {
			adopted++
		}
	}
	if adopted == 0 {
		t.Fatal("hot unit never replicated")
	}
	if got := p.state(k).replicas; got != 3 {
		t.Fatalf("replicas = %d, want capped at 3", got)
	}
	// Past the cap, no further adoption.
	if p.OnRemoteLaunch(k, 20*time.Millisecond) {
		t.Fatal("adopted beyond MaxReplicas")
	}
}

func TestDemandDecays(t *testing.T) {
	p := NewPolicy(Config{HalfLife: time.Second, DemandPerReplica: 4})
	for i := 0; i < 8; i++ {
		p.OnLocalLaunch(k, 0)
	}
	if d := unit(p, k, 0).demand; d != 8 {
		t.Fatalf("demand = %v", d)
	}
	if d := unit(p, k, time.Second).demand; d < 3.9 || d > 4.1 {
		t.Fatalf("demand after one half-life = %v, want ~4", d)
	}
	if d := unit(p, k, 10*time.Second).demand; d > 0.1 {
		t.Fatalf("demand after 10 half-lives = %v", d)
	}
}

func TestDeReplicationAfterCooling(t *testing.T) {
	p := NewPolicy(Config{HalfLife: time.Second, DemandPerReplica: 4, MaxReplicas: 4})
	now := time.Duration(0)
	for i := 0; i < 12; i++ {
		p.OnRemoteLaunch(k, now)
	}
	if p.state(k).replicas < 2 {
		t.Fatalf("setup: replicas = %d", p.state(k).replicas)
	}
	if p.ShouldDeReplicate(k, now) {
		t.Fatal("hot unit flagged for de-replication")
	}
	// After demand decays, replicas exceed the target.
	later := now + 20*time.Second
	if !p.ShouldDeReplicate(k, later) {
		t.Fatal("cooled unit not flagged for de-replication")
	}
	before := p.state(k).replicas
	p.Dropped(k)
	if p.state(k).replicas != before-1 {
		t.Fatal("Dropped did not decrement")
	}
	// The count never drops below one.
	for i := 0; i < 10; i++ {
		p.Dropped(k)
	}
	if p.state(k).replicas != 1 {
		t.Fatalf("replicas = %d, want floor of 1", p.state(k).replicas)
	}
}

func TestTargetMonotoneInDemand(t *testing.T) {
	p := NewPolicy(Config{DemandPerReplica: 5, MaxReplicas: 8, HalfLife: time.Hour})
	prev := p.TargetLocked(unit(p, k, 0))
	for i := 0; i < 40; i++ {
		p.OnLocalLaunch(k, 0)
		cur := p.TargetLocked(unit(p, k, 0))
		if cur < prev {
			t.Fatalf("target decreased while demand grew: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev != 8 {
		t.Fatalf("target = %d, want cap 8", prev)
	}
}

func TestReplicasNeverExceedCapQuick(t *testing.T) {
	f := func(events []bool, unit uint8) bool {
		p := NewPolicy(Config{MaxReplicas: 3, DemandPerReplica: 2, HalfLife: time.Second})
		key := cluster.UnitID{NS: 2, Unit: int(unit)}
		now := time.Duration(0)
		for _, remote := range events {
			now += 10 * time.Millisecond
			if remote {
				p.OnRemoteLaunch(key, now)
			} else {
				p.OnLocalLaunch(key, now)
			}
			if r := p.state(key).replicas; r < 1 || r > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitsIndependent(t *testing.T) {
	p := NewPolicy(Config{DemandPerReplica: 2, MaxReplicas: 4, HalfLife: time.Hour})
	hot := cluster.UnitID{NS: 1, Unit: 1}
	cold := cluster.UnitID{NS: 1, Unit: 2}
	for i := 0; i < 10; i++ {
		p.OnRemoteLaunch(hot, 0)
	}
	if p.TargetLocked(unit(p, cold, 0)) != 1 {
		t.Fatal("cold unit affected by hot unit")
	}
	if p.TargetLocked(unit(p, hot, 0)) <= p.TargetLocked(unit(p, cold, 0)) {
		t.Fatal("hot unit target not above cold")
	}
}
