// Package replication implements Stark's contention-aware replication
// policy (paper Sec. III-C3). Collection partitions receive time-varying,
// non-uniform computational demand; the policy decides how many cached
// replicas each unit deserves and which replicas to retire, based on two
// signals:
//
//   - failed locality: a task for unit α launched remotely because α's
//     executors were busy — evidence that α is hot (or its executors are
//     oversubscribed), so α earned a new replica;
//   - contention: an executor hosting many distinct units catalyzes cache
//     eviction and makes locality harder for everyone, so cold units should
//     de-replicate from it first.
//
// The engine feeds launch events in; the policy answers "should this
// remote launch be adopted as a replica?" and "which replica should unit α
// give up?". Demand is tracked with an exponentially decayed counter per
// unit, so bursts age out. A unit is named by cluster.UnitID, the same key
// the cluster's unit index and the dag eviction policy use.
package replication

import (
	"math"
	"sync"
	"time"

	"stark/internal/cluster"
)

// Config bounds the policy.
type Config struct {
	// MaxReplicas caps replicas per unit.
	MaxReplicas int
	// HalfLife is the decay half-life of the demand counters.
	HalfLife time.Duration
	// DemandPerReplica is how much decayed demand justifies one replica
	// beyond the first.
	DemandPerReplica float64
}

// DefaultConfig returns moderate bounds.
func DefaultConfig() Config {
	return Config{
		MaxReplicas:      4,
		HalfLife:         30 * time.Second,
		DemandPerReplica: 8,
	}
}

type unitState struct {
	demand    float64
	updatedAt time.Duration
	replicas  int
}

// Policy tracks per-unit demand on the virtual timeline. It is safe for
// concurrent use.
type Policy struct {
	mu    sync.Mutex
	cfg   Config
	units map[cluster.UnitID]*unitState
}

// NewPolicy builds a policy; zero-valued config fields fall back to
// defaults.
func NewPolicy(cfg Config) *Policy {
	def := DefaultConfig()
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = def.MaxReplicas
	}
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = def.HalfLife
	}
	if cfg.DemandPerReplica <= 0 {
		cfg.DemandPerReplica = def.DemandPerReplica
	}
	return &Policy{cfg: cfg, units: make(map[cluster.UnitID]*unitState)}
}

func (p *Policy) state(k cluster.UnitID) *unitState {
	st, ok := p.units[k]
	if !ok {
		st = &unitState{replicas: 1}
		p.units[k] = st
	}
	return st
}

// decayTo ages a unit's demand to virtual time now.
func (st *unitState) decayTo(now time.Duration, halfLife time.Duration) {
	if now <= st.updatedAt {
		return
	}
	dt := now - st.updatedAt
	st.demand *= math.Exp2(-float64(dt) / float64(halfLife))
	st.updatedAt = now
}

// OnLocalLaunch records a data-local task launch for the unit at virtual
// time now.
func (p *Policy) OnLocalLaunch(k cluster.UnitID, now time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(k)
	st.decayTo(now, p.cfg.HalfLife)
	st.demand++
}

// OnRemoteLaunch records a failed-locality launch — the paper's replication
// signal — and reports whether the executor that ran the task should be
// adopted as a replica.
func (p *Policy) OnRemoteLaunch(k cluster.UnitID, now time.Duration) (adopt bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(k)
	st.decayTo(now, p.cfg.HalfLife)
	// Remote launches signal contention strongly.
	st.demand += 2
	if st.replicas >= p.cfg.MaxReplicas {
		return false
	}
	if st.replicas < p.TargetLocked(st) {
		st.replicas++
		return true
	}
	return false
}

// TargetLocked computes the replica target for a unit's current demand.
// Callers hold the mutex.
func (p *Policy) TargetLocked(st *unitState) int {
	t := 1 + int(st.demand/p.cfg.DemandPerReplica)
	if t > p.cfg.MaxReplicas {
		t = p.cfg.MaxReplicas
	}
	return t
}

// ShouldDeReplicate reports whether the unit's demand has decayed below its
// replica count, i.e. one replica should be retired (paper: excessive
// replication "catalyzes cache eviction"). The caller performs the actual
// cache drop and then confirms with Dropped.
func (p *Policy) ShouldDeReplicate(k cluster.UnitID, now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(k)
	st.decayTo(now, p.cfg.HalfLife)
	return st.replicas > p.TargetLocked(st)
}

// Dropped records that one replica of the unit was retired (either by the
// de-replication path or by cache eviction).
func (p *Policy) Dropped(k cluster.UnitID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(k)
	if st.replicas > 1 {
		st.replicas--
	}
}
