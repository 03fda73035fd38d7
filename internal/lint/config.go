package lint

import "strings"

// Config is the per-repo policy: which packages each analyzer binds to.
// Analyzers consult it through the Pass so fixture tests can run with a
// permissive policy while cmd/starklint runs the Stark defaults.
type Config struct {
	// DeterministicPkg reports whether a package must be free of wall-clock
	// reads and global randomness. The intentional exception (the harness
	// timer in cmd/starkbench) is NOT carved out here — its two lines carry
	// //starklint:ignore directives in-source, so the allowlist is visible
	// where the clock is read.
	DeterministicPkg func(path string) bool

	// OrderedPkg reports whether a package holds order-sensitive scheduling
	// or grouping state, binding the mapiter analyzer: engine, sched, group,
	// partition, session.
	OrderedPkg func(path string) bool

	// ControlPlanePkg reports whether a package's named types count as
	// control-plane state for planetaint. A function is inferred to be a
	// mutator when it stores through a pointer to a named type declared in a
	// control-plane package (or to a package-level var there) — no manual
	// mutator registration. Kernel packages (record, arena, partition, ...)
	// are excluded: their types are plane-owned working state.
	ControlPlanePkg func(path string) bool
}

// DefaultConfig returns the Stark repo policy.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkg: func(path string) bool {
			// The whole module is deterministic by contract: the public API,
			// every internal package, the CLIs and the examples all replay
			// against the virtual clock. Wall-clock measurement sites opt out
			// individually with reasoned in-source suppressions.
			return path == "stark" || strings.HasPrefix(path, "stark/")
		},
		OrderedPkg: func(path string) bool {
			switch path {
			case "stark/internal/engine", "stark/internal/sched",
				"stark/internal/group", "stark/internal/partition",
				"stark/internal/session":
				return true
			}
			return false
		},
		ControlPlanePkg: defaultControlPlanePkg,
	}
}

// defaultControlPlanePkg lists the packages whose types are control-plane
// state: mutating them from a worker goroutine races the event loop and
// breaks the parallelism-1-vs-N identity. Deliberately absent: record,
// arena, partition, rdd, zorder, and the workload/analytics packages —
// those hold plane-owned or immutable working data that kernels mutate by
// design.
func defaultControlPlanePkg(path string) bool {
	switch path {
	case "stark",
		"stark/internal/engine",
		"stark/internal/cluster",
		"stark/internal/storage",
		"stark/internal/sched",
		"stark/internal/group",
		"stark/internal/vtime",
		"stark/internal/fault",
		"stark/internal/journal",
		"stark/internal/net",
		"stark/internal/session",
		"stark/internal/metrics",
		"stark/internal/locality",
		"stark/internal/replication",
		"stark/internal/checkpoint":
		return true
	}
	return false
}
