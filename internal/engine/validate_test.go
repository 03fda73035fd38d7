package engine_test

import (
	"testing"
	"time"

	"stark"
	"stark/internal/config"
	"stark/internal/engine"
)

// TestHeartbeatValidation: a heartbeat config is either zero (detection
// off) or satisfies 0 < Interval <= SuspectAfter < DeadAfter. Every other
// config is an error from engine.Validate and stark.ValidateConfig and a
// panic from engine.New; no timeout is filled in or derived.
func TestHeartbeatValidation(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name                    string
		interval, suspect, dead time.Duration
		ok                      bool
	}{
		{"omitted DeadAfter", 10 * ms, 30 * ms, 0, false},
		{"SuspectAfter below Interval", 10 * ms, 5 * ms, 90 * ms, false},
		{"DeadAfter equals SuspectAfter", 10 * ms, 30 * ms, 30 * ms, false},
		{"negative Interval", -10 * ms, 30 * ms, 90 * ms, false},
		{"chaos timeouts", 40 * ms, 120 * ms, 300 * ms, true},
		{"zero config", 0, 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.DefaultConfig()
			cfg.Heartbeat = config.Heartbeat{Interval: tc.interval, SuspectAfter: tc.suspect, DeadAfter: tc.dead}
			if err := engine.Validate(cfg); (err == nil) != tc.ok {
				t.Errorf("engine.Validate = %v, want ok=%v", err, tc.ok)
			}
			if err := stark.ValidateConfig(stark.WithHeartbeat(tc.interval, tc.suspect, tc.dead)); (err == nil) != tc.ok {
				t.Errorf("stark.ValidateConfig = %v, want ok=%v", err, tc.ok)
			}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				engine.New(cfg)
				return false
			}()
			if panicked == tc.ok {
				t.Errorf("engine.New panicked=%v, want %v", panicked, !tc.ok)
			}
		})
	}
}
