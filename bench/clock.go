package main

import "time"

// The bench is the one place in the module that measures real time, and this
// file is the only place the bench reads it: every span, iteration timing and
// layer driver goes through now(), so the wallclock lint has exactly two
// suppressions to audit.

//starklint:ignore wallclock the benchmark measures wall-clock by definition; this anchors every reading to process start
var epoch = time.Now()

// now reports monotonic wall-clock time since process start.
func now() time.Duration {
	//starklint:ignore wallclock the benchmark's single wall-clock read site; nothing read here feeds the simulation
	return time.Since(epoch)
}
