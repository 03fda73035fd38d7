package main

import (
	"fmt"
	"syscall"
	"time"
)

// The box-speed probe. The reference box is a 2-vCPU guest on a shared host,
// and what its neighbours do to the last-level cache moves the wall-clock of
// every workload by 10 to 30 % for minutes at a time, and by more for seconds
// (NOISE.md): no run length the time cap allows averages that out. Work that
// stays inside the core's own caches does not feel it (the calibration spin
// moves 3 %), work that lives in the shared cache feels it in full, and the
// workloads sit between the two. So the probe is a fixed amount of work of
// both kinds, in three parts of about equal time on a quiet box: the
// calibration spin, then pseudo-random read-modify-writes over 4 MiB
// (shared-cache resident) and over 16 MiB (spilling past this guest's share
// of it). It runs before and after every timed iteration and five times
// inside every set-up, touches no code under test and no Go heap, and every
// wall-clock reading behind the two wall-clock end-to-end metrics is divided
// by the probe readings around it over probeRefMs: wall-clock at the
// reference box's quiet speed. In recordings of one process, dividing by such
// a mix took the spread of the medians of 40 iterations from 3-16 %
// (quartiles) and 7-31 % (range) to 1.6-2.9 % and 4-6.5 % (NOISE.md, "Why the
// wall-clock is normalised").
const (
	probeSmallBytes = 4 << 20
	probeLargeBytes = 16 << 20 // both powers of two: scatter masks with len-1
	probeSmallOps   = 1_500_000
	probeLargeOps   = 750_000

	// probeRefMs is the probe's median on the reference box in a quiet
	// period. It only fixes the scale: a comparison of two commits divides
	// it out.
	probeRefMs = 24.0
)

var probeSmall, probeLarge []byte

// probeArena maps n bytes outside the Go heap, so the probe's working set
// does not raise the heap goal and with it change how often the workloads'
// own allocation triggers a collection.
func probeArena(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for the box-speed probe: %w", n, err)
	}
	for i := 0; i < n; i += 4096 {
		b[i] = 1 // fault every page in now, not inside the first timed pass
	}
	return b, nil
}

// initProbe maps the probe's two arenas; runWorkload calls it before anything
// is timed. The mappings last as long as the process.
func initProbe() error {
	if probeSmall != nil {
		return nil
	}
	small, err := probeArena(probeSmallBytes)
	if err != nil {
		return err
	}
	large, err := probeArena(probeLargeBytes)
	if err != nil {
		return err
	}
	probeSmall, probeLarge = small, large
	return nil
}

// scatter does ops dependent-address-free read-modify-writes at xorshift
// positions of buf.
func scatter(buf []byte, ops int) {
	mask := uint64(len(buf) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[x&mask] += byte(x)
	}
}

// probe times one pass of the box-speed probe and returns the whole and its
// first third, the calibration spin.
func probe() (whole, calib time.Duration) {
	calib = calibrate()
	t0 := now()
	scatter(probeSmall, probeSmallOps)
	scatter(probeLarge, probeLargeOps)
	return calib + now() - t0, calib
}

// atReferenceSpeed divides a wall-clock reading by the box-speed index of a
// probe reading taken beside it, probe/probeRefMs: with the probe 20 % slow,
// d is divided by 1.2.
func atReferenceSpeed(d, probe time.Duration) time.Duration {
	return time.Duration(float64(d) * probeRefMs / ms(probe))
}
