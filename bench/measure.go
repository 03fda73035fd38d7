package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// warmups is how many untimed, reference-checked iterations set-up runs
// before anything is measured, so heap growth and lazy initialisation are
// paid before the first sample.
const warmups = 3

// sample is a batch of identically prepared iterations of one scenario.
type sample struct {
	walls []time.Duration
	probe []time.Duration // the box-speed probe, timed before every iteration and after the last
	calib []time.Duration // its first third, the calibration spin, alone

	allocBytes, mallocs uint64 // over the iterations alone
	allocPerIter        []uint64
	gcCycles            uint32 // cycles the iterations' own allocation triggered
	gcPause             time.Duration
	heapInusePeak       uint64
	cpu                 time.Duration // user+system, whole batch

	first        iteration
	jobs, failed int
	errs         []string
}

func (s *sample) n() int { return len(s.walls) }

// measure runs iterations of sc until iters have run (iters > 0) or budget
// has elapsed (iters == 0). Every iteration is preceded by an untimed
// runtime.GC() — without it run-to-run median spread on the shuffle scenario
// was 11 %, with it 2–8 % and GC cycle counts repeat — and by the box-speed
// probe. An iteration whose digest differs from want fails all of its jobs.
func measure(sc scenario, iters int, budget time.Duration, par int, tr *tracer, want uint64) sample {
	var s sample
	var m0, m1 runtime.MemStats
	cpu0 := cpuTime()
	start := now()
	for i := 0; (iters > 0 && i < iters) || (iters == 0 && now()-start < budget); i++ {
		runtime.GC()
		whole, calib := probe()
		s.probe = append(s.probe, whole)
		s.calib = append(s.calib, calib)
		if tr != nil {
			tr.iter = i
		}
		runtime.ReadMemStats(&m0)
		sp := tr.begin("bench.iteration")
		t0 := now()
		it := sc.run(par, tr)
		wall := now() - t0
		tr.end(sp)
		runtime.ReadMemStats(&m1)

		s.walls = append(s.walls, wall)
		s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.allocPerIter = append(s.allocPerIter, m1.TotalAlloc-m0.TotalAlloc)
		s.gcCycles += m1.NumGC - m0.NumGC
		s.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		s.heapInusePeak = max(s.heapInusePeak, m1.HeapInuse)

		if i == 0 {
			s.first = it
		}
		s.jobs += it.jobs
		s.failed += it.failed
		s.errs = append(s.errs, it.errs...)
		if d := it.digest(); d != want {
			s.failed += it.jobs - it.failed
			s.errs = append(s.errs, fmt.Sprintf("iteration %d (parallelism %d): digest %016x, want %016x", i, par, d, want))
		}
	}
	s.cpu = cpuTime() - cpu0
	runtime.GC()
	whole, _ := probe()
	s.probe = append(s.probe, whole)
	return s
}

// wallsAtReferenceSpeed is every iteration's wall-clock divided by the
// box-speed index of the two probe passes around it.
func (s *sample) wallsAtReferenceSpeed() []time.Duration {
	ds := make([]time.Duration, len(s.walls))
	for i, w := range s.walls {
		ds[i] = atReferenceSpeed(w, (s.probe[i]+s.probe[i+1])/2)
	}
	return ds
}

// calibBuf is the memcpy half of the calibration spin.
var calibBuf = make([]byte, 1<<20)

// calibSink keeps the spin's arithmetic from being optimised away.
var calibSink uint64

// calibrate times a fixed amount of arithmetic and memcpy inside the core's
// own caches, about 9 ms on the reference box. It is the first third of the
// box-speed probe (probe.go) and reported alone as process.calib_ms_p50: it
// sees a slower clock and a stolen CPU, not the neighbours' cache traffic.
func calibrate() time.Duration {
	t0 := now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	half := len(calibBuf) / 2
	for i := 0; i < 64; i++ {
		copy(calibBuf[:half], calibBuf[half:])
	}
	return now() - t0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (nearest rank) of ds; 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// number is what the benchmark takes medians of: durations, byte counts,
// metric values.
type number interface {
	~int64 | ~uint64 | ~float64
}

// median of vs, averaging the middle pair; 0 for no samples.
func median[T number](vs []T) T {
	if len(vs) == 0 {
		return 0
	}
	s := append([]T(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max-min)/median of vs.
func spread[T number](vs []T) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return ratio(float64(hi-lo), float64(median(vs)))
}

// vdelayP95 is the 95th percentile of an iteration's virtual delays, or the
// maximum when the iteration has fewer than 20 jobs.
func vdelayP95(ds []time.Duration) time.Duration {
	if len(ds) < 20 {
		return quantile(ds, 1)
	}
	return quantile(ds, 0.95)
}
