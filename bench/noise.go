package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The noise study is the benchmark measuring itself: the whole end-to-end
// suite run several times on one commit and one seed, reported the way a later
// comparison will see the box. Odd-numbered against even-numbered runs is a
// parent/change comparison of identical code; the quartile spread over the
// runs is what the driver holds against a bound.

// manifest is the part of BENCHMARK.json the study needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(vs, n=4)
// gives (the exclusive method), which is how the driver judges a metric's
// spread.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(vs))
}

// noiseStudy runs the end-to-end suite runs times, each workload in a child
// process, alternating workload order, and prints a Markdown report. It
// fails when two sets of runs of this one commit disagree by more than half a
// metric's bound, when the quartile spread exceeds the bound, when an alloc
// metric moves more than 0.5 % or when a virtual-time metric moves at all.
func noiseStudy(runs int, o options) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	type series struct {
		values map[string][]float64 // metric → value per run
		probe  []float64
	}
	all := map[string]*series{}
	for _, w := range workloads {
		all[w.name] = &series{values: map[string][]float64{}}
	}
	for run := 1; run <= runs; run++ {
		order := append([]workload(nil), workloads...)
		if run%2 == 0 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runChild(w.name, o)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("run %d of %s was not correct", run, w.name)
			}
			s := all[w.name]
			for _, m := range man.EndToEnd {
				s.values[m.Name] = append(s.values[m.Name], res.Metrics[m.Name].Value)
			}
			s.probe = append(s.probe, res.probeMs)
		}
	}

	fmt.Printf("\n## Noise study: %d runs, seed %d every run\n\n", runs, o.seed)
	fmt.Printf("Machine: %d CPUs, GOMAXPROCS %d, %s, %s/%s, kernel %s; %g s timed region per run.\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease(), o.seconds)
	var failures []string
	for _, w := range workloads {
		s := all[w.name]
		fmt.Printf("\n### %s\n\n| metric |", w.name)
		for run := 1; run <= runs; run++ {
			fmt.Printf(" run %d |", run)
		}
		fmt.Printf(" median odd | median even | gap | bound | (max-min)/median | IQR/median |\n|---|%s---|---|---|---|---|---|\n", strings.Repeat("---|", runs))
		for _, m := range man.EndToEnd {
			vs := s.values[m.Name]
			var odd, even []float64
			for i, v := range vs {
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			gap := 0.0
			if len(even) > 0 {
				gap = math.Abs(median(odd)-median(even)) / median(vs)
			}
			fmt.Printf("| %s (%s) |", m.Name, m.Unit)
			for _, v := range vs {
				fmt.Printf(" %.4f |", v)
			}
			fmt.Printf(" %.4f | %.4f | %.2f %% | %.1f %% | %.2f %% | %.2f %% |\n",
				median(odd), median(even), 100*gap, 100*m.Bound, 100*spread(vs), 100*iqrShare(vs))

			fail := func(format string, args ...any) {
				failures = append(failures, fmt.Sprintf("%s %s: ", w.name, m.Name)+fmt.Sprintf(format, args...))
			}
			if gap > m.Bound/2 {
				fail("odd/even gap %.2f %% exceeds half the %.1f %% bound", 100*gap, 100*m.Bound)
			}
			if m.Name != "setup_s" && iqrShare(vs) > m.Bound {
				fail("IQR/median %.2f %% exceeds the %.1f %% bound", 100*iqrShare(vs), 100*m.Bound)
			}
			if strings.HasPrefix(m.Name, "v") && spread(vs) != 0 {
				fail("a virtual-time metric differed between runs of one seed")
			}
			if strings.HasPrefix(m.Name, "alloc") && spread(vs) > 0.005 {
				fail("per-run spread %.2f %% exceeds 0.5 %%", 100*spread(vs))
			}
		}
		fmt.Printf("| process.probe_ms_p50 (ms) |")
		mc := median(s.probe)
		for _, c := range s.probe {
			flag := ""
			if math.Abs(c-mc) > 0.05*mc {
				flag = " **drift**" // the machine moved; the wall-clock rows are already divided by this
			}
			fmt.Printf(" %.3f%s |", c, flag)
		}
		fmt.Printf(" | | | | %.2f %% | |\n", 100*spread(s.probe))
	}
	if len(failures) > 0 {
		fmt.Printf("\nFAIL:\n")
		for _, f := range failures {
			fmt.Printf("- %s\n", f)
		}
		return fmt.Errorf("noise study: %d findings", len(failures))
	}
	fmt.Printf("\nPASS: every odd/even gap is within half its bound and every IQR/median within its bound.\n")
	return nil
}

// kernelRelease names the running kernel, for the machine-shape line.
func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
