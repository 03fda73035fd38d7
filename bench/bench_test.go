package main

import (
	"regexp"
	"sort"
	"testing"
)

// TestQuickRunMatchesManifest runs every workload's end-to-end and traced
// run at -quick size and holds the emitted names to BENCHMARK.json: the
// manifest is the contract later changes are measured by, so a metric or
// workload renamed on one side only must fail here.
func TestQuickRunMatchesManifest(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var declared []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	var built []string
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !equalSets(declared, built) {
		t.Fatalf("BENCHMARK.json workloads %v, bench has %v", declared, built)
	}

	out := t.TempDir()
	for _, w := range workloads {
		if !legal.MatchString(w.name) {
			t.Errorf("workload name %q is not a legal name", w.name)
		}
		for _, mode := range []struct {
			trace bool
			want  []manifestMetric
		}{{false, man.EndToEnd}, {true, man.PerLayer}} {
			res, err := runWorkload(w, options{seed: 1, seconds: defaultSeconds, trace: mode.trace, quick: true, drivers: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: not correct: %d of %d jobs failed, errors %v", w.name, mode.trace, res.failed, res.attempted, res.errs)
			}
			units := map[string]string{}
			var got, want []string
			for _, m := range res.metrics {
				got = append(got, m.name)
				units[m.name] = m.unit
				if !legal.MatchString(m.name) {
					t.Errorf("%s: metric name %q is not a legal name", w.name, m.name)
				}
			}
			for _, m := range mode.want {
				want = append(want, m.Name)
				if u, ok := units[m.Name]; ok && u != m.Unit {
					t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", w.name, m.Name, u, m.Unit)
				}
			}
			if !equalSets(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w.name, mode.trace, got, want)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := iqrShare(vs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("iqrShare = %v, want %v", got, want)
	}
}
