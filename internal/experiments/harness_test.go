package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/harness_quick.golden from this run")

// printer is what every Run* result is.
type printer interface{ Print(io.Writer) }

// TestHarnessOutputUnchanged pins the harness's own output: every
// experiment except fig20 at starkbench's -quick profile (fig19 only at its
// Spark-R 56 jobs/s row, about 1 s of its sweep), the Print bytes (and
// WriteTSV bytes, where the figure has series data) of each concatenated
// and compared with testdata/harness_quick.golden. The numbers
// are virtual time, so a diff is a virtual-time change and must be explained
// like a bench/golden.json change; -update regenerates the file.
func TestHarnessOutputUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole -quick harness (~7 s)")
	}
	var out bytes.Buffer
	steps := []struct {
		name string
		run  func() (printer, error)
	}{
		{"fig1", func() (printer, error) { return RunFig01(DefaultFig01()) }},
		{"fig7", func() (printer, error) { return RunFig07(DefaultFig07().Quick()) }},
		{"fig11", func() (printer, error) { return RunFig11(DefaultFig11().Quick()) }},
		{"fig12", func() (printer, error) { return RunFig12(DefaultFig11().Quick()) }},
		{"fig13", func() (printer, error) { return RunSkew(DefaultSkew()) }},
		{"fig17", func() (printer, error) { return RunFig17(DefaultCheckpoint()) }},
		{"fig18", func() (printer, error) { return RunFig18(DefaultCheckpoint()) }},
		{"recovery", func() (printer, error) { return RunRecovery(DefaultCheckpoint(), DefaultRecoveryBounds()) }},
		{"chaos", func() (printer, error) {
			cfg := DefaultChaos().Quick()
			cfg.DumpFaults = &out
			return RunChaos(cfg)
		}},
		{"multitenant", func() (printer, error) {
			cfg := DefaultMultitenant().Quick()
			cfg.DumpFaults = &out
			return RunMultitenant(cfg)
		}},
		{"cachepolicy", func() (printer, error) { return RunCachePolicy(DefaultCachePolicy().Quick()) }},
		{"churn", func() (printer, error) { return RunChurn(DefaultChurn()) }},
		{"ablations", func() (printer, error) { return RunAblations() }},
		{"fig19", func() (printer, error) {
			cfg := DefaultThroughput().Quick()
			cfg.Systems = []System{SparkR}
			cfg.Rates = []float64{56}
			return RunFig19(cfg)
		}},
	}
	for _, s := range steps {
		fprintf(&out, "== %s ==\n", s.name)
		r, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		r.Print(&out)
		if tsv, ok := r.(interface{ WriteTSV(io.Writer) error }); ok {
			if err := tsv.WriteTSV(&out); err != nil {
				t.Fatalf("%s tsv: %v", s.name, err)
			}
		}
	}

	path := filepath.Join("testdata", "harness_quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("harness output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
