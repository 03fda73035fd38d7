// Command benchpairs compares two revisions on the reference benchmark
// (BENCHMARK.json, bench/): it exports each revision's tree, runs alternated
// pairs of one workload through each tree's own benchmark command — the
// first revision first in odd pairs, the second first in even ones — and
// prints, for every end-to-end metric BENCHMARK.json declares, each side's
// median and quartiles, the change of the medians, and in how many pairs
// each side was better. Giving one revision twice is the A/A check: the
// spread two runs of the same binary show.
//
// Usage, from the repository root:
//
//	go run ./cmd/benchpairs -a c04a321 -b HEAD -workload taxi-window -pairs 10
//	make bench-pairs REV_A=c04a321 REV_B=HEAD WORKLOAD=taxi-window PAIRS=10
//
// Each run is the tree's BENCHMARK.json command with only --workload added,
// from the tree's root, so the seed and the run length are the benchmark's
// defaults and each side is built the way its revision declares. Exported
// trees land in .bench_build/pairs/ (ignored by git), each with its own
// build output and Go caches, which later runs of the same commit reuse.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runResult is the JSON line a workload run ends with.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		revA     = flag.String("a", "HEAD", "first revision (the parent)")
		revB     = flag.String("b", "HEAD", "second revision (the change)")
		workload = flag.String("workload", "taxi-window", "benchmark workload to run")
		pairs    = flag.Int("pairs", 10, "alternated pairs to run")
	)
	flag.Parse()
	if *pairs < 1 {
		return fmt.Errorf("-pairs is %d; want at least 1", *pairs)
	}
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	treeA, err := export(*revA)
	if err != nil {
		return err
	}
	treeB, err := export(*revB)
	if err != nil {
		return err
	}
	var runsA, runsB []runResult
	for i := 0; i < *pairs; i++ {
		order := []string{"A", "B"}
		if i%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, side := range order {
			tree := treeA
			if side == "B" {
				tree = treeB
			}
			res, err := runOnce(tree, *workload)
			if err != nil {
				return fmt.Errorf("pair %d side %s: %w", i+1, side, err)
			}
			if side == "A" {
				runsA = append(runsA, res)
			} else {
				runsB = append(runsB, res)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done (%s first)\n", i+1, *pairs, order[0])
	}
	fmt.Printf("%s, %d alternated pairs: A = %s, B = %s\n", *workload, *pairs, *revA, *revB)
	summarize(os.Stdout, decl.EndToEnd, runsA, runsB)
	return nil
}

// benchDecl is the part of a benchmark declaration benchpairs uses.
type benchDecl struct {
	Command  []string     `json:"command"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// readDecl reads a benchmark declaration.
func readDecl(path string) (benchDecl, error) {
	var decl benchDecl
	raw, err := os.ReadFile(path)
	if err != nil {
		return decl, fmt.Errorf("read benchmark declaration (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return decl, fmt.Errorf("parse %s: %w", path, err)
	}
	return decl, nil
}

// export exports rev's tree to .bench_build/pairs/<commit> and returns the
// tree's absolute path. A tree already exported for the commit is reused,
// with whatever its earlier runs built there.
func export(rev string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolve revision %q: %w", rev, err)
	}
	commit := strings.TrimSpace(string(out))
	tree, err := filepath.Abs(filepath.Join(".bench_build", "pairs", commit))
	if err != nil {
		return "", fmt.Errorf("locate build directory: %w", err)
	}
	done := filepath.Join(tree, ".bench_build", "exported")
	if _, err := os.Stat(done); err == nil {
		return tree, nil
	}
	if err := os.RemoveAll(tree); err != nil {
		return "", fmt.Errorf("clear %s: %w", tree, err)
	}
	if err := os.MkdirAll(filepath.Dir(done), 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", tree, err)
	}
	fmt.Fprintf(os.Stderr, "exporting %s (%.12s)\n", rev, commit)
	cmd := exec.Command("sh", "-c", "git archive --format=tar \"$1\" | tar -x -C \"$2\"", "export", commit, tree)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("export %s: %w: %s", rev, err, msg)
	}
	if err := os.WriteFile(done, nil, 0o644); err != nil {
		return "", fmt.Errorf("mark %s exported: %w", tree, err)
	}
	return tree, nil
}

// runOnce runs one workload through the tree's own benchmark command, from
// the tree's root, and parses the JSON line the run ends with.
func runOnce(tree, workload string) (runResult, error) {
	decl, err := readDecl(filepath.Join(tree, "BENCHMARK.json"))
	if err != nil {
		return runResult{}, err
	}
	if len(decl.Command) == 0 {
		return runResult{}, errors.New(tree + ": BENCHMARK.json declares no command")
	}
	cmd := exec.Command(decl.Command[0], append(decl.Command[1:], "--workload", workload)...)
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s: %w: %s", tree, err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("%s: parse the run's last line: %w", tree, err)
	}
	if len(res.Metrics) == 0 {
		return runResult{}, errors.New(tree + ": the last line reports no metrics")
	}
	return res, nil
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summarize prints one row per metric: each side's median and quartiles,
// the change of B's median from A's, how many pairs each side won (ties
// count for neither) and whether B's gain meets the claim rule: better in
// at least nine tenths of the pairs, by more than A's interquartile
// distance. A final line counts incorrect runs and failed operations.
func summarize(w io.Writer, spec []metricSpec, runsA, runsB []runResult) {
	fmt.Fprintf(w, "%-20s %-34s %-34s %9s %8s %8s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "A wins", "B wins", "B gain claimable")
	for _, m := range spec {
		var a, b []float64
		for i := range runsA {
			a = append(a, runsA[i].Metrics[m.Name].Value)
			b = append(b, runsB[i].Metrics[m.Name].Value)
		}
		winsA, winsB := 0, 0
		for i := range a {
			d := b[i] - a[i]
			if m.Better == "higher" {
				d = -d
			}
			switch {
			case d < 0:
				winsB++
			case d > 0:
				winsA++
			}
		}
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		medA, medB := quantile(sa, 0.5), quantile(sb, 0.5)
		iqrA := quantile(sa, 0.75) - quantile(sa, 0.25)
		change := "n/a"
		if medA != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(medB-medA)/medA)
		}
		gain := 10*winsB >= 9*len(a) && abs(medB-medA) > iqrA
		fmt.Fprintf(w, "%-20s %-34s %-34s %9s %8s %8s %v\n", m.Name,
			fmt.Sprintf("%.6g [%.6g, %.6g] %s", medA, quantile(sa, 0.25), quantile(sa, 0.75), m.Unit),
			fmt.Sprintf("%.6g [%.6g, %.6g] %s", medB, quantile(sb, 0.25), quantile(sb, 0.75), m.Unit),
			change, fmt.Sprintf("%d/%d", winsA, len(a)), fmt.Sprintf("%d/%d", winsB, len(a)), gain)
	}
	bad := func(runs []runResult) (incorrect, failed int) {
		for _, r := range runs {
			if !r.Correct {
				incorrect++
			}
			failed += r.Failed
		}
		return incorrect, failed
	}
	ia, fa := bad(runsA)
	ib, fb := bad(runsB)
	fmt.Fprintf(w, "incorrect runs: A %d, B %d; failed operations: A %d, B %d\n", ia, ib, fa, fb)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
