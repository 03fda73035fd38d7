// Command bench is the repository's reference benchmark: four workloads that
// each load a different layer of the Stark engine, seven end-to-end metrics
// per workload with fixed regression bounds, and a separate traced run that
// yields the per-layer metrics. BENCHMARK.json declares the names; README.md
// explains them.
//
//	bash bench/run.sh                                  every workload, end to end
//	bash bench/run.sh --trace 1                        every workload, traced/layers run
//	bash bench/run.sh --workload batch-join --seed 7   one workload, one JSON line last
//	bash bench/run.sh --layers only                    the layer drivers alone
//	bash bench/run.sh --noise 6                        the noise study (NOISE.md)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run in this process; empty runs all four, one child process each")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed region of an end-to-end run")
		trace     = flag.Int("trace", 0, "1 runs the traced/layers run and reports the per-layer metrics instead")
		quick     = flag.Bool("quick", false, "tiny scenarios, 2 iterations, 1 traced, drivers at 1 batch (smoke test)")
		layers    = flag.String("layers", "with", "layer drivers: \"with\" the traced run, \"only\" them, or a traced run \"without\" them")
		noise     = flag.Int("noise", 0, "run the end-to-end suite this many times, alternating workload order, and report run-to-run noise")
		updGolden = flag.Bool("update-golden", false, "recompute bench/golden.json for seed 1 and print it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	// The reference box has 2 vCPUs; pinning keeps a larger machine from
	// changing the worker pool's width, which WithParallelism's default
	// takes from GOMAXPROCS.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *layers != "with" && *layers != "only" && *layers != "without" {
		fatalf("--layers is %q; want with, only or without", *layers)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, drivers: *layers != "without", outDir: "bench/out"}
	switch {
	case *updGolden:
		if err := printGolden(); err != nil {
			fatalf("%v", err)
		}
	case *layers == "only":
		for _, m := range layerDrivers(o) {
			m.print()
		}
	case *noise > 0:
		if err := noiseStudy(*noise, o); err != nil {
			fatalf("%v", err)
		}
	case *name == "":
		// The layer drivers do not depend on the workload: the suite runs
		// them once, after the four children.
		child := o
		child.drivers = false
		ok := true
		for _, w := range workloads {
			res, err := runChild(w.name, child)
			if err != nil {
				fatalf("%v", err)
			}
			ok = ok && res.Correct
		}
		if o.trace && o.drivers {
			fmt.Printf("layer drivers, seed %d\n", o.seed)
			for _, m := range layerDrivers(o) {
				m.print()
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := findWorkload(*name)
		if !found {
			fatalf("unknown workload %q", *name)
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		report(res)
		if !res.correct() {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// wireMetric and wireResult are the contract's last-line JSON object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`

	// probeMs is the child's box-speed probe, parsed from its report; it is
	// not an end-to-end metric and so not part of the JSON line.
	probeMs float64
}

var probeLine = regexp.MustCompile(`probe p50 ([0-9.]+) ms`)

// report prints every metric by name with its unit, any correctness errors,
// and last the one-line JSON object the driver reads.
func report(res *result) {
	for _, e := range res.errs {
		fmt.Printf("  ERROR %s\n", e)
	}
	wire := wireResult{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]wireMetric{}}
	for _, m := range res.metrics {
		m.print()
		wire.Metrics[m.name] = wireMetric{m.value, m.unit}
	}
	line, err := json.Marshal(wire)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)
}

// runChild runs one workload in a child process of this same binary, so
// the heap and peak RSS start fresh for every workload, echoes its
// report, and parses the JSON line. The child has exited when it returns.
func runChild(workload string, o options) (wireResult, error) {
	var res wireResult
	self, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("locate bench binary: %w", err)
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if !o.drivers {
		args = append(args, "-layers", "without")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	os.Stdout.Write(out.Bytes())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: child printed no result: %w", workload, errors.Join(runErr, err))
	}
	if m := probeLine.FindSubmatch(out.Bytes()); m != nil {
		res.probeMs, _ = strconv.ParseFloat(string(m[1]), 64) // the pattern admits only digits and dots
	}
	return res, nil
}
