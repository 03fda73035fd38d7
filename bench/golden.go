package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins, for seed 1, the digest of every workload's generated
// inputs and of its results (counts, collect fingerprints, every virtual
// delay). A generator that drifts or a change that moves the simulation
// fails the run; other seeds are held only to the naive reference, the
// iteration-to-iteration digest and the oracles.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	InputDigest  string `json:"input_digest"`
	ResultDigest string `json:"result_digest"`
}

func goldenKey(workload string, quick bool) string {
	if quick {
		return workload + "/quick"
	}
	return workload
}

func checkGolden(workload string, o options, input, result uint64) error {
	if o.seed != 1 {
		return nil
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[goldenKey(workload, o.quick)]
	if !ok {
		return fmt.Errorf("golden.json has no entry %q", goldenKey(workload, o.quick))
	}
	got := goldenEntry{fmt.Sprintf("%016x", input), fmt.Sprintf("%016x", result)}
	if got != want {
		return fmt.Errorf("seed 1 digests %+v differ from golden.json's %+v", got, want)
	}
	return nil
}

// printGolden recomputes every entry; redirect it into bench/golden.json
// when a change to the generators or the simulation is intended.
func printGolden() error {
	golden := map[string]goldenEntry{}
	for _, w := range workloads {
		for _, quick := range []bool{false, true} {
			sc := w.setup(1, quick)
			it := sc.run(0, nil)
			golden[goldenKey(w.name, quick)] = goldenEntry{
				fmt.Sprintf("%016x", sc.inputDigest()), fmt.Sprintf("%016x", it.digest()),
			}
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return fmt.Errorf("encode golden: %w", err)
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", data)
	return err
}
