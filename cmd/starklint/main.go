// Command starklint runs the Stark repo's custom static-analysis suite: the
// determinism, purity, and plane-isolation contracts that the runtime
// oracles (parallelism-1-vs-N byte equality, STARK_CHECK_COW, the chaos
// harness, the testing.AllocsPerRun ceilings) check dynamically,
// enforced at build time instead.
//
// Usage:
//
//	starklint [flags] [packages]
//
// Packages default to ./... and use go-list pattern syntax. Non-test Go
// files of every matched package are parsed and type-checked (against
// build-cache export data, so the tree must compile), then run through the
// per-package analyzers:
//
//	wallclock   — no time.Now/Since/Sleep/... in deterministic packages
//	globalrand  — no package-level math/rand draws; seeded *rand.Rand only
//	mapiter     — no map-range loops feeding ordered state without a sort
//	cowpurity   — no mutation of copy-on-write records in transform closures
//
// and, over the module-wide call graph built across every loaded package,
// the interprocedural analyzers:
//
//	planetaint  — no transitive control-plane mutation from data-plane
//	              roots (runPlane, planeCtx methods, hotpath kernels);
//	              buffer the effect in the planeCtx instead
//	hotalloc    — no allocation-inducing constructs reachable from
//	              //starklint:hotpath kernels (boxing, per-call maps,
//	              empty-slice append growth, Sprintf/concatenation)
//	errwrap     — no %v/%s flattening of error operands, no wrapper error
//	              type without Unwrap: typed sentinels stay errors.Is-able
//
// Findings print as file:line:col: analyzer: message, or with -json as one
// JSON object per line ({file, line, col, analyzer, message}). A finding is
// suppressed by
//
//	//starklint:ignore <analyzer> <reason>
//
// on the same line, the line directly above, or trailing a multi-line
// expression the finding anchors to; the reason is mandatory.
// Exit status: 0 clean, 1 unsuppressed findings, 2 load/type-check failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stark/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: starklint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.ModuleAnalyzers() {
			fmt.Printf("%-12s %s (module-wide)\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "starklint:", err)
		os.Exit(2)
	}

	cfg := lint.DefaultConfig()
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.Run(pkg, cfg, lint.Analyzers())...)
	}
	diags = append(diags, lint.RunModule(pkgs, cfg, lint.ModuleAnalyzers())...)

	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *asJSON {
			if err := enc.Encode(d); err != nil {
				fmt.Fprintln(os.Stderr, "starklint:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "starklint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
