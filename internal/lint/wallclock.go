package lint

import (
	"go/ast"
)

// wallclockBanned lists the package time functions that read or schedule
// against the host's wall clock. time.Duration arithmetic and constants
// stay legal: the engine models durations, it must never observe real ones.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// WallclockAnalyzer enforces the virtual-clock contract: deterministic
// packages schedule exclusively on vtime.Loop, so any wall-clock read is a
// reproduction bug waiting to surface as a cross-parallelism diff. It flags
// every reference (call or value use) to a banned time function, so
// indirection like `now := time.Now` cannot smuggle the clock in.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "bans wall-clock reads (time.Now/Since/Sleep/...) in deterministic packages",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) {
	reportBannedFuncs(pass, wallclockBanned, []string{"time"},
		"time.%s reads the wall clock; deterministic code must use the virtual clock (vtime.Loop)")
}

// reportBannedFuncs reports, in every deterministic package of the pass,
// each reference (call or value use) to a package-level function of
// pkgPaths that banned names.
func reportBannedFuncs(pass *Pass, banned map[string]bool, pkgPaths []string, format string) {
	for _, pkg := range pass.Pkgs {
		if !pass.Config.DeterministicPkg(pkg.ImportPath) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !banned[sel.Sel.Name] {
					return true
				}
				for _, path := range pkgPaths {
					if isPkgFunc(pkg.Info.Uses[sel.Sel], path, sel.Sel.Name) {
						pass.Reportf(sel.Pos(), format, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
