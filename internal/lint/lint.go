// Package lint implements starklint, the repo's custom static-analysis
// suite. It enforces at build time the determinism, purity, and
// plane-isolation contracts that the engine's runtime oracles (the
// parallelism-1-vs-N byte-equality tests, STARK_CHECK_COW fingerprinting,
// the chaos harness, the testing.AllocsPerRun ceilings) can only check
// after the fact: no wall-clock reads in deterministic packages, no global
// math/rand state, no order-dependent iteration over maps in scheduling
// paths, no mutation of copy-on-write record slices inside transform
// closures.
//
// Every analyzer sees every loaded package and a module-wide static call
// graph (see callgraph.go and DESIGN.md section 16). Four of them walk the
// packages one at a time under a Config scope predicate; the other four are
// interprocedural: planetaint flags data-plane code transitively reaching a
// control-plane mutation (the remedy is always to buffer the effect in the
// planeCtx), hotalloc flags allocation-inducing constructs reachable from
// //starklint:hotpath kernels, errwrap flags error wrapping that severs
// errors.Is/Unwrap reachability of the typed sentinels, and unreachable
// flags functions that only tests reach.
//
// The suite is built on the standard library only (go/parser + go/types,
// with export data served from the build cache via `go list -export`), so
// it adds no module dependencies. Findings are suppressed in-source with
//
//	//starklint:ignore <analyzer> <reason>
//
// on the offending line, the line directly above it, or the start line of
// the multi-line expression the directive trails; the reason is mandatory.
// See DESIGN.md section 11 for the invariant-to-analyzer map.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// MarshalJSON encodes the finding in the stable shape cmd/starklint -json
// emits (one object per finding): file, line, col, analyzer, message.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
}

// Analyzer is one named check. Run inspects the packages held by the pass
// — one at a time under the analyzer's scope predicate, or all at once over
// the call graph — and reports findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of every loaded package plus the call
// graph built over them.
type Pass struct {
	Analyzer *Analyzer
	Config   *Config

	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph

	diags *[]Diagnostic
	sup   *suppressionSet // every in-source directive of the loaded packages
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the starklint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalrandAnalyzer,
		MapiterAnalyzer,
		CowpurityAnalyzer,
		PlanetaintAnalyzer,
		HotallocAnalyzer,
		ErrwrapAnalyzer,
		UnreachableAnalyzer,
	}
}

// knownAnalyzer reports whether name is a member of the suite (used to
// validate suppression directives).
func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Run executes the given analyzers over the loaded packages, applies
// in-source suppression directives, and returns the surviving diagnostics
// sorted by position. Malformed directives (missing reason, unknown
// analyzer) surface as diagnostics under the reserved analyzer name
// "starklint" and cannot be suppressed.
func Run(pkgs []*Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	sup, bad := collectSuppressions(fset, files)
	graph := BuildCallGraph(pkgs)
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Config:   cfg,
			Fset:     fset,
			Pkgs:     pkgs,
			Graph:    graph,
			diags:    &diags,
			sup:      sup,
		})
	}
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppresses(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}
