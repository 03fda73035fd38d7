package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// ModuleAnalyzer is a check that needs the whole module at once: the
// interprocedural analyzers reason over the cross-package call graph,
// which no single-package Pass can see.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass carries one module analyzer's view of every loaded package
// plus the call graph built over them.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Config   *Config

	Fset  *token.FileSet
	Pkgs  []*Package
	Graph *CallGraph

	diags *[]Diagnostic
	sup   *suppressionSet // every in-source directive of the loaded packages
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModuleAnalyzers returns the interprocedural suite in stable order.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		PlanetaintAnalyzer,
		HotallocAnalyzer,
		ErrwrapAnalyzer,
		UnreachableAnalyzer,
	}
}

// RunModule executes the module analyzers over the loaded packages, applies
// in-source suppression directives, and returns the surviving diagnostics
// sorted by position. Directive hygiene is Run's job, bar the stale
// unreachable suppressions only the call graph can tell apart.
func RunModule(pkgs []*Package, cfg *Config, analyzers []*ModuleAnalyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	graph := BuildCallGraph(pkgs)
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	sup, _ := collectSuppressions(pkgs[0].Fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&ModulePass{
			Analyzer: a,
			Config:   cfg,
			Fset:     pkgs[0].Fset,
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
	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// hotpathAnnotated reports whether fd carries a //starklint:hotpath line in
// its doc comment, marking it a hot-path allocation-budget root.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if trimDirective(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

const hotpathDirective = "//starklint:hotpath"

func trimDirective(text string) string {
	for len(text) > 0 && (text[len(text)-1] == ' ' || text[len(text)-1] == '\t' || text[len(text)-1] == '\r') {
		text = text[:len(text)-1]
	}
	return text
}
