package lint

import (
	"go/types"
	"strings"
)

// UnreachableAnalyzer reports every function and method declared in the
// module that no root reaches through the call graph. The roots are what
// runs without a test: main.main; every package's init node, which carries
// its package-level var initialisers; the root package's exported functions
// and the exported methods of its exported types, aliases included; and the
// methods of any type implementing one of runtimeIfaces. A suppressed
// function is a root too, so its callees need no directive; a suppression
// on a function the roots reach anyway is reported as stale. The analyzer
// stays silent unless the load covers the whole module: on a partial load
// every function whose callers were left out would read as dead.
var UnreachableAnalyzer = &Analyzer{
	Name: "unreachable",
	Doc:  "flags functions and methods that no main, init, var initialiser or exported root-package API reaches",
	Run:  runUnreachable,
}

// runtimeIfaces lists, as sigParts, the standard-library interfaces whose
// methods are called from outside the module: error, fmt.Stringer,
// fmt.Formatter, json.Marshaler, io.Writer, io.Closer, the errors package's
// Unwrap/Is/As convention, sort.Interface and heap.Interface.
var runtimeIfaces = [][]string{
	{"Error ( ) string"}, {"String ( ) string"}, {"Format ( fmt.State rune )"},
	{"MarshalJSON ( ) []byte error"}, {"Write ( []byte ) int error"}, {"Close ( ) error"},
	{"Unwrap ( ) error"}, {"Unwrap ( ) []error"}, {"Is ( error ) bool"}, {"As ( any ) bool"},
	{"Len ( ) int", "Less ( int int ) bool", "Swap ( int int )"},
	{"Len ( ) int", "Less ( int int ) bool", "Swap ( int int )", "Push ( any )", "Pop ( ) any"},
}

func runUnreachable(p *Pass) {
	if !wholeModule(p.Pkgs) {
		return
	}
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			for _, e := range n.Out {
				visit(e.Callee)
			}
		}
	}
	for _, pkg := range p.Pkgs {
		visit(p.Graph.Node(pkg.ImportPath + ".init"))
		if pkg.Types.Name() == "main" {
			visit(p.Graph.Node(pkg.ImportPath + ".main"))
		}
		if pkg.ImportPath == modulePath(pkg.ImportPath) {
			for _, fn := range exportedAPI(pkg.Types) {
				visit(p.Graph.Node(fn.Origin().FullName()))
			}
		}
	}
	for _, named := range concreteTypes(p.Pkgs) {
		for _, iface := range runtimeIfaces {
			var want [][]string
			for _, m := range iface {
				want = append(want, strings.Fields(m))
			}
			for _, fn := range implementing(named, want) {
				visit(p.Graph.Node(fn.Origin().FullName()))
			}
		}
	}

	nodes := p.Graph.Nodes()
	var suppressed []*Node
	for _, n := range nodes {
		if n.Decl == nil || !p.sup.suppresses(Diagnostic{Pos: p.Fset.Position(n.Decl.Pos()), Analyzer: p.Analyzer.Name}) {
			continue
		}
		if seen[n] {
			*p.diags = append(*p.diags, Diagnostic{Pos: p.Fset.Position(n.Decl.Pos()), Analyzer: "starklint",
				Message: "stale //starklint:ignore unreachable: a root reaches " + n.ShortName()})
		}
		suppressed = append(suppressed, n)
	}
	for _, n := range suppressed {
		visit(n)
	}
	for _, n := range nodes {
		if !seen[n] && n.Decl != nil {
			p.Reportf(n.Decl.Pos(), "%s is reached from no main, init, var initialiser or exported API, only from tests if at all; delete it, or name its caller in //starklint:ignore unreachable <caller>", n.ShortName())
		}
	}
}

// exportedAPI returns the root package's exported functions and the
// exported methods of its exported types; an alias contributes the methods
// of the type it names.
func exportedAPI(pkg *types.Package) []*types.Func {
	var out []*types.Func
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if tn, ok := obj.(*types.TypeName); ok && obj.Exported() {
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				if m := mset.At(i).Obj(); m.Exported() {
					out = append(out, m.(*types.Func))
				}
			}
		} else if fn, ok := obj.(*types.Func); ok && obj.Exported() {
			out = append(out, fn)
		}
	}
	return out
}

// wholeModule reports whether pkgs hold a main package and every module
// package any of them imports, as `starklint ./...` loads them.
func wholeModule(pkgs []*Package) bool {
	loaded, hasMain := map[string]bool{}, false
	for _, pkg := range pkgs {
		loaded[pkg.ImportPath], hasMain = true, hasMain || pkg.Types.Name() == "main"
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if modulePath(imp.Path()) == modulePath(pkg.ImportPath) && !loaded[imp.Path()] {
				return false
			}
		}
	}
	return hasMain
}

// modulePath is the first element of an import path: "stark" for
// "stark/internal/engine".
func modulePath(importPath string) string {
	first, _, _ := strings.Cut(importPath, "/")
	return first
}
