package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// PlanetaintAnalyzer is the interprocedural successor of the retired
// one-hop planesafety check. It enforces the two-clock plane isolation of
// DESIGN.md section 10 over the whole call graph:
//
//   - Data-plane roots are runPlane, every planeCtx method, every function
//     threading a *planeCtx parameter, and the //starklint:hotpath kernels.
//   - A function is a control-plane MUTATOR when its body stores through a
//     pointer to a named type declared in a control-plane package (Config.
//     ControlPlanePkg) or to a package-level var there, or when it
//     transitively calls one. No manual mutator list: a new mutating
//     method is inferred from its stores.
//   - Any path from a data-plane root to a mutator is a finding; the only
//     remedy is to buffer the effect in the planeCtx and replay it at join.
//     Direct stores are reported at the store; transitive mutation is
//     reported at the frontier call site with a witness chain down to the
//     actual store.
//
// Types in Config.PlaneLocalTypes (planeCtx, batchEntry, task, ...) are
// exempt destinations: a single plane execution owns them, so worker-side
// stores are the buffered-side-effect design working as intended.
var PlanetaintAnalyzer = &ModuleAnalyzer{
	Name: "planetaint",
	Doc:  "flags data-plane code transitively reaching a control-plane mutation",
	Run:  runPlanetaint,
}

// planeStore is one offending store found in a function body.
type planeStore struct {
	pos  token.Pos
	desc string // rendered destination expression
}

// mutWitness explains why a node counts as a mutator: either a direct
// store (store set) or a call into another mutator (via set).
type mutWitness struct {
	store *planeStore
	via   *Node
}

func runPlanetaint(p *ModulePass) {
	stores := collectPlaneStores(p)
	mut := solveMutators(p, stores)
	roots := dataPlaneRoots(p)

	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, st := range stores[n] {
			p.Reportf(st.pos, "data-plane code writes %s through control-plane state; buffer the effect in the planeCtx and replay it at join", st.desc)
		}
		for _, e := range n.Out {
			callee := e.Callee
			if roots[callee] {
				// The callee is itself data-plane: descend and report at the
				// actual offending site instead of this call.
				visit(callee)
				continue
			}
			if mut[callee] != nil {
				p.Reportf(e.Pos, "data-plane code reaches a control-plane mutation: %s %s; buffer the effect in the planeCtx and replay it at join",
					callee.ShortName(), witnessChain(p.Fset, callee, mut))
				continue
			}
			if callee.Decl != nil {
				visit(callee)
			}
		}
	}
	for _, n := range p.Graph.Nodes() {
		if roots[n] {
			visit(n)
		}
	}
}

// dataPlaneRoots returns the set of functions that may run on a worker
// goroutine: runPlane, planeCtx methods and *planeCtx-threading functions,
// and the //starklint:hotpath kernels of the data packages. A hotpath
// kernel declared inside a control-plane package (the storage shuffle
// kernels) is not a plane root: it mutates its own package's state under
// that package's own locking contract, and plane reachability into it is
// judged at its call sites.
func dataPlaneRoots(p *ModulePass) map[*Node]bool {
	roots := map[*Node]bool{}
	for _, n := range p.Graph.Nodes() {
		if n.Decl == nil || n.Pkg == nil {
			continue
		}
		hotpathRoot := hotpathAnnotated(n.Decl) && !p.Config.ControlPlanePkg(n.Pkg.ImportPath)
		if isDataPlaneDecl(n.Pkg.Info, n.Decl) || hotpathRoot {
			roots[n] = true
		}
	}
	return roots
}

// isDataPlaneDecl reports whether fd is data-plane code by signature: a
// planeCtx method, a function threading a *planeCtx parameter, or runPlane
// itself (which receives the context inside its batch entry).
func isDataPlaneDecl(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Name.Name == "runPlane" {
		return true
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			if namedTypeName(info.TypeOf(field.Type)) == "planeCtx" {
				return true
			}
		}
	}
	for _, field := range fd.Type.Params.List {
		if namedTypeName(info.TypeOf(field.Type)) == "planeCtx" {
			return true
		}
	}
	return false
}

// collectPlaneStores finds, for every function with source, the stores
// whose destination chain passes through control-plane state: assignments,
// ++/--, delete(...), and channel sends.
func collectPlaneStores(p *ModulePass) map[*Node][]planeStore {
	out := map[*Node][]planeStore{}
	for _, n := range p.Graph.Nodes() {
		if n.Decl == nil || n.Decl.Body == nil || n.Pkg == nil {
			continue
		}
		info := n.Pkg.Info
		check := func(dest ast.Expr) {
			if !chainHitsControlPlane(p.Config, info, dest) {
				return
			}
			out[n] = append(out[n], planeStore{pos: dest.Pos(), desc: exprString(dest)})
		}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			switch st := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(st.X)
			case *ast.SendStmt:
				check(st.Chan)
			case *ast.CallExpr:
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(st.Args) > 0 {
						check(st.Args[0])
					}
				}
			}
			return true
		})
	}
	return out
}

// chainHitsControlPlane reports whether the store destination mutates
// state reached THROUGH control-plane types: a field/element/deref write
// whose access chain passes a pointer to a control-plane named type
// (px.e.stats.X, st.dirty, be.px.e...), or a rebinding of a package-level
// var declared in a control-plane package. Binding a plain local variable —
// even one of control-plane pointer type, like `st := t.sr.st` — is not a
// store through the pointee and stays legal.
func chainHitsControlPlane(cfg *Config, info *types.Info, dest ast.Expr) bool {
	switch x := ast.Unparen(dest).(type) {
	case *ast.Ident:
		return controlPlanePkgVar(cfg, info, x)
	case *ast.SelectorExpr:
		return chainExprHits(cfg, info, x.X)
	case *ast.IndexExpr:
		return chainExprHits(cfg, info, x.X)
	case *ast.StarExpr:
		return chainExprHits(cfg, info, x.X)
	}
	return false
}

// chainExprHits reports whether e or any sub-expression of its access chain
// is a pointer to a control-plane named type, or is rooted at a
// package-level var of a control-plane package.
func chainExprHits(cfg *Config, info *types.Info, e ast.Expr) bool {
	for {
		e = ast.Unparen(e)
		if controlPlanePtr(cfg, info.TypeOf(e)) {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			// e.cl.Executor(exec).field: step through the call to its receiver.
			if s, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = s.X
				continue
			}
			return false
		case *ast.Ident:
			return controlPlanePkgVar(cfg, info, x)
		default:
			return false
		}
	}
}

// controlPlanePkgVar reports whether id resolves to a package-level var
// declared in a control-plane package.
func controlPlanePkgVar(cfg *Config, info *types.Info, id *ast.Ident) bool {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope() && cfg.ControlPlanePkg(v.Pkg().Path())
}

// controlPlanePtr reports whether t is a pointer to a named type declared
// in a control-plane package, excluding the plane-local overlay types.
func controlPlanePtr(cfg *Config, t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !cfg.ControlPlanePkg(obj.Pkg().Path()) {
		return false
	}
	return !cfg.PlaneLocalTypes[obj.Name()]
}

// solveMutators computes the fixed point of "mutates control-plane state":
// seeded with every function holding an offending store, then propagated
// backwards across call/ref edges. Each mutator keeps one
// deterministic witness (first found in sorted node order) for rendering.
func solveMutators(p *ModulePass, stores map[*Node][]planeStore) map[*Node]*mutWitness {
	mut := map[*Node]*mutWitness{}
	nodes := p.Graph.Nodes()
	for _, n := range nodes {
		if len(stores[n]) > 0 {
			st := stores[n][0]
			mut[n] = &mutWitness{store: &st}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if mut[n] != nil || n.Decl == nil {
				continue
			}
			for _, e := range n.Out {
				if mut[e.Callee] == nil {
					continue
				}
				mut[n] = &mutWitness{via: e.Callee}
				changed = true
				break
			}
		}
	}
	return mut
}

// witnessChain renders the path from a mutator down to its store, e.g.
// "(which calls (*storage.shuffleState).buildIndex, which stores st.start at
// storage.go:137)".
func witnessChain(fset *token.FileSet, n *Node, mut map[*Node]*mutWitness) string {
	var parts []string
	for cur, depth := n, 0; depth < 6; depth++ {
		w := mut[cur]
		if w == nil {
			break
		}
		if w.store != nil {
			pos := fset.Position(w.store.pos)
			parts = append(parts, fmt.Sprintf("stores %s at %s:%d", w.store.desc, filepath.Base(pos.Filename), pos.Line))
			break
		}
		parts = append(parts, "calls "+w.via.ShortName())
		cur = w.via
	}
	if len(parts) == 0 {
		return ""
	}
	return "(which " + strings.Join(parts, ", which ") + ")"
}
