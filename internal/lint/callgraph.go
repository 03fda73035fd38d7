package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph that the
// interprocedural analyzers (planetaint, hotalloc, errwrap) run on. The
// graph is conservative in the direction the analyzers need: it
// over-approximates what a function may reach, never under-approximates.
//
//   - Static calls and method calls resolve through go/types.
//   - Interface-method calls expand to every module-declared concrete type
//     whose method set satisfies the interface (method-set expansion). Calls
//     through interfaces declared outside the module (error, io.Writer, ...)
//     are not expanded — the module cannot enumerate their implementors, and
//     the analyzers treat external code as opaque.
//   - Taking a function or method value (w.close, record.KeySum64 passed as
//     an argument) adds a reference edge: the value may be called later, so
//     reachability must include it.
//   - Function literals are folded into their enclosing declaration: a store
//     inside a closure built by runPlane is runPlane's store.
//
// Nodes are keyed by types.Func.FullName with generic instantiations
// normalised to their Origin. The string key is load-bearing: the same
// function is represented by distinct *types.Func objects when seen from
// its own source-checked package versus from a dependent package's export
// data, but FullName agrees, so cross-package edges land on one node.

// EdgeKind classifies how a call-graph edge was derived.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a statically resolved function/method.
	EdgeStatic EdgeKind = iota
	// EdgeIface is a conservative expansion of an interface-method call to a
	// concrete implementation declared somewhere in the module.
	EdgeIface
	// EdgeRef records a function or method value being taken; it may be
	// called later, so reachability follows it like a call.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeRef:
		return "ref"
	}
	return "unknown"
}

// Edge is one outgoing call/reference from a node.
type Edge struct {
	Callee *Node
	Pos    token.Pos
	Kind   EdgeKind
}

// Node is one function or method in the call graph.
type Node struct {
	Name string      // types.Func FullName, generic origin form
	Fn   *types.Func // one representative object (source-checked if available)
	Decl *ast.FuncDecl
	Pkg  *Package // owning loaded package; nil when only seen via import
	Out  []Edge
}

// ShortName renders the node for diagnostics with import-path directories
// trimmed: "(*stark/internal/storage.Store).ReadReduce" becomes
// "(*storage.Store).ReadReduce".
func (n *Node) ShortName() string {
	head, rest := "", n.Name
	if strings.HasPrefix(rest, "(") {
		head, rest = "(", rest[1:]
	}
	if strings.HasPrefix(rest, "*") {
		head, rest = head+"*", rest[1:]
	}
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		rest = rest[i+1:]
	}
	return head + rest
}

// CallGraph holds every node discovered across the loaded packages.
type CallGraph struct {
	nodes map[string]*Node
}

// Node returns the node with the given FullName key, or nil.
func (g *CallGraph) Node(name string) *Node { return g.nodes[name] }

// Nodes returns every node sorted by name, for deterministic iteration.
func (g *CallGraph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// getNode returns fn's node, creating it on first sight. The key is the
// FullName of fn's generic origin, so arena.Pool[int32].Take and
// arena.Pool[int64].Take share the node of the single declaration they
// instantiate.
func (g *CallGraph) getNode(fn *types.Func) *Node {
	fn = fn.Origin()
	key := fn.FullName()
	n := g.nodes[key]
	if n == nil {
		n = &Node{Name: key, Fn: fn}
		g.nodes[key] = n
	}
	return n
}

// BuildCallGraph constructs the module call graph over the loaded packages.
// All packages must share one token.FileSet (as Load guarantees) so edge
// positions resolve uniformly.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: map[string]*Node{}}
	b := &graphBuilder{
		g:         g,
		loaded:    map[string]bool{},
		ifaceMemo: map[*types.Interface][]*types.Func{},
	}
	// Pass 1: register every declared function so Decl/Pkg are bound to the
	// source-checked object regardless of package processing order.
	for _, pkg := range pkgs {
		b.loaded[pkg.ImportPath] = true
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.getNode(fn)
				n.Fn = fn.Origin()
				n.Decl = fd
				n.Pkg = pkg
			}
		}
	}
	// Candidate concrete types for interface-method expansion: every named
	// non-interface type declared in a loaded package.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}
	sort.Slice(b.concrete, func(i, j int) bool {
		return b.concrete[i].Obj().Id() < b.concrete[j].Obj().Id()
	})
	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b.addEdges(g.getNode(fn), pkg, fd)
			}
		}
	}
	return g
}

type graphBuilder struct {
	g        *CallGraph
	loaded   map[string]bool // import paths with loaded source
	concrete []*types.Named  // module-declared concrete named types

	// ifaceMemo caches, per interface, the concrete methods its dynamic
	// dispatch may reach across all module-declared implementors.
	ifaceMemo map[*types.Interface][]*types.Func
}

// addEdges walks fd's body recording every call and function-value
// reference as an outgoing edge of caller. Function literals fold into fd.
func (b *graphBuilder) addEdges(caller *Node, pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	// consumed marks selector/ident nodes already handled as a call's Fun,
	// so the generic Ident pass below does not double-count them as refs.
	consumed := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			id := callFunIdent(x)
			if id == nil {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				// builtin, type conversion, or call of a func value.
				return true
			}
			consumed[id] = true
			b.addCall(caller, fn, x.Pos(), EdgeStatic)
		case *ast.Ident:
			if consumed[x] {
				return true
			}
			fn, ok := info.Uses[x].(*types.Func)
			if !ok {
				return true
			}
			b.addCall(caller, fn, x.Pos(), EdgeRef)
		}
		return true
	})
}

// addCall records caller -> fn. Interface methods expand to the concrete
// implementations declared in the module; non-interface targets get a
// single edge of the given kind.
func (b *graphBuilder) addCall(caller *Node, fn *types.Func, pos token.Pos, kind EdgeKind) {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if types.IsInterface(recv) {
			for _, impl := range b.ifaceTargets(fn, recv) {
				caller.Out = append(caller.Out, Edge{
					Callee: b.g.getNode(impl), Pos: pos, Kind: EdgeIface,
				})
			}
			return
		}
	}
	caller.Out = append(caller.Out, Edge{
		Callee: b.g.getNode(fn), Pos: pos, Kind: kind,
	})
}

// ifaceTargets returns the concrete methods that a dynamic dispatch of the
// interface method fn may invoke: for every module-declared concrete type
// whose method set satisfies fn's interface, the method with fn's name.
// Interfaces declared outside the loaded module yield no targets — their
// implementors cannot be enumerated, so external dispatch stays opaque.
func (b *graphBuilder) ifaceTargets(fn *types.Func, recv types.Type) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if fn.Pkg() == nil || !b.loaded[fn.Pkg().Path()] {
		return nil
	}
	if targets, ok := b.ifaceMemo[iface]; ok {
		return filterByName(targets, fn.Name())
	}
	var methods []*types.Func
	for _, named := range b.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				methods = append(methods, impl)
			}
		}
	}
	b.ifaceMemo[iface] = methods
	return filterByName(methods, fn.Name())
}

func filterByName(fns []*types.Func, name string) []*types.Func {
	var out []*types.Func
	for _, f := range fns {
		if f.Name() == name {
			out = append(out, f)
		}
	}
	return out
}

// callFunIdent digs the identifier out of a call's Fun: plain ident,
// selector, or a generic instantiation of either (f[T](x)).
func callFunIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	switch e := fun.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
