package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotallocAnalyzer is the static twin of the testing.AllocsPerRun allocs/op
// ceilings. Kernels annotated with //starklint:hotpath in their doc comment
// (the row kernels and the shuffle store: GroupByKeySorted, JoinRecords,
// CoGroupRecords, PartitionRows, WriteMapOutputBatch, ReadReduce) and
// everything they reach through the call graph must avoid
// allocation-inducing constructs:
//
//   - interface boxing at call sites (a concrete value passed to an
//     interface parameter escapes to the heap); a pointer-shaped value — a
//     pointer, unsafe.Pointer, map, chan or func — is stored in the
//     interface word itself and stays silent;
//   - per-call map/slice composite literals and make(map)/make(chan);
//   - append growth from a nil/empty slice (no pre-sized capacity);
//   - fmt.Sprintf/Sprint/Sprintln and non-constant string concatenation;
//   - a function literal that captures variables, passed as a call argument:
//     the callee may keep it (an event queue, a message transport), so the
//     closure and its captured state escape to the heap on every call. A
//     literal that captures nothing is a static value and stays silent, and
//     so do the comparators and predicates handed to package sort and
//     slices, which call them before returning.
//
// make([]T, n[, c]) is deliberately NOT flagged: explicit pre-sizing is the
// kernels' own idiom, and the runtime budget catches an oversized one.
// Arguments to fmt/errors functions are exempt from the boxing check —
// error construction is off the success path the budget measures.
var HotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation-inducing constructs reachable from //starklint:hotpath kernels",
	Run:  runHotalloc,
}

func runHotalloc(p *Pass) {
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if seen[n] || n.Decl == nil || n.Decl.Body == nil || n.Pkg == nil {
			return
		}
		seen[n] = true
		checkHotBody(p, n)
		for _, e := range n.Out {
			visit(e.Callee)
		}
	}
	for _, n := range p.Graph.Nodes() {
		if n.Decl != nil && hotpathAnnotated(n.Decl) {
			visit(n)
		}
	}
}

// hotpathAnnotated reports whether fd carries a //starklint:hotpath line in
// its doc comment, marking it a hot-path allocation-budget root.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimRight(c.Text, " \t\r") == "//starklint:hotpath" {
			return true
		}
	}
	return false
}

func checkHotBody(p *Pass, n *Node) {
	info := n.Pkg.Info
	empty := emptySliceVars(info, n.Decl.Body)
	walkStack(n.Decl.Body, func(node ast.Node, stack []ast.Node) bool {
		switch x := node.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(x.Pos(), "per-call map literal allocates on the hot path; hoist it or reuse scratch state")
			case *types.Slice:
				if len(x.Elts) > 0 {
					p.Reportf(x.Pos(), "per-call slice literal allocates on the hot path; hoist it or reuse scratch state")
				}
			}
		case *ast.CallExpr:
			checkHotCall(p, info, x)
		case *ast.BinaryExpr:
			if x.Op != token.ADD || !isStringType(info.TypeOf(x)) {
				return true
			}
			if tv, ok := info.Types[ast.Expr(x)]; ok && tv.Value != nil {
				return true // constant-folded at compile time
			}
			// Flag the outermost + of a concatenation chain only.
			if len(stack) > 0 {
				if parent, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && parent.Op == token.ADD && isStringType(info.TypeOf(parent)) {
					return true
				}
			}
			p.Reportf(x.Pos(), "string concatenation allocates on the hot path; use a reused strings.Builder or byte slab")
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
				p.Reportf(x.Pos(), "string concatenation allocates on the hot path; use a reused strings.Builder or byte slab")
			}
			checkHotAppend(p, info, x, empty)
		}
		return true
	})
}

// checkHotCall flags make(map)/make(chan), the allocating fmt helpers, and
// interface boxing of concrete arguments at statically resolved call sites.
func checkHotCall(p *Pass, info *types.Info, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "make" && len(call.Args) > 0 {
			t := info.TypeOf(call.Args[0])
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(call.Pos(), "make(map) allocates on the hot path; reuse a cleared map or arena-backed table")
			case *types.Chan:
				p.Reportf(call.Pos(), "make(chan) allocates on the hot path; channels do not belong in kernels")
			}
			return
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !callsBeforeReturn[fn.Pkg().Path()] {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if v := capturedVar(info, lit); v != nil {
					p.Reportf(lit.Pos(), "func literal passed as an argument captures %s, so the closure escapes and allocates on the hot path; bind the handler once and pass its state as an argument", v.Name())
				}
			}
		}
	}
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln":
			p.Reportf(call.Pos(), "fmt.%s allocates its result on the hot path; use strconv or a reused builder", fn.Name())
		}
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "errors" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, no per-element boxing
			}
			if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTypeParam := types.Unalias(pt).(*types.TypeParam); isTypeParam {
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			continue // untyped nil / constants
		}
		if pointerShaped(at) {
			continue
		}
		p.Reportf(arg.Pos(), "passing %s boxes a %s into an interface on the hot path; use a concrete-typed helper", exprString(arg), at.String())
	}
}

// pointerShaped reports whether a value of type t is stored directly in an
// interface's data word — a pointer, unsafe.Pointer, map, chan or func — so
// boxing it allocates nothing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// callsBeforeReturn names the standard packages whose function arguments
// are called before the call returns and never kept.
var callsBeforeReturn = map[string]bool{"sort": true, "slices": true}

// capturedVar returns the first local variable lit refers to but does not
// declare, nil when it captures nothing. Package-level variables and struct
// fields are not captures.
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var found *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			found = v
		}
		return true
	})
	return found
}

// checkHotAppend flags `x = append(x, ...)` where x was declared as a nil
// or zero-capacity slice in the same body: every growth reallocates.
func checkHotAppend(p *Pass, info *types.Info, as *ast.AssignStmt, empty map[types.Object]bool) {
	if len(empty) == 0 || len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Uses[dst]
	if obj == nil || !empty[obj] {
		return
	}
	p.Reportf(call.Pos(), "append grows %s from an empty slice on the hot path; preallocate with make and a capacity", dst.Name)
}

// emptySliceVars collects slice variables declared with no backing array:
// `var x []T`, `x := []T{}`, or `x := make([]T, 0)` with no capacity.
func emptySliceVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	empty := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				empty[obj] = true
			}
		}
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isEmptySliceExpr(info, x.Rhs[i]) {
					continue
				}
				mark(id)
			}
		}
		return true
	})
	return empty
}

func isEmptySliceExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		t := info.TypeOf(x)
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Slice); ok {
			return len(x.Elts) == 0
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(x.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(x.Args) != 2 {
			return false
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		t := info.TypeOf(x.Args[0])
		if t == nil {
			return false
		}
		if _, ok := t.Underlying().(*types.Slice); !ok {
			return false
		}
		tv, ok := info.Types[x.Args[1]]
		return ok && tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
