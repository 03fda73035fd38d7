package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapiterAnalyzer enforces ordered use of map iteration in the scheduling
// packages (engine, sched, group, partition). Go randomizes map range
// order per run, so a loop that appends to a slice, sends on a channel, or
// accumulates order-sensitive values (string concat, floating-point sums)
// straight out of a map range produces different orderings run to run —
// exactly the class of bug that only surfaces as a flaky parallelism-1-vs-N
// diff. Appends are redeemed by a sort.* / slices.* call on the destination
// later in the same function (the collect-then-sort idiom used throughout
// the engine); sends and order-sensitive accumulation are flagged outright.
// Per-key writes (m2[k] = v) and commutative integer accumulation stay
// legal: they are order-independent.
var MapiterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "flags map-range loops that feed ordered state without an intervening sort",
	Run:  runMapiter,
}

func runMapiter(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !pass.Config.OrderedPkg(pkg.ImportPath) {
			continue
		}
		for _, f := range pkg.Files {
			walkStack(f, func(n ast.Node, stack []ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, pkg.Info, rs, enclosingFuncBody(stack))
				return true
			})
		}
	}
}

// enclosingFuncBody returns the body of the innermost function literal or
// declaration on the ancestor stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	declaredInLoop := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(st.Pos(), "send inside map-range loop publishes results in nondeterministic map order")
		case *ast.AssignStmt:
			if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
				for i, rhs := range st.Rhs {
					if i >= len(st.Lhs) {
						break
					}
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) {
						continue
					}
					id, ok := st.Lhs[i].(*ast.Ident)
					if !ok {
						continue // keyed appends (m[k] = append(m[k], ...)) commute per key
					}
					obj := info.Uses[id]
					if obj == nil {
						obj = info.Defs[id]
					}
					if obj == nil || declaredInLoop(obj) {
						continue
					}
					if sortedAfter(info, fnBody, rs.End(), obj) {
						continue
					}
					pass.Reportf(st.Pos(), "append to %s inside map-range loop without a following sort; map order is nondeterministic", id.Name)
				}
				return true
			}
			// Compound assignment: order-sensitive accumulators only.
			if len(st.Lhs) == 1 && orderSensitiveAccum(info, st.Tok, st.Lhs[0]) {
				obj := rootObject(info, st.Lhs[0])
				if obj != nil && !declaredInLoop(obj) {
					pass.Reportf(st.Pos(), "order-sensitive accumulation into %s inside map-range loop (%s on %s)",
						exprString(st.Lhs[0]), st.Tok, info.TypeOf(st.Lhs[0]))
				}
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// orderSensitiveAccum reports whether tok applied to lhs accumulates in an
// order-dependent way: string concatenation, or floating-point arithmetic
// (addition is not associative in floats, so map order changes the bits).
func orderSensitiveAccum(info *types.Info, tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	t := info.TypeOf(lhs)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch {
	case basic.Info()&types.IsString != 0:
		return tok == token.ADD_ASSIGN
	case basic.Info()&(types.IsFloat|types.IsComplex) != 0:
		return true
	}
	return false
}

// sortedAfter reports whether some sort.* or slices.* call lexically after
// pos in fnBody mentions obj in its arguments — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
