package lint

import (
	"go/ast"
	"go/types"
)

// cowTransforms names the dataset transforms whose closures execute inside
// the data plane against copy-on-write record slices.
var cowTransforms = map[string]bool{
	"Map": true, "MapValues": true, "FlatMap": true, "Filter": true,
	"ReduceByKey": true, "MapPartitions": true,
}

// CowpurityAnalyzer is the static twin of STARK_CHECK_COW=1. Since PR 3 the
// engine passes sources, cached partitions and collect staging by reference
// — transform closures see the canonical copy, not a defensive clone. The
// purity contract therefore forbids a closure passed to Map/FlatMap/Filter/
// ReduceByKey/MapPartitions from writing into the records it receives:
// field stores on a record.Record parameter, element assignment into a
// []record.Record parameter, taking an element's address, or appending to
// the parameter slice (which writes into shared backing capacity). Build
// new records (record.Pair / struct literals) instead. The runtime oracle
// only catches a mutation when a fingerprinted slice is re-verified; this
// catches the write at compile time.
var CowpurityAnalyzer = &Analyzer{
	Name: "cowpurity",
	Doc:  "flags mutation of copy-on-write record slices inside transform closures",
	Run:  runCowpurity,
}

func runCowpurity(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || !cowTransforms[fn.Name()] {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				switch namedTypeName(sig.Recv().Type()) {
				case "RDD", "Graph":
				default:
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkTransformClosure(pass, pkg.Info, fn.Name(), lit)
					}
				}
				return true
			})
		}
	}
}

func checkTransformClosure(pass *Pass, info *types.Info, transform string, lit *ast.FuncLit) {
	params := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	rootedAtParam := func(e ast.Expr) bool {
		obj := rootObject(info, e)
		return obj != nil && params[obj]
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkCowWrite(pass, info, transform, lhs, rootedAtParam)
			}
		case *ast.IncDecStmt:
			checkCowWrite(pass, info, transform, st.X, rootedAtParam)
		case *ast.UnaryExpr:
			if st.Op.String() == "&" {
				if ix, ok := ast.Unparen(st.X).(*ast.IndexExpr); ok &&
					isRecordSlice(info.TypeOf(ix.X)) && rootedAtParam(ix.X) {
					pass.Reportf(st.Pos(), "%s closure takes the address of an element of its copy-on-write input slice", transform)
				}
			}
		case *ast.CallExpr:
			if isBuiltinAppend(info, st) && len(st.Args) > 0 &&
				isRecordSlice(info.TypeOf(st.Args[0])) && rootedAtParam(st.Args[0]) {
				pass.Reportf(st.Pos(), "%s closure appends to its copy-on-write input slice (writes into shared backing capacity)", transform)
			}
		}
		return true
	})
}

// checkCowWrite flags lhs when it stores through a closure parameter into
// copy-on-write record data: a field of a record.Record parameter or an
// element of a []record.Record parameter.
func checkCowWrite(pass *Pass, info *types.Info, transform string, lhs ast.Expr, rootedAtParam func(ast.Expr) bool) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isRecordType(info.TypeOf(x.X)) && rootedAtParam(x) {
			pass.Reportf(lhs.Pos(), "%s closure writes %s field of its input record; records are copy-on-write — build a new record instead", transform, x.Sel.Name)
		}
	case *ast.IndexExpr:
		if isRecordSlice(info.TypeOf(x.X)) && rootedAtParam(x) {
			pass.Reportf(lhs.Pos(), "%s closure assigns into its copy-on-write input slice; build a new slice instead", transform)
		}
	}
}

// isRecordType reports whether t (possibly behind a pointer or alias) is
// record.Record.
func isRecordType(t types.Type) bool {
	return namedTypeName(t) == "Record" && namedTypePkgName(t) == "record"
}

// isRecordSlice reports whether t is []record.Record.
func isRecordSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isRecordType(s.Elem())
}
