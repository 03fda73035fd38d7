package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// ErrwrapAnalyzer guards the typed-error chains the degradation machinery
// depends on: session admission matches ErrOverload/ErrDeadlineExceeded,
// the engine's OOM window matches ErrOOM, retry/recovery matches
// ErrStorage/ErrFetchFailed/ErrJobCancelled — all via errors.Is, which only
// works while every re-wrap on the path keeps the chain intact. Two rules:
//
//  1. A fmt.Errorf operand that is itself an error must use %w, never
//     %v/%s — the latter flattens the error to text and severs
//     errors.Is/As. When the surrounding function can carry one of the
//     module's typed sentinels (computed over the call graph: it references
//     a sentinel, or calls error-returning functions that do), the finding
//     names the sentinels whose identity would be lost.
//  2. A module error type (struct implementing error) holding an error
//     field must declare Unwrap() error or Unwrap() []error, or errors.Is
//     cannot see through it.
//
// Sentinels are inferred, not listed: every package-level `var ErrX = ...`
// whose type implements error counts, so new sentinels are covered the day
// they are declared.
var ErrwrapAnalyzer = &Analyzer{
	Name: "errwrap",
	Doc:  "flags error wrapping that severs errors.Is/Unwrap reachability of the typed sentinels",
	Run:  runErrwrap,
}

func runErrwrap(p *Pass) {
	sentinels := collectSentinels(p)
	carriers := solveCarriers(p, sentinels)
	checkErrorfCalls(p, carriers)
	checkUnwrapMethods(p)
}

// collectSentinels finds every package-level error-typed var named Err*
// across the loaded packages, keyed by "pkgpath.Name" so the same sentinel
// unifies across source-checked and export-data views.
func collectSentinels(p *Pass) map[string]string {
	out := map[string]string{}
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !strings.HasPrefix(name, "Err") {
				continue
			}
			if !implementsError(v.Type()) {
				continue
			}
			out[pkg.Types.Path()+"."+name] = name
		}
	}
	return out
}

// sentinelUse resolves an identifier to a sentinel display name ("" when it
// is not a sentinel reference).
func sentinelUse(sentinels map[string]string, info *types.Info, id *ast.Ident) string {
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return ""
	}
	return sentinels[v.Pkg().Path()+"."+v.Name()]
}

// solveCarriers computes, per function, the set of sentinel names its error
// results may carry: seeded with direct sentinel references, propagated
// backwards through calls to error-returning functions.
func solveCarriers(p *Pass, sentinels map[string]string) map[*Node]map[string]bool {
	carriers := map[*Node]map[string]bool{}
	nodes := p.Graph.Nodes()
	for _, n := range nodes {
		if n.Decl == nil || n.Decl.Body == nil || n.Pkg == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			if name := sentinelUse(sentinels, info, id); name != "" {
				if carriers[n] == nil {
					carriers[n] = map[string]bool{}
				}
				carriers[n][name] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.Decl == nil {
				continue
			}
			for _, e := range n.Out {
				from := carriers[e.Callee]
				if len(from) == 0 || !returnsError(e.Callee.Fn) {
					continue
				}
				for name := range from {
					if !carriers[n][name] {
						if carriers[n] == nil {
							carriers[n] = map[string]bool{}
						}
						carriers[n][name] = true
						changed = true
					}
				}
			}
		}
	}
	return carriers
}

func returnsError(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if implementsError(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkErrorfCalls enforces rule 1: error-typed operands of fmt.Errorf must
// use the %w verb.
func checkErrorfCalls(p *Pass, carriers map[*Node]map[string]bool) {
	for _, n := range p.Graph.Nodes() {
		if n.Decl == nil || n.Decl.Body == nil || n.Pkg == nil {
			continue
		}
		info := n.Pkg.Info
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			tv, ok := info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // non-constant format: nothing to check statically
			}
			verbs := errorfVerbs(constant.StringVal(tv.Value))
			if verbs == nil {
				return true
			}
			for i, arg := range call.Args[1:] {
				if i >= len(verbs) {
					break
				}
				verb := verbs[i]
				if verb == 'w' || verb == '*' {
					continue
				}
				at := info.TypeOf(arg)
				if at == nil || !implementsError(at) {
					continue
				}
				msg := "fmt.Errorf flattens an error operand with %" + string(verb) + "; use %w so errors.Is/As still reach the chain"
				if names := carriedNames(carriers[n]); names != "" {
					msg += " (this path can carry " + names + ")"
				}
				p.Reportf(arg.Pos(), "%s", msg)
			}
			return true
		})
	}
}

func carriedNames(set map[string]bool) string {
	if len(set) == 0 {
		return ""
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 4 {
		names = names[:4]
	}
	return strings.Join(names, ", ")
}

// checkUnwrapMethods enforces rule 2: every module struct type that
// implements error and stores an error field must expose Unwrap.
func checkUnwrapMethods(p *Pass) {
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !implementsError(ptr) {
				continue
			}
			var errField string
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if implementsError(f.Type()) {
					errField = f.Name()
					break
				}
			}
			if errField == "" {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), "Unwrap"); obj != nil {
				if _, isFunc := obj.(*types.Func); isFunc {
					continue
				}
			}
			p.Reportf(tn.Pos(), "%s implements error and wraps error field %q but has no Unwrap method; errors.Is cannot reach the wrapped sentinel", name, errField)
		}
	}
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// errorfVerbs maps each successive operand of a format string to its verb
// byte ('*' for a width/precision operand). It returns nil for formats it
// does not model (explicit argument indexes), so callers skip the check
// rather than misattribute verbs.
func errorfVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		if i < len(format) && format[i] == '[' {
			return nil
		}
		for i < len(format) && (format[i] == '.' || format[i] == '*' || (format[i] >= '0' && format[i] <= '9')) {
			if format[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		if i >= len(format) {
			break
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}
