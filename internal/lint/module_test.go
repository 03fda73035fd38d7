package lint_test

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"strings"
	"testing"

	"stark/internal/lint"
)

// TestModuleAnalyzerFixtures runs the interprocedural suite over each
// module analyzer's golden fixture package: positives must fire, negatives
// must stay silent, suppressed sites must be silenced by their directives.
func TestModuleAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.ModuleAnalyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", a.Name), "fixture/"+a.Name)
			diags := lint.RunModule([]*lint.Package{pkg}, lint.PermissiveConfig(), lint.ModuleAnalyzers())
			want := wantedFindings(pkg)
			if len(want) == 0 {
				t.Fatalf("fixture for %s declares no expected findings", a.Name)
			}
			fired := false
			for _, w := range want {
				if strings.HasSuffix(w, ":"+a.Name) {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("fixture for %s expects no findings from its own analyzer", a.Name)
			}
			diffFindings(t, want, gotFindings(diags), diags)
		})
	}
}

// TestSuppressionSpansMultiLineExpr pins the directive-matching fix: a
// directive trailing part of a wrapped expression suppresses the finding
// at the expression's start line, but a directive inside a closure must
// not leak to the enclosing call.
func TestSuppressionSpansMultiLineExpr(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "suppressspan"), "fixture/suppressspan")
	diags := lint.Run(pkg, lint.PermissiveConfig(), lint.Analyzers())
	want := wantedFindings(pkg)
	diffFindings(t, want, gotFindings(diags), diags)
}

// TestUnreachableSilentOnPartialLoad pins the whole-module rule: a load of
// one package leaves its callers out, so unreachable must report nothing.
func TestUnreachableSilentOnPartialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	pkgs, err := lint.Load(moduleRoot(t), "./internal/engine")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	for _, d := range lint.RunModule(pkgs, lint.DefaultConfig(), lint.ModuleAnalyzers()) {
		if d.Analyzer == "unreachable" {
			t.Errorf("partial load: %s", d)
		}
	}
}

// checkModuleSource type-checks an in-memory file as the given import path
// and runs the interprocedural suite under the repo's DefaultConfig.
func checkModuleSource(t *testing.T, path, src string) []lint.Diagnostic {
	t.Helper()
	fset, imp := fixtureImporter(t)
	f, err := parser.ParseFile(fset, "synthetic.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.Check(fset, path, []*ast.File{f}, imp)
	if err != nil {
		t.Fatal(err)
	}
	return lint.RunModule([]*lint.Package{pkg}, lint.DefaultConfig(), lint.ModuleAnalyzers())
}

// TestSeededUnbufferedEffectInEngine pins the acceptance criterion: a
// planeCtx side-effect site in stark/internal/engine that applies its effect
// instead of buffering it must fail the lint under the default policy, and
// the buffering twin must pass with zero findings and zero suppressions.
func TestSeededUnbufferedEffectInEngine(t *testing.T) {
	const prelude = `package engine

type Cluster struct{ recency []int }

func (c *Cluster) CachePut(id int) { c.recency = append(c.recency, id) }

type Engine struct{ cl *Cluster }

type planeCtx struct {
	e   *Engine
	ops []int
}
`
	const unbuffered = prelude + `
func (px *planeCtx) cachePut(id int) { px.e.cl.CachePut(id) }
`
	diags := checkModuleSource(t, "stark/internal/engine", unbuffered)
	if len(diags) != 1 || diags[0].Analyzer != "planetaint" {
		t.Fatalf("want exactly one planetaint finding for the unbuffered effect, got %v", diags)
	}

	const buffered = prelude + `
func (px *planeCtx) cachePut(id int) { px.ops = append(px.ops, id) }
`
	if diags := checkModuleSource(t, "stark/internal/engine", buffered); len(diags) != 0 {
		t.Fatalf("buffered side effect must lint clean, got %v", diags)
	}
}

// TestSeededSentinelFlattenInEngine pins the second acceptance criterion:
// re-wrapping a typed sentinel with %v instead of %w in the engine scope
// must fail the lint, with the lost sentinel named in the message.
func TestSeededSentinelFlattenInEngine(t *testing.T) {
	const src = `package engine

import (
	"errors"
	"fmt"
)

var ErrOOM = errors.New("engine: out of cache memory")

func admit(ok bool) error {
	if !ok {
		return ErrOOM
	}
	return nil
}

func wrapStep(id int) error {
	if err := admit(false); err != nil {
		return fmt.Errorf("step %d: %v", id, err)
	}
	return nil
}
`
	diags := checkModuleSource(t, "stark/internal/engine", src)
	if len(diags) != 1 || diags[0].Analyzer != "errwrap" {
		t.Fatalf("want exactly one errwrap finding for the %%v flatten, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "ErrOOM") {
		t.Fatalf("finding must name the sentinel whose identity is lost, got: %s", diags[0].Message)
	}

	const fixed = `package engine

import (
	"errors"
	"fmt"
)

var ErrOOM = errors.New("engine: out of cache memory")

func admit(ok bool) error {
	if !ok {
		return ErrOOM
	}
	return nil
}

func wrapStep(id int) error {
	if err := admit(false); err != nil {
		return fmt.Errorf("step %d: %w", id, err)
	}
	return nil
}
`
	if diags := checkModuleSource(t, "stark/internal/engine", fixed); len(diags) != 0 {
		t.Fatalf("%%w wrapping must lint clean, got %v", diags)
	}
}
