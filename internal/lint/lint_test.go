package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"stark/internal/lint"
)

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

var (
	fixOnce sync.Once
	fixFset *token.FileSet
	fixImp  types.Importer
	fixErr  error
)

// fixtureImporter returns a shared FileSet and importer able to resolve
// everything the module and the fixtures import, built once per test run.
func fixtureImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	fixOnce.Do(func() {
		fixFset = token.NewFileSet()
		fixImp, fixErr = lint.NewRepoImporter(fixFset, moduleRoot(t), "time", "math/rand", "sort")
	})
	if fixErr != nil {
		t.Fatalf("building fixture importer: %v", fixErr)
	}
	return fixFset, fixImp
}

// loadFixture parses and type-checks one testdata directory as a package
// with the given import path.
func loadFixture(t *testing.T, dir, path string) *lint.Package {
	t.Helper()
	fset, imp := fixtureImporter(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	pkg, err := lint.Check(fset, path, files, imp)
	if err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	return pkg
}

// wantedFindings extracts `// want <analyzer>...` expectations from the
// fixture files as "file:line:analyzer" keys.
func wantedFindings(pkg *lint.Package) []string {
	var want []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(text)[1:] {
					want = append(want, fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, name))
				}
			}
		}
	}
	return want
}

func gotFindings(diags []lint.Diagnostic) []string {
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer))
	}
	return got
}

func diffFindings(t *testing.T, want, got []string, diags []lint.Diagnostic) {
	t.Helper()
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, "\n") == strings.Join(got, "\n") {
		return
	}
	t.Errorf("findings mismatch\nwant:\n  %s\ngot:\n  %s", strings.Join(want, "\n  "), strings.Join(got, "\n  "))
	for _, d := range diags {
		t.Logf("  full: %s", d)
	}
}

// lintPkgs runs the whole suite over pkgs under cfg.
func lintPkgs(cfg *lint.Config, pkgs ...*lint.Package) []lint.Diagnostic {
	return lint.Run(pkgs, cfg, lint.Analyzers())
}

// TestAnalyzerFixtures runs the whole suite over each analyzer's golden
// fixture package: positives must fire, negatives must stay silent,
// suppressed sites must be silenced by their reasoned directives, and no
// other analyzer may fire outside the fixture's annotations.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", a.Name), "fixture/"+a.Name)
			diags := lintPkgs(lint.PermissiveConfig(), pkg)
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

// TestModuleAnalyzerFixtures runs each analyzer alone over its golden
// fixture package: the one suppression scan Run shares across the suite
// must leave an analyzer's findings, and the stale-directive findings it
// reports itself, the same whichever other analyzers run beside it.
func TestModuleAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, filepath.Join("testdata", a.Name), "fixture/"+a.Name)
			diags := lint.Run([]*lint.Package{pkg}, lint.PermissiveConfig(), []*lint.Analyzer{a})
			var want []string
			for _, w := range wantedFindings(pkg) {
				if strings.HasSuffix(w, ":"+a.Name) || strings.HasSuffix(w, ":starklint") {
					want = append(want, w)
				}
			}
			diffFindings(t, want, gotFindings(diags), diags)
		})
	}
}

// TestDirectiveHygiene checks that malformed suppressions are findings in
// their own right and register no suppression: every time.Now line in the
// fixture must surface both a starklint directive finding and the
// underlying wallclock finding.
func TestDirectiveHygiene(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "directive"), "fixture/directive")
	diags := lintPkgs(lint.PermissiveConfig(), pkg)

	src, err := os.ReadFile(filepath.Join("testdata", "directive", "directive.go"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "time.Now()") {
			want = append(want,
				fmt.Sprintf("directive.go:%d:starklint", i+1),
				fmt.Sprintf("directive.go:%d:wallclock", i+1))
		}
	}
	if len(want) != 6 {
		t.Fatalf("expected 3 time.Now lines in fixture, derived %d keys", len(want))
	}
	diffFindings(t, want, gotFindings(diags), diags)
}

// checkSource type-checks an in-memory file as the given import path and
// runs the suite under the repo's DefaultConfig — the same policy
// cmd/starklint applies.
func checkSource(t *testing.T, path, src string) []lint.Diagnostic {
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
	return lintPkgs(lint.DefaultConfig(), pkg)
}

// TestSeededWallclockInEngine pins the acceptance criterion: a deliberate
// time.Now() introduced into stark/internal/engine must fail the lint under
// the default policy.
func TestSeededWallclockInEngine(t *testing.T) {
	const src = `package engine

import "time"

func deadline() time.Time { return time.Now() }
`
	diags := checkSource(t, "stark/internal/engine", src)
	if len(diags) != 1 || diags[0].Analyzer != "wallclock" {
		t.Fatalf("want exactly one wallclock finding, got %v", diags)
	}
}

// TestJournalReplayClean pins the crash-recovery acceptance criterion: the
// journal-replay shape — sorted walks over the surviving job table and
// virtual-clock recovery-delay arithmetic — must pass the default engine
// policy with zero findings and zero suppressions. If an analyzer ever
// starts flagging this idiom, the restart path in internal/engine/driver.go
// would need starklint:ignore directives, which the acceptance criteria
// forbid outside annotated bench sites.
func TestJournalReplayClean(t *testing.T) {
	const src = `package engine

import (
	"sort"
	"time"
)

type replayJob struct{ id int }

// resubmitJobs mirrors driver.go: deterministic order over a map-backed
// table, no wall-clock reads.
func resubmitJobs(jobTab map[int]*replayJob, live map[int]bool, start func(*replayJob)) {
	ids := make([]int, 0, len(jobTab))
	for id := range jobTab {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if live[id] {
			start(jobTab[id])
		}
	}
}

// recoveryDelay mirrors the resumeEpoch close: both endpoints are virtual
// times handed in by the event loop.
func recoveryDelay(crashedAt, resumedAt time.Duration) time.Duration {
	return resumedAt - crashedAt
}
`
	if diags := checkSource(t, "stark/internal/engine", src); len(diags) != 0 {
		t.Fatalf("journal-replay idiom must lint clean in the engine scope, got %v", diags)
	}
}

// TestDefaultConfigScope checks the policy boundaries: mapiter binds only
// to the ordered packages, while the determinism analyzers cover the whole
// module.
func TestDefaultConfigScope(t *testing.T) {
	const mapSrc = `package p

func keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if diags := checkSource(t, "stark/internal/engine", mapSrc); len(diags) != 1 || diags[0].Analyzer != "mapiter" {
		t.Fatalf("engine: want one mapiter finding, got %v", diags)
	}
	if diags := checkSource(t, "stark/internal/metrics", mapSrc); len(diags) != 0 {
		t.Fatalf("metrics is not an ordered package; got %v", diags)
	}

	const timeSrc = `package p

import "time"

var t0 = time.Now()
`
	if diags := checkSource(t, "stark/internal/metrics", timeSrc); len(diags) != 1 || diags[0].Analyzer != "wallclock" {
		t.Fatalf("metrics: want one wallclock finding, got %v", diags)
	}
	if diags := checkSource(t, "example.com/external", timeSrc); len(diags) != 0 {
		t.Fatalf("external package must be out of scope; got %v", diags)
	}
}

// TestSessionScopeOrdered pins the multi-tenant session layer into the
// ordered-package policy: its dispatch and dedup state is order-sensitive
// (DRR ring, running-entry table), so unsorted map sweeps must flag there,
// and the sorted-walk idiom the package actually uses must stay clean with
// zero suppressions — alongside the virtual-clock deadline arithmetic.
func TestSessionScopeOrdered(t *testing.T) {
	const badSrc = `package session

func drain(running map[int]*int) []*int {
	var out []*int
	for _, e := range running {
		out = append(out, e)
	}
	return out
}
`
	diags := checkSource(t, "stark/internal/session", badSrc)
	if len(diags) != 1 || diags[0].Analyzer != "mapiter" {
		t.Fatalf("session: want one mapiter finding for an unsorted sweep, got %v", diags)
	}

	const goodSrc = `package session

import (
	"sort"
	"time"
)

type entry struct{ key int }

// runningDuplicate mirrors drr.go: the running table is walked in sorted
// key order so the duplicate check is deterministic.
func runningDuplicate(running map[int]*entry, key int) bool {
	ids := make([]int, 0, len(running))
	for id := range running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if running[id].key == key {
			return true
		}
	}
	return false
}

// deadlineAt mirrors armDeadline: both operands are virtual times.
func deadlineAt(admitted, deadline time.Duration) time.Duration {
	return admitted + deadline
}
`
	if diags := checkSource(t, "stark/internal/session", goodSrc); len(diags) != 0 {
		t.Fatalf("session idioms must lint clean in the ordered scope, got %v", diags)
	}
}

// TestSuppressionSpansMultiLineExpr pins the directive-matching fix: a
// directive trailing part of a wrapped expression suppresses the finding
// at the expression's start line, but a directive inside a closure must
// not leak to the enclosing call.
func TestSuppressionSpansMultiLineExpr(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "suppressspan"), "fixture/suppressspan")
	diags := lintPkgs(lint.PermissiveConfig(), pkg)
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
	for _, d := range lintPkgs(lint.DefaultConfig(), pkgs...) {
		if d.Analyzer == "unreachable" {
			t.Errorf("partial load: %s", d)
		}
	}
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
	diags := checkSource(t, "stark/internal/engine", unbuffered)
	if len(diags) != 1 || diags[0].Analyzer != "planetaint" {
		t.Fatalf("want exactly one planetaint finding for the unbuffered effect, got %v", diags)
	}

	const buffered = prelude + `
func (px *planeCtx) cachePut(id int) { px.ops = append(px.ops, id) }
`
	if diags := checkSource(t, "stark/internal/engine", buffered); len(diags) != 0 {
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
	diags := checkSource(t, "stark/internal/engine", src)
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
	if diags := checkSource(t, "stark/internal/engine", fixed); len(diags) != 0 {
		t.Fatalf("%%w wrapping must lint clean, got %v", diags)
	}
}
