package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one fully type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg mirrors the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
}

func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data recorded in the
// build cache, located via `go list -deps -export`. Building on the gc
// importer keeps the loader dependency-free: the same toolchain that built
// the cache serves the type information.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("starklint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Load lists the packages matching the go-list patterns under dir, parses
// their non-test Go files, and type-checks them against build-cache export
// data. Test files are excluded by design: the determinism contracts bind
// shipped code, while tests legitimately use wall time and ad-hoc
// randomness to drive oracles. A package that fails to type-check aborts
// the load — linting an uncompilable tree would only produce noise.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	deps, err := goList(dir, append([]string{"-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	targets, err := goList(dir, append([]string{"-json=Dir,ImportPath,Export,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if t.Standard || len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("starklint: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		pkg, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("starklint: type-check %s: %w", t.ImportPath, err)
		}
		pkg.Dir = t.Dir
		out = append(out, pkg)
	}
	return out, nil
}

// Check type-checks already-parsed files as a package with the given import
// path and wraps the result for analysis. The import path matters: scope
// policies (which packages must stay wall-clock-free, which have ordered
// scheduling state) key on it.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return &Package{
		ImportPath: path,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
