package lint

import (
	"go/token"
	"go/types"
)

// Helpers the fixture tests in package lint_test share.

// PermissiveConfig binds every analyzer to every package; fixture tests use
// it so scope policy cannot mask an analyzer bug.
func PermissiveConfig() *Config {
	all := func(string) bool { return true }
	return &Config{
		DeterministicPkg: all,
		OrderedPkg:       all,
		ControlPlanePkg:  all,
	}
}

// NewRepoImporter builds a types.Importer that can resolve every package the
// module (rooted at dir) depends on, plus the extra import paths listed.
// Fixture tests use it to type-check testdata packages that import real repo
// packages such as stark/internal/record.
func NewRepoImporter(fset *token.FileSet, dir string, extra ...string) (types.Importer, error) {
	args := append([]string{"-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Standard", "./..."}, extra...)
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exportImporter(fset, exports), nil
}
