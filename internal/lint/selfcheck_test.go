package lint_test

import (
	"testing"

	"stark/internal/lint"
)

// TestRepoIsClean asserts `starklint ./...` is clean on the repo itself:
// every intentional contract exception carries a reasoned in-source
// suppression, and no new violation has crept in. This is the same load
// path cmd/starklint uses, so a failure here reproduces exactly with
// `go run ./cmd/starklint ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check shells out to go list; skipped in -short")
	}
	root := moduleRoot(t)
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("suspiciously few packages loaded (%d); loader is likely broken", len(pkgs))
	}
	diags := lintPkgs(lint.DefaultConfig(), pkgs...)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the finding or add //starklint:ignore <analyzer> <reason> with a real justification")
	}
}
