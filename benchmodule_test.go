package stark_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchModuleVetsAndPasses makes bench/ visible to tier-1. The reference
// benchmark is a module of its own (bench/go.mod, `replace stark => ../`), so
// `go build ./... && go test ./...` here never compiles bench/layers.go
// against the internal packages it imports (record.JoinRecords,
// GroupByKeySorted, FromRecords, PartitionStable, Scratch, the storage
// store, ...). Vetting and smoke-testing it from this test turns a refactor
// that breaks the harness into a tier-1 failure.
func TestBenchModuleVetsAndPasses(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH: cannot build the bench module")
	}
	run := func(args ...string) (string, error) {
		out, err := exec.Command(goTool, append([]string{args[0], "-C", "bench"}, args[1:]...)...).CombinedOutput()
		return strings.TrimSpace(string(out)), err
	}
	if out, err := run("list", "-m", "stark"); err != nil || !strings.Contains(out, "=>") {
		t.Skipf("toolchain cannot resolve bench/go.mod's replace of stark (go list -m stark: %q, %v)", out, err)
	}
	for _, args := range [][]string{{"vet", "."}, {"test", "-short", "-count=1", "."}} {
		if out, err := run(args...); err != nil {
			t.Fatalf("go %s -C bench %s: %v\n%s", args[0], strings.Join(args[1:], " "), err, out)
		}
	}
}
