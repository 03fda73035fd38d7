package stark_test

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// benchGo returns a runner of `go <cmd> -C bench <args>`, skipping the test
// when the toolchain cannot build the bench module against this checkout.
func benchGo(t *testing.T) func(args ...string) ([]byte, error) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH: cannot build the bench module")
	}
	run := func(args ...string) ([]byte, error) {
		return exec.Command(goTool, append([]string{args[0], "-C", "bench"}, args[1:]...)...).Output()
	}
	if out, err := run("list", "-m", "stark"); err != nil || !strings.Contains(string(out), "=>") {
		t.Skipf("toolchain cannot resolve bench/go.mod's replace of stark (go list -m stark: %q, %v)", out, err)
	}
	return run
}

// benchFailure renders a failed bench command with its output.
func benchFailure(args []string, out []byte, err error) string {
	msg := "go " + args[0] + " -C bench " + strings.Join(args[1:], " ") + ": " + err.Error() + "\n" + string(out)
	if ee, ok := err.(*exec.ExitError); ok {
		msg += string(ee.Stderr)
	}
	return msg
}

// TestBenchModuleVetsAndPasses makes bench/ visible to tier-1. The reference
// benchmark is a module of its own (bench/go.mod, `replace stark => ../`), so
// `go build ./... && go test ./...` here never compiles bench/layers.go
// against the internal packages it imports (record.JoinRecords,
// GroupByKeySorted, FromRecords, PartitionStable, Scratch, the storage
// store, ...). Vetting and smoke-testing it from this test turns a refactor
// that breaks the harness into a tier-1 failure.
func TestBenchModuleVetsAndPasses(t *testing.T) {
	run := benchGo(t)
	for _, args := range [][]string{{"vet", "."}, {"test", "-short", "-count=1", "."}} {
		if out, err := run(args...); err != nil {
			t.Fatal(benchFailure(args, out, err))
		}
	}
}

// TestBenchGoldenUnchanged recomputes every workload's full-size seed-1
// digests and virtual-time metrics (`--update-golden`) and requires them to
// equal bench/golden.json byte for byte. The bench module's own test only
// reaches the quick digests, so without this a refactor that moves virtual
// time at full size would surface only when the benchmark runs.
func TestBenchGoldenUnchanged(t *testing.T) {
	run := benchGo(t)
	args := []string{"run", ".", "--update-golden"}
	got, err := run(args...)
	if err != nil {
		t.Fatal(benchFailure(args, got, err))
	}
	want, err := os.ReadFile("bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bench --update-golden differs from bench/golden.json:\n got %s\nwant %s", got, want)
	}
}
