# Stark reproduction — common entry points.

GO ?= go

.PHONY: all build vet lint lint-json loc test test-short test-race chaos chaos-nightly multitenant cachepolicy shuffle fuzz bench-engine bench-smoke bench-pairs examples experiments results results-check clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus starklint, the repo's determinism/purity/
# plane-isolation analyzers (see DESIGN.md section 11) and the module-wide
# call-graph suite (planetaint, hotalloc, errwrap, unreachable; section 16). Gate for
# every bench target so numbers never come off a dirty tree.
lint: vet
	$(GO) run ./cmd/starklint ./...

# Same analyzers, machine-readable: one JSON object per finding, written to
# starklint-findings.json for CI artifacts and editor tooling. Exit status
# matches `make lint`, so the file holds the findings whenever this fails.
lint-json: vet
	$(GO) run ./cmd/starklint -json ./... > starklint-findings.json

# The size CHANGES.md quotes per PR: lines of non-test Go outside bench/,
# testdata/ and the benchmark's build cache, then the same for _test.go files.
LOC_FIND = find . -name '*.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*'

loc:
	@echo "non-test Go lines: $$($(LOC_FIND) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines:     $$($(LOC_FIND) -name '*_test.go' -exec cat {} + | wc -l) in $$($(LOC_FIND) -name '*_test.go' | wc -l) files"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# SEEDS overrides the chaos profile's fault-schedule count; 0 keeps the
# profile default (30 for chaos, 120 for chaos-nightly).
SEEDS ?= 0

chaos:
	$(GO) run ./cmd/starkbench -experiment chaos -seeds $(SEEDS)

chaos-nightly:
	$(GO) run ./cmd/starkbench -experiment chaos -nightly -dump-faults -seeds $(SEEDS)

# Multi-tenant overload oracle: session-layer tests under the race detector
# at 1 and 4 procs, then the 30-seed storm/poison sweep (SEEDS overrides).
multitenant:
	$(GO) test -race -cpu 1,4 ./internal/session/
	$(GO) run ./cmd/starkbench -experiment multitenant -seeds $(SEEDS)

# Eviction-policy A/B: engine and cluster tests under the race detector at
# 1 and 4 procs, then the LRU-vs-DAG recompute comparison (SEEDS overrides
# the per-arm seed count).
cachepolicy:
	$(GO) test -race -cpu 1,4 ./internal/cluster/ ./internal/engine/
	$(GO) run ./cmd/starkbench -experiment cachepolicy -seeds $(SEEDS)

# Shuffle store and pooled planes: reduce tasks on the worker pool read one
# shared reduce-major copy of a shuffle, so both packages run under the race
# detector at 1 and 4 procs (with the cluster's block tables: CI's "Shuffle
# store and pooled planes" step), then with copy-on-write checking on. The store
# shares rows on both sides: it adopts each map task's input rows (it
# fingerprints every output at commit and re-checks before it transposes)
# and publishes reduce views (it fingerprints every reduce partition). The
# record and rdd kernels join them: every Join and CoGroup value of a
# partition points into one slab, which a cached block hands to every plane
# that reads it. The copy-on-write run is CI's "Test (copy-on-write checks)"
# step: the same packages, also under the race detector.
shuffle:
	$(GO) test -race -cpu 1,4 -count=1 ./internal/storage/ ./internal/engine/ ./internal/record/ ./internal/rdd/ ./internal/cluster/
	STARK_CHECK_COW=1 $(GO) test -race ./internal/storage/ ./internal/engine/ ./internal/rdd/ ./internal/record/ ./internal/stream/ ./internal/workload/ .

# Fuzz every fuzz target for 30 s each (go test -fuzz takes one target in
# one package per run). Tier-1 replays only their seed corpora; a failing
# input lands in the package's testdata/fuzz/ and joins the corpus once
# committed.
fuzz:
	$(GO) test ./internal/journal/ -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 30s
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzCoGroupKernel$$' -fuzztime 30s
	$(GO) test ./internal/record/ -run '^$$' -fuzz '^FuzzPartitionRows$$' -fuzztime 30s

# Engine/record/storage/cluster/partition hot-path benchmarks
# (GroupByKeySorted, the joins at the 1200-key, batch-join and shared-prefix
# shapes, bucketing, the shuffle store round trip at the fat and wide shapes,
# the parallel data plane's 1-vs-4 worker pair, MCF offer scoring and the
# unit index against its reference recount, the cache read over the
# taxi-window blocks, range routing over 255 bounds, and the event loop's
# schedule-and-step round trip), benchmarks only: the tests run elsewhere.
# Same package list as the CI "Hot-path benchmarks" step.
bench-engine: lint
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=3x ./internal/engine/ ./internal/record/ ./internal/storage/ ./internal/cluster/ ./internal/partition/ ./internal/vtime/

# The reference benchmark (BENCHMARK.json, `bash bench/run.sh`) is its own
# module, invisible to `go build ./...` and `go test ./...` here: vet and
# test it so an internal-package refactor cannot break it silently.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# Alternated pairs of one benchmark workload at two revisions (the parent
# and the change; the same revision twice is the A/A check): each side's
# median and quartiles of every end-to-end metric and its win count. Each
# revision is exported to .bench_build/pairs/ and every run is its own
# BENCHMARK.json command (bench/run.sh, which builds and runs the benchmark)
# with only --workload added. A pair of 25 s runs takes about a minute.
REV_A ?= HEAD
REV_B ?= HEAD
WORKLOAD ?= taxi-window
PAIRS ?= 10

bench-pairs:
	$(GO) run ./cmd/benchpairs -a $(REV_A) -b $(REV_B) -workload $(WORKLOAD) -pairs $(PAIRS)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/logmining -hours 4 -cogroup 3
	$(GO) run ./examples/taxiads -hours 3
	$(GO) run ./examples/trending -steps 6
	$(GO) run ./examples/pagerank -nodes 500 -iterations 4
	$(GO) run ./examples/forensics

experiments:
	$(GO) run ./cmd/starkbench -experiment all -quick

# Regenerate results/*.txt, the full-profile output EXPERIMENTS.md quotes
# (~2 min). Figures 1 to 18 share one file and the other experiments get one
# each; the robustness suites (chaos, multitenant, cachepolicy) have none.
# Run it with any change that moves virtual time.
results:
	for x in fig1 fig7 fig11 fig12 fig13 fig17 fig18; do $(GO) run ./cmd/starkbench -experiment $$x || exit 1; done > results/fig01_to_fig18.txt
	for x in fig19 fig20 recovery churn ablations; do $(GO) run ./cmd/starkbench -experiment $$x > results/$$x.txt || exit 1; done

# Regenerate results/ and fail when any committed transcript no longer
# matches the code; only the wall-clock "done in" lines may differ. The
# nightly CI job runs it, so results cannot drift silently.
results-check: results
	git diff --exit-code -I 'done in .*\(wall\)' -- results/

clean:
	$(GO) clean ./...
