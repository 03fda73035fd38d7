package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"stark"
)

// CachePolicyConfig sizes the eviction-policy A/B: a cached base dataset
// joined (narrow, co-partitioned) against a fresh cached batch per round,
// under a cache deliberately too small to hold the base plus two batches.
type CachePolicyConfig struct {
	Executors int
	Slots     int
	Parts     int

	BaseRecords  int // distinct keys in the long-lived base dataset
	BatchRecords int // distinct keys per per-round batch (drawn from base's key space)
	Rounds       int

	// Memory is the per-executor cache capacity in simulated bytes. Zero
	// auto-sizes it from a probe run to baseBytes + 1.25*batchBytes, the
	// regime where each round's batch puts force eviction but the stale
	// previous batch alone can absorb the whole need.
	Memory int64

	Seeds int // engine timing seeds per arm; both arms share each seed
}

// DefaultCachePolicy keeps one executor so both arms contend for a single
// deterministic block store.
func DefaultCachePolicy() CachePolicyConfig {
	return CachePolicyConfig{
		Executors:    1,
		Slots:        4,
		Parts:        8,
		BaseRecords:  4000,
		BatchRecords: 1500,
		Rounds:       8,
		Seeds:        5,
	}
}

// Quick is the -quick profile: 2 seeds per arm, 6 rounds.
func (c CachePolicyConfig) Quick() CachePolicyConfig {
	c.Seeds = 2
	c.Rounds = 6
	return c
}

// CachePolicyArm aggregates one policy's runs over all seeds.
type CachePolicyArm struct {
	Policy   string
	Cache    stark.CacheStats // counters summed over seeds
	HitRate  float64          // mean over seeds
	Makespan time.Duration    // summed virtual makespan over seeds
}

// CachePolicyResult is the LRU-vs-DAG comparison. Fingerprints must match
// per seed, and the DAG arm must strictly reduce recomputes-after-eviction.
type CachePolicyResult struct {
	Cfg    CachePolicyConfig
	Memory int64 // resolved per-executor capacity

	LRU CachePolicyArm
	DAG CachePolicyArm
}

type cachePolicyRun struct {
	fingerprint string
	cache       stark.CacheStats
	hitRate     float64
	makespan    time.Duration
	err         error
}

// cpBatchRecords builds round r's batch: the same unique keys every round,
// but with value payloads sized by partition parity — partitions in the
// heavy half carry large values, the rest small, and the heavy half flips
// each round. Round totals stay constant, yet every heavy put needs more
// bytes than the (previously light) stale part at the LRU tail, so plain
// LRU must keep evicting past it into the base partitions interleaved
// there. The DAG-aware policy instead satisfies the whole need from its
// first pass over zero-reference stale blocks anywhere in the cache.
func cpBatchRecords(cfg CachePolicyConfig, p stark.Partitioner, r int) []stark.Record {
	heavy := strings.Repeat("x", 160)
	light := strings.Repeat("x", 8)
	recs := make([]stark.Record, cfg.BatchRecords)
	for j := range recs {
		key := fmt.Sprintf("k%06d", j%cfg.BaseRecords)
		pad := light
		if (p.PartitionFor(key) < cfg.Parts/2) == (r%2 == 0) {
			pad = heavy
		}
		recs[j] = stark.Pair(key, pad)
	}
	return recs
}

// cpBase builds the long-lived cached base: a per-key sum over BaseRecords
// unique keys, partitioned by p.
func cpBase(ctx *stark.Context, cfg CachePolicyConfig, p stark.Partitioner) *stark.RDD {
	recs := make([]stark.Record, cfg.BaseRecords)
	for i := range recs {
		recs[i] = stark.Pair(fmt.Sprintf("k%06d", i), i)
	}
	sum := func(a, b any) any { return a.(int) + b.(int) }
	return ctx.TextFile("cp-base", recs, cfg.Parts).ReduceByKey(p, sum).Cache()
}

// cpRound caches round r's fresh batch and counts its join with base.
func cpRound(ctx *stark.Context, cfg CachePolicyConfig, p stark.Partitioner, base *stark.RDD, r int) (int64, error) {
	first := func(a, b any) any { return a }
	batch := ctx.TextFile(fmt.Sprintf("cp-batch-%02d", r), cpBatchRecords(cfg, p, r), cfg.Parts).
		ReduceByKey(p, first).Cache()
	n, _, err := batch.Join(p, base).Count()
	return n, err
}

// cachePolicyWorkload materializes a cached base (ReduceByKey over unique
// keys, partitioned by p), then for each round builds a fresh cached batch
// with the same partitioner and counts batch.Join(p, base). Both join deps
// are narrow (equivalent partitioners, equal partition counts), so the
// single result stage's narrow chain holds BOTH cached parents: the
// DAG-aware policy keeps base pinned by reference counts exactly while the
// batch's puts force eviction, and clears stale zero-reference batches
// first. LRU interleaves stale-batch and base victims by recency and pays
// recomputes for the base partitions it ages out.
func cachePolicyWorkload(cfg CachePolicyConfig, policy string, seed int64, memory int64) (run cachePolicyRun) {
	defer recoverInto(&run.err)
	ctx := stark.NewContext(
		stark.WithExecutors(cfg.Executors),
		stark.WithSlots(cfg.Slots),
		stark.WithMemory(memory),
		stark.WithSeed(seed),
		stark.WithCachePolicy(policy),
	)
	defer func() {
		run.cache = ctx.CacheStats()
		run.hitRate = ctx.Stats().CacheHitRate()
		run.makespan = ctx.Now()
	}()

	p := stark.NewHashPartitioner(cfg.Parts)
	base := cpBase(ctx, cfg, p)
	h := fnv.New64a()
	total, _, err := base.Count()
	if err != nil {
		run.err = fmt.Errorf("base build: %w", err)
		return run
	}
	fmt.Fprintf(h, "base=%d;", total)

	for r := 0; r < cfg.Rounds; r++ {
		n, err := cpRound(ctx, cfg, p, base, r)
		if err != nil {
			run.err = fmt.Errorf("round %d: %w", r, err)
			return run
		}
		fmt.Fprintf(h, "r%d=%d;", r, n)
	}
	run.fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return run
}

// probeCachePolicyMemory measures the workload's cached footprint under an
// effectively unbounded cache: base bytes right after the base materializes,
// batch bytes as the increment after one round (the stale batch stays
// cached when nothing forces it out).
func probeCachePolicyMemory(cfg CachePolicyConfig) (int64, error) {
	ctx := stark.NewContext(
		stark.WithExecutors(cfg.Executors),
		stark.WithSlots(cfg.Slots),
		stark.WithMemory(1<<40),
		stark.WithSeed(1),
	)
	p := stark.NewHashPartitioner(cfg.Parts)
	base := cpBase(ctx, cfg, p)
	if _, _, err := base.Count(); err != nil {
		return 0, fmt.Errorf("probe base: %w", err)
	}
	baseBytes := cacheUsed(ctx)

	if _, err := cpRound(ctx, cfg, p, base, 0); err != nil {
		return 0, fmt.Errorf("probe round: %w", err)
	}
	batchBytes := cacheUsed(ctx) - baseBytes
	if baseBytes <= 0 || batchBytes <= 0 {
		return 0, fmt.Errorf("probe measured degenerate sizes: base=%d batch=%d", baseBytes, batchBytes)
	}
	return baseBytes + batchBytes + batchBytes/4, nil
}

func cacheUsed(ctx *stark.Context) int64 {
	var used int64
	for _, es := range ctx.ClusterStats() {
		used += es.CacheUsed
	}
	return used
}

// RunCachePolicy runs both arms on the same seeds and enforces the
// acceptance contract: bit-identical results per seed and strictly fewer
// recomputes-after-eviction under the DAG-aware policy.
func RunCachePolicy(cfg CachePolicyConfig) (CachePolicyResult, error) {
	res := CachePolicyResult{Cfg: cfg, LRU: CachePolicyArm{Policy: "lru"}, DAG: CachePolicyArm{Policy: "dag"}}
	mem := cfg.Memory
	if mem == 0 {
		var err error
		if mem, err = probeCachePolicyMemory(cfg); err != nil {
			return res, err
		}
	}
	res.Memory = mem

	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + 7*s)
		lru := cachePolicyWorkload(cfg, "lru", seed, mem)
		if lru.err != nil {
			return res, fmt.Errorf("seed %d lru: %w", seed, lru.err)
		}
		dag := cachePolicyWorkload(cfg, "dag", seed, mem)
		if dag.err != nil {
			return res, fmt.Errorf("seed %d dag: %w", seed, dag.err)
		}
		if lru.fingerprint != dag.fingerprint {
			return res, fmt.Errorf("seed %d: result divergence between policies: lru=%s dag=%s",
				seed, lru.fingerprint, dag.fingerprint)
		}
		accumulateArm(&res.LRU, lru)
		accumulateArm(&res.DAG, dag)
	}
	res.LRU.HitRate /= float64(seeds)
	res.DAG.HitRate /= float64(seeds)

	if dag, lru := res.DAG.Cache.RecomputesAfterEviction, res.LRU.Cache.RecomputesAfterEviction; dag >= lru {
		return res, fmt.Errorf("DAG-aware policy did not strictly reduce recomputes-after-eviction: dag=%d lru=%d", dag, lru)
	}
	return res, nil
}

func accumulateArm(a *CachePolicyArm, run cachePolicyRun) {
	addCounts(&a.Cache, &run.cache)
	a.HitRate += run.hitRate
	a.Makespan += run.makespan
}

// Print emits the comparison.
func (r CachePolicyResult) Print(w io.Writer) {
	fprintf(w, "Cache policy A/B: LRU vs DAG-aware eviction under a %d-byte cache (%d seeds, %d rounds)\n",
		r.Memory, r.Cfg.Seeds, r.Cfg.Rounds)
	fprintf(w, "  %-8s %12s %10s %13s %9s %12s\n",
		"policy", "recomputes", "refusals", "pinnedBlocked", "cacheHit", "makespan")
	for _, a := range []CachePolicyArm{r.LRU, r.DAG} {
		fprintf(w, "  %-8s %12d %10d %13d %8.0f%% %12s\n", a.Policy, a.Cache.RecomputesAfterEviction,
			a.Cache.CacheRefusals, a.Cache.PinnedEvictionsBlocked, a.HitRate*100, fmtMs(a.Makespan))
	}
	if lru, dag := r.LRU.Cache.RecomputesAfterEviction, r.DAG.Cache.RecomputesAfterEviction; lru > 0 {
		fprintf(w, "  recomputes-after-eviction reduced %d -> %d (%.0f%%)\n", lru, dag, 100*(1-float64(dag)/float64(lru)))
	}
}
