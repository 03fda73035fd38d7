package experiments

import (
	"io"
	"testing"
)

// TestCachePolicyStrictImprovement is the acceptance gate for the DAG-aware
// eviction policy: on identical seeds and workloads the "dag" arm must
// produce bit-identical results and strictly fewer recomputes-after-eviction
// than the "lru" baseline (RunCachePolicy errors otherwise).
func TestCachePolicyStrictImprovement(t *testing.T) {
	cfg := DefaultCachePolicy()
	cfg.Seeds = 3
	res, err := RunCachePolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Print(io.Discard)
	if n := res.DAG.Cache.RecomputesAfterEviction; n != 0 {
		t.Errorf("DAG policy paid %d recomputes-after-eviction; the pinned base should never be evicted", n)
	}
	if res.LRU.Cache.RecomputesAfterEviction == 0 {
		t.Error("LRU baseline paid no recomputes; the workload no longer stresses the cache")
	}
}
