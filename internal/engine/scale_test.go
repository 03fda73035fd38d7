package engine

import (
	"strconv"
	"testing"
	"time"

	"stark/internal/partition"
	"stark/internal/record"
)

// TestScale100kPartitions guards the scheduler and shuffle-index fast paths:
// a 100k-partition job (200k tasks) must finish in about a second of wall
// time (Fig. 7 sweeps this regime).
func TestScale100kPartitions(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.NumExecutors = 8
	cfg.Cluster.SlotsPerExecutor = 4
	e := New(cfg)
	g := e.Graph()
	n := 100000
	recs := make([]record.Record, 200000)
	for i := range recs {
		recs[i] = record.Pair("k"+strconv.Itoa(i), int64(i))
	}
	parts := make([][]record.Record, n)
	for i, r := range recs {
		parts[i%n] = append(parts[i%n], r)
	}
	src := g.Source("src", parts, true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(n))
	start := time.Now()
	cnt, jm, err := e.Count(pb)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("count=%d tasks=%d makespan=%v wall=%v", cnt, len(jm.Tasks), jm.Makespan(), time.Since(start))
	if cnt != 200000 {
		t.Fatalf("count=%d", cnt)
	}
}
