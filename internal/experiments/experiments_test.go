package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// The experiment tests assert the *shapes* the paper reports, not absolute
// numbers: orderings, rough factors, crossovers.

func TestFig01LocalityShape(t *testing.T) {
	r, err := RunFig01(DefaultFig01())
	if err != nil {
		t.Fatal(err)
	}
	if r.C <= r.DMinus {
		t.Errorf("C (%v) must exceed D- (%v): the first job pays the load+shuffle stage", r.C, r.DMinus)
	}
	if r.DMinus < 10*r.D {
		t.Errorf("violating locality (%v) must be >=10x the cached run (%v)", r.DMinus, r.D)
	}
	if r.D > 500*time.Millisecond {
		t.Errorf("cached count %v, paper keeps it under ~0.2s", r.D)
	}
}

func TestFig07UShape(t *testing.T) {
	cfg := DefaultFig07()
	cfg.Partitions = []int{1, 16, 256, 4096, 65536}
	r, err := RunFig07(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bestN, bestD := r.Partitions[0], r.Delay[0]
	for i, d := range r.Delay {
		if d < bestD {
			bestN, bestD = r.Partitions[i], d
		}
	}
	if bestN == 1 || bestN == 65536 {
		t.Errorf("minimum at an extreme (%d): no U-shape", bestN)
	}
	if r.Delay[0] < 2*bestD {
		t.Errorf("single-partition delay %v not >=2x the optimum %v", r.Delay[0], bestD)
	}
	last := r.Delay[len(r.Delay)-1]
	if last < 3*bestD {
		t.Errorf("65536-partition delay %v not >=3x the optimum %v (task overhead missing)", last, bestD)
	}
}

func TestFig11CoLocalityShape(t *testing.T) {
	cfg := DefaultFig11()
	cfg.QueriesPerK = 3
	r, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stark-H stays roughly flat; Spark-H grows with the cogroup width.
	k1, kLast := 0, len(r.Ks)-1
	if r.SparkH[kLast] < 4*r.SparkH[k1] {
		t.Errorf("Spark-H did not grow with k: %v -> %v", r.SparkH[k1], r.SparkH[kLast])
	}
	k5 := len(r.Ks) - 2
	ratio5 := float64(r.SparkH[k5]) / float64(r.StarkH[k5])
	if ratio5 < 3 {
		t.Errorf("speedup at k=5 = %.1f, paper reports ~5x", ratio5)
	}
	ratio6 := float64(r.SparkH[kLast]) / float64(r.StarkH[kLast])
	if ratio6 >= ratio5 {
		t.Errorf("GC did not narrow the gap at k=6: ratio5=%.1f ratio6=%.1f", ratio5, ratio6)
	}
	// Fig 12: the Stark cogroup-6 job must show a real GC share.
	jm := r.TasksStark[r.Ks[kLast]]
	slowest := jm.TasksSortedByDuration()[0]
	if gcShare := float64(slowest.GC) / float64(slowest.Duration()); gcShare < 0.2 {
		t.Errorf("k=6 slowest Stark task GC share = %.2f, expected heavy GC", gcShare)
	}
}

func TestSkewSuiteShape(t *testing.T) {
	r, err := RunSkew(DefaultSkew())
	if err != nil {
		t.Fatal(err)
	}
	imbalance := func(sys System, col string) float64 {
		sizes := r.InputSizes[sys][col]
		var max, sum int64
		for _, s := range sizes {
			sum += s
			if s > max {
				max = s
			}
		}
		if sum == 0 {
			return 0
		}
		return float64(max) / (float64(sum) / float64(len(sizes)))
	}
	// Fig 13: Stark-S skewed on the hot collections, Stark-E and Spark-R balanced.
	if im := imbalance(StarkS, "RDD 7-9"); im < 3 {
		t.Errorf("Stark-S imbalance on skewed collection = %.1f, want >=3", im)
	}
	if imS, imE := imbalance(StarkS, "RDD 7-9"), imbalance(StarkE, "RDD 7-9"); imE >= imS {
		t.Errorf("Stark-E (%.1f) not more balanced than Stark-S (%.1f)", imE, imS)
	}
	if im := imbalance(SparkR, "RDD 1-3"); im > 2 {
		t.Errorf("Spark-R uniform imbalance = %.1f, fitted ranges should balance", im)
	}

	// Fig 14 orderings.
	e := r.Jobs[StarkE]["RDD 7-9"]
	if e.Second >= e.First {
		t.Errorf("Stark-E second job (%v) not faster than first (%v) after rebalance", e.Second, e.First)
	}
	s := r.Jobs[StarkS]["RDD 7-9"]
	if e.Second >= s.Second {
		t.Errorf("Stark-E steady job (%v) not faster than Stark-S (%v) under skew", e.Second, s.Second)
	}
	uni := r.Jobs[StarkS]["RDD 1-3"]
	if s.Second < 2*uni.Second {
		t.Errorf("Stark-S skew penalty missing: uniform %v vs skewed %v", uni.Second, s.Second)
	}
	spark := r.Jobs[SparkR]["RDD 1-3"]
	if spark.Second < 3*uni.Second {
		t.Errorf("Spark-R (%v) should pay far more than Stark-S on uniform data (%v)", spark.Second, uni.Second)
	}

	// Fig 15: Spark-R dominated by shuffle; Stark variants shuffle-free.
	_, _, _, sparkShare := taskSpread(r.Jobs[SparkR]["RDD 7-9"].SecondStats)
	if sparkShare < 0.25 {
		t.Errorf("Spark-R shuffle share = %.2f, want >=0.25", sparkShare)
	}
	_, _, _, starkShare := taskSpread(r.Jobs[StarkS]["RDD 7-9"].SecondStats)
	if starkShare > 0.05 {
		t.Errorf("Stark-S steady job should not shuffle, share = %.2f", starkShare)
	}
}

func TestFig17ConstantRatio(t *testing.T) {
	r, err := RunFig17(DefaultCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 9 {
		t.Fatalf("names = %v", r.Names)
	}
	for _, name := range r.Names {
		c, cp := r.CachedBytes[name], r.CheckpointBytes[name]
		if c == 0 {
			t.Errorf("rdd %q has no cached bytes", name)
			continue
		}
		ratio := float64(cp) / float64(c)
		if math.Abs(ratio-r.Ratio) > 0.02 {
			t.Errorf("rdd %q ratio %.3f deviates from overall %.3f", name, ratio, r.Ratio)
		}
	}
}

func TestFig18CheckpointVolumes(t *testing.T) {
	cfg := DefaultCheckpoint()
	r, err := RunFig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Steps - 1
	if r.Stark1[last] == 0 || r.Stark3[last] == 0 || r.Tachyon[last] == 0 {
		t.Fatalf("missing checkpoints: %d %d %d", r.Stark1[last], r.Stark3[last], r.Tachyon[last])
	}
	if r.Tachyon[last] < 2*r.Stark1[last] {
		t.Errorf("Tachyon (%d) not >=2x Stark-1 (%d): optimizer savings missing",
			r.Tachyon[last], r.Stark1[last])
	}
	if r.Tachyon[last] < 2*r.Stark3[last] {
		t.Errorf("Tachyon (%d) not >=2x Stark-3 (%d)", r.Tachyon[last], r.Stark3[last])
	}
	// Monotone cumulative series.
	for i := 1; i < cfg.Steps; i++ {
		if r.Stark1[i] < r.Stark1[i-1] || r.Stark3[i] < r.Stark3[i-1] || r.Tachyon[i] < r.Tachyon[i-1] {
			t.Fatalf("cumulative series decreased at step %d", i)
		}
	}
}

func TestFig19OrderingShort(t *testing.T) {
	if testing.Short() {
		t.Skip("fig19 sweep is expensive")
	}
	cfg := DefaultThroughput()
	cfg.QueriesPerRate = 40
	cfg.Rates = []float64{9}
	r, err := RunFig19(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at9 := func(sys System) time.Duration { return r.Curves[sys][0].MeanDelay }
	if at9(StarkH) >= at9(SparkH) {
		t.Errorf("Stark-H (%v) not faster than Spark-H (%v) at 9 jobs/s", at9(StarkH), at9(SparkH))
	}
	if at9(SparkH) >= at9(SparkR) {
		t.Errorf("Spark-H (%v) not faster than Spark-R (%v) at 9 jobs/s", at9(SparkH), at9(SparkR))
	}
	if at9(StarkE) >= at9(SparkR) {
		t.Errorf("Stark-E (%v) not faster than Spark-R (%v)", at9(StarkE), at9(SparkR))
	}
}

func TestSystemNames(t *testing.T) {
	names := map[System]string{
		SparkR: "Spark-R", SparkH: "Spark-H", StarkH: "Stark-H",
		StarkS: "Stark-S", StarkE: "Stark-E",
	}
	for sys, want := range names {
		if sys.String() != want {
			t.Errorf("%d -> %q, want %q", sys, sys.String(), want)
		}
	}
	if System(99).String() != "unknown" {
		t.Error("unknown system name")
	}
	if SparkR.UsesCoLocality() || !StarkE.UsesCoLocality() {
		t.Error("UsesCoLocality wrong")
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	// Smoke: every Print writes something sane without panicking.
	var sb strings.Builder
	Fig01Result{C: time.Second, D: time.Millisecond, DMinus: time.Second / 2}.Print(&sb)
	Fig07Result{Partitions: []int{1, 2}, Delay: []time.Duration{2, 1}}.Print(&sb)
	if !strings.Contains(sb.String(), "Fig 1(b)") || !strings.Contains(sb.String(), "Fig 7") {
		t.Fatalf("printer output missing headers: %q", sb.String())
	}
}

func TestAblationMCF(t *testing.T) {
	r, err := RunAblationMCF()
	if err != nil {
		t.Fatal(err)
	}
	if r.WithMCF <= 0 || r.WithoutMCF <= 0 {
		t.Fatalf("ablation produced zero delays: %+v", r)
	}
	// MCF must not make hotspot load slower.
	if r.WithMCF > r.WithoutMCF*3/2 {
		t.Errorf("MCF (%v) much slower than plain delay scheduling (%v)", r.WithMCF, r.WithoutMCF)
	}
}

func TestAblationHysteresis(t *testing.T) {
	pts, err := RunAblationHysteresis([]float64{1.5, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// A narrow band rebalances at least as often as a wide one.
	if pts[0].Changes < pts[2].Changes {
		t.Errorf("narrow band churned less (%d) than wide band (%d)", pts[0].Changes, pts[2].Changes)
	}
}

func TestAblationLocalityWait(t *testing.T) {
	pts, err := RunAblationLocalityWait([]time.Duration{0, 50 * time.Millisecond, time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Longer waits must not reduce the locality rate.
	if pts[2].Locality < pts[0].Locality {
		t.Errorf("locality with 1s wait (%.2f) below zero-wait (%.2f)", pts[2].Locality, pts[0].Locality)
	}
}

func TestAblationRelax(t *testing.T) {
	pts, err := RunAblationRelax([]float64{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Total == 0 || pt.Selected == 0 {
			t.Fatalf("relax %.0f checkpointed nothing", pt.Relax)
		}
	}
}

func TestRecoveryBoundedByCheckpoints(t *testing.T) {
	cfg := DefaultCheckpoint()
	cfg.Steps = 8
	r, err := RunRecovery(cfg, []time.Duration{2 * time.Second, 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Tighter bounds must not recover slower than looser ones (within
	// noise), and any bound must beat no checkpointing.
	if r.Recovery[0] > r.NoCheckpoint {
		t.Errorf("bounded recovery (%v) slower than unbounded lineage (%v)", r.Recovery[0], r.NoCheckpoint)
	}
	if r.NoCheckpoint < r.Recovery[1] {
		t.Errorf("no-checkpoint recovery (%v) faster than 8s-bounded (%v)", r.NoCheckpoint, r.Recovery[1])
	}
}

func TestTSVWriters(t *testing.T) {
	var sb strings.Builder
	f7 := Fig07Result{Partitions: []int{1, 2}, Delay: []time.Duration{time.Second, 2 * time.Second}}
	if err := f7.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1\t1000") {
		t.Fatalf("fig7 tsv = %q", sb.String())
	}
	sb.Reset()
	f11 := Fig11Result{Ks: []int{2}, SparkH: []time.Duration{time.Second}, StarkH: []time.Duration{500 * time.Millisecond}}
	if err := f11.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2\t1000\t500") {
		t.Fatalf("fig11 tsv = %q", sb.String())
	}
	sb.Reset()
	f18 := Fig18Result{Steps: 1, Stark1: []int64{1 << 20}, Stark3: []int64{2 << 20}, Tachyon: []int64{3 << 20}}
	if err := f18.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1\t1\t2\t3") {
		t.Fatalf("fig18 tsv = %q", sb.String())
	}
	sb.Reset()
	f19 := Fig19Result{
		Systems: []System{StarkH},
		Curves: map[System][]Fig19Point{
			StarkH: {{Rate: 9, MeanDelay: 100 * time.Millisecond, P95Delay: 200 * time.Millisecond}},
		},
	}
	if err := f19.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Stark-H\t9\t100\t200") {
		t.Fatalf("fig19 tsv = %q", sb.String())
	}
	sb.Reset()
	f20 := Fig20Result{
		Systems: []System{SparkH, StarkH},
		Series: map[System][]Fig20Point{
			SparkH: {{Hour: 0.5, MeanDelay: 900 * time.Millisecond}},
			StarkH: {{Hour: 0.5, MeanDelay: 100 * time.Millisecond}},
		},
	}
	if err := f20.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.5\t900\t100") {
		t.Fatalf("fig20 tsv = %q", sb.String())
	}
}

func TestAblationPlacement(t *testing.T) {
	pts, err := RunAblationPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	byName := map[string]AblationPlacementPoint{}
	for _, pt := range pts {
		byName[pt.Policy] = pt
	}
	// Dedicated placement keeps locality perfect.
	if byName["dedicated"].Locality < 0.99 {
		t.Errorf("dedicated locality = %v", byName["dedicated"].Locality)
	}
	// Blind placement sacrifices cache hits relative to dedicated.
	if byName["blind"].HitRate >= byName["dedicated"].HitRate {
		t.Errorf("blind hit rate (%v) not below dedicated (%v)",
			byName["blind"].HitRate, byName["dedicated"].HitRate)
	}
	for _, pt := range pts {
		if pt.Mean <= 0 {
			t.Errorf("%s mean = %v", pt.Policy, pt.Mean)
		}
	}
}

func TestChurnCoLocalityWins(t *testing.T) {
	r, err := RunChurn(DefaultChurn())
	if err != nil {
		t.Fatal(err)
	}
	if r.WithCoLocality >= r.WithoutCoLocality {
		t.Errorf("co-locality (%v) not faster than stock (%v) under churn",
			r.WithCoLocality, r.WithoutCoLocality)
	}
	if r.HitWith <= r.HitWithout {
		t.Errorf("co-locality hit rate (%v) not above stock (%v)", r.HitWith, r.HitWithout)
	}
}
