package trending

import (
	"fmt"
	"testing"

	"stark"
)

func testCtx() *stark.Context {
	return stark.NewContext(
		stark.WithCoLocality(),
		stark.WithExecutors(4),
		stark.WithSlots(2),
	)
}

func stepData(step, n int) []stark.Record {
	out := make([]stark.Record, n)
	for i := range out {
		out[i] = stark.Pair(fmt.Sprintf("key-%02d", i%20), fmt.Sprintf("content-%d-%d", step, i))
	}
	return out
}

func newApp(t *testing.T, ctx *stark.Context) *App {
	t.Helper()
	p := stark.NewHashPartitioner(4)
	if err := ctx.RegisterNamespace("trend", p, 1); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(p)
	cfg.Namespace = "trend"
	cfg.PopularThreshold = 3
	return New(ctx, cfg)
}

func TestStepProducesAllRDDs(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	out, err := app.Step(stepData(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	named := out.Named()
	if len(named) != 9 {
		t.Fatalf("named = %d", len(named))
	}
	for name, r := range named {
		if r == nil {
			t.Fatalf("rdd %q missing", name)
		}
	}
	if app.step != 1 {
		t.Fatalf("steps = %d", app.step)
	}
}

func TestCountsAggregate(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	out, err := app.Step(stepData(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := out.Cnt.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// 200 records over 20 keys: every key counts 10.
	if len(recs) != 20 {
		t.Fatalf("keys = %d", len(recs))
	}
	for _, r := range recs {
		if r.Value != int64(10) {
			t.Fatalf("count for %q = %v", r.Key, r.Value)
		}
	}
}

func TestRunningReduceDecays(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	if _, err := app.Step(stepData(0, 200)); err != nil {
		t.Fatal(err)
	}
	out, err := app.Step(stepData(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := out.CCnt.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Step 2 running count = 10 + decay(10) = 15 per key.
	for _, r := range recs {
		if r.Value != int64(15) {
			t.Fatalf("running count for %q = %v, want 15", r.Key, r.Value)
		}
	}
}

func TestPopularFilterAndResult(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	out, err := app.Step(stepData(0, 200))
	if err != nil {
		t.Fatal(err)
	}
	nA, _, err := out.ACnt.Count()
	if err != nil {
		t.Fatal(err)
	}
	if nA != 20 { // every key has count 10 >= 3
		t.Fatalf("popular keys = %d", nA)
	}
	nRes, _, err := out.Res.Count()
	if err != nil {
		t.Fatal(err)
	}
	if nRes != 20 {
		t.Fatalf("result keys = %d", nRes)
	}
}

func TestLineageGrowsAcrossSteps(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	var prev *stark.RDD
	for s := 0; s < 3; s++ {
		out, err := app.Step(stepData(s, 100))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && out.Res.Internal().ID <= prev.Internal().ID {
			t.Fatal("lineage ids not growing")
		}
		prev = out.Res
	}
	// The third step's result must transitively depend on step-one RDDs.
	if got := len(ctx.Engine().Graph().RDDs()); got < 30 {
		t.Fatalf("lineage nodes = %d, expected an ever-growing graph", got)
	}
}

func TestAppSurvivesExecutorFailure(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	if _, err := app.Step(stepData(0, 200)); err != nil {
		t.Fatal(err)
	}
	ctx.KillExecutor(0)
	out, err := app.Step(stepData(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := out.CCnt.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Value != int64(15) {
			t.Fatalf("post-failure running count for %q = %v, want 15", r.Key, r.Value)
		}
	}
}

func TestNamespacePropagationThroughApp(t *testing.T) {
	ctx := testCtx()
	app := newApp(t, ctx)
	out, err := app.Step(stepData(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Co-locality held: everything narrow off kv shares the namespace, so
	// the cogroups and join run fully local.
	_, jm, err := out.Res.Count()
	if err != nil {
		t.Fatal(err)
	}
	if jm.LocalityFraction() != 1.0 {
		t.Fatalf("locality = %v", jm.LocalityFraction())
	}
}
