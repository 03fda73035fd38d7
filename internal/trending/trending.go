// Package trending implements the paper's failure-recovery evaluation
// application (Fig. 16): a Twitter-trends-style job that tracks popular
// keys and their contents across timesteps, chaining every step's RDDs into
// an ever-growing lineage — the workload the CheckpointOptimizer exists
// for.
//
// Per step (names follow Fig. 16):
//
//	raw  --pttBy-->  kv
//	kv   --rbk--->   cnt (count per key)      kv --rbk--> ctt (contents per key)
//	cogrp(cnt, dec_prev) --sum--> ccnt
//	ccnt --filter popular--> acnt             ccnt --decay--> dec_next
//	cogrp(ctt, res_prev) --> cctt
//	join(cctt, acnt) --> jall --clean--> res_next
package trending

import (
	"fmt"

	"stark"
)

// Config parameterizes the application.
type Config struct {
	// Partitioner shared by every RDD of the app.
	Partitioner stark.Partitioner
	// Namespace for co-locality ("" disables).
	Namespace string
	// PopularThreshold keeps keys whose running count reaches it (acnt).
	PopularThreshold int64
	// DecayFactor multiplies counts passed to the next step (runningReduce).
	DecayFactor float64
	// KeepContents caps contents kept per key per step.
	KeepContents int
}

// DefaultConfig mirrors the evaluation: prefix keys, decay 0.5.
func DefaultConfig(p stark.Partitioner) Config {
	return Config{
		Partitioner:      p,
		PopularThreshold: 8,
		DecayFactor:      0.5,
		KeepContents:     3,
	}
}

// StepRDDs exposes every named RDD a step produces (Fig. 16's nodes), so
// the checkpoint experiments can measure them individually.
type StepRDDs struct {
	KV   *stark.RDD
	Cnt  *stark.RDD
	Ctt  *stark.RDD
	CCnt *stark.RDD
	ACnt *stark.RDD
	CCtt *stark.RDD
	JAll *stark.RDD
	Dec  *stark.RDD
	Res  *stark.RDD
}

// Named returns the step's RDDs keyed by their Fig. 16 names.
func (s StepRDDs) Named() map[string]*stark.RDD {
	return map[string]*stark.RDD{
		"kv": s.KV, "cnt": s.Cnt, "ctt": s.Ctt, "ccnt": s.CCnt,
		"acnt": s.ACnt, "cctt": s.CCtt, "jall": s.JAll, "dec": s.Dec, "res": s.Res,
	}
}

// App is the running application.
type App struct {
	ctx  *stark.Context
	cfg  Config
	dec  *stark.RDD // decayed counts from the previous step
	res  *stark.RDD // results from the previous step
	step int
}

// New creates the app and its empty step-zero state.
func New(ctx *stark.Context, cfg Config) *App {
	a := &App{ctx: ctx, cfg: cfg}
	a.dec = ctx.EmptyPartitioned("dec0", cfg.Partitioner, cfg.Namespace)
	a.res = ctx.EmptyPartitioned("res0", cfg.Partitioner, cfg.Namespace)
	return a
}

// Step consumes one timestep of raw key-value data, materializes the step's
// result, and rolls dec/res forward. All intermediate RDDs are cached, as
// the paper's application does.
func (a *App) Step(raw []stark.Record) (StepRDDs, error) {
	p := a.cfg.Partitioner
	a.step++
	src := a.ctx.Parallelize(fmt.Sprintf("raw%d", a.step), raw, a.ctx.NumExecutors())

	var kv *stark.RDD
	if a.cfg.Namespace != "" {
		kv = src.LocalityPartitionBy(p, a.cfg.Namespace)
	} else {
		kv = src.PartitionBy(p)
	}
	kv.Cache()

	cnt := kv.MapValues(func(r stark.Record) stark.Record {
		return stark.Pair(r.Key, int64(1))
	}).ReduceByKey(p, func(x, y any) any {
		return x.(int64) + y.(int64)
	}).Cache()

	keep := a.cfg.KeepContents
	ctt := kv.ReduceByKey(p, func(x, y any) any {
		xs, ok := x.([]any)
		if !ok {
			xs = []any{x}
		}
		if len(xs) >= keep {
			return xs
		}
		return append(xs, y)
	}).Cache()

	ccnt := a.ctx.CoGroup(p, cnt, a.dec).MapValues(func(r stark.Record) stark.Record {
		cg := r.Value.(stark.CoGrouped)
		var sum int64
		for _, g := range cg.Groups {
			for _, v := range g {
				if n, ok := v.(int64); ok {
					sum += n
				}
			}
		}
		return stark.Pair(r.Key, sum)
	}).Cache()

	threshold := a.cfg.PopularThreshold
	acnt := ccnt.Filter(func(r stark.Record) bool {
		n, ok := r.Value.(int64)
		return ok && n >= threshold
	}).Cache()

	decay := a.cfg.DecayFactor
	dec := ccnt.MapValues(func(r stark.Record) stark.Record {
		n, _ := r.Value.(int64)
		return stark.Pair(r.Key, int64(float64(n)*decay))
	}).Cache()

	cctt := a.ctx.CoGroup(p, ctt, a.res).Cache()

	jall := a.ctx.Join(p, cctt, acnt).Cache()

	res := jall.MapValues(func(r stark.Record) stark.Record {
		j := r.Value.(stark.Joined)
		return stark.Pair(r.Key, j.Left)
	}).Cache()

	out := StepRDDs{
		KV: kv, Cnt: cnt, Ctt: ctt, CCnt: ccnt,
		ACnt: acnt, CCtt: cctt, JAll: jall, Dec: dec, Res: res,
	}
	// Materialize the step's outputs (res via count — the step's action —
	// then dec, which the next step consumes).
	if _, _, err := res.Count(); err != nil {
		return out, err
	}
	if _, err := dec.Materialize(); err != nil {
		return out, err
	}
	a.dec, a.res = dec, res
	return out, nil
}
