package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"time"

	"stark"
)

// A workload builds a scenario from a seed. Set-up generates every input
// once and hands the scenario plain slices, so an iteration measures the
// engine and never the generators.
type workload struct {
	name  string
	setup func(seed int64, quick bool) scenario
}

// workloads is the suite in reporting order; BENCHMARK.json names the same
// four. bench/README.md records why each exists.
var workloads = []workload{
	{"taxi-window", newTaxiWindow},
	{"wide-shuffle", newWideShuffle},
	{"batch-join", newBatchJoin},
	{"tenants-chaos", newTenantsChaos},
}

// baseSeed generates the part of every workload's input that defines its
// shape: the taxi trace and the query plan, which keys a join side holds, the
// tenants' datasets. --seed then re-draws a small part of it (a tweet text a
// step, a few join keys, a few values), so every seed is a distinct input with
// its own reference results but the same amount of work, and the spread over
// seeds measures the box and the engine, not the luck of a draw. wide-shuffle
// has no shape a draw could move and takes every key from --seed.
const baseSeed = 1

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A scenario is one workload's generated inputs plus its naive reference
// results. run is a pure replicate: fresh contexts, same inputs, so every
// call must return the same digest at any parallelism.
type scenario interface {
	// inputDigest hashes the generated inputs.
	inputDigest() uint64
	// want is what the naive reference evaluators say the jobs return, in
	// the order run reports them.
	want() []jobOut
	// run executes one iteration. par is WithParallelism's argument (0 is
	// the default); tr is nil outside the traced run.
	run(par int, tr *tracer) iteration
}

// jobOut is what one bench-submitted job returned, reduced to numbers a naive
// evaluator can also produce: n is the count (or the number of collected
// records), sum the total of collected integer values. fp is the
// order-sensitive record.Fingerprint of a collect; it has no naive
// counterpart and only enters the digest and the oracle comparison.
type jobOut struct {
	n, sum int64
	fp     uint64
}

// iteration is everything one replicate produced.
type iteration struct {
	got       []jobOut
	vdelays   []time.Duration // virtual submit→finish delay per measured job
	vmakespan time.Duration   // ctx.Now() summed over the iteration's contexts
	jobs      int             // bench-submitted jobs attempted
	failed    int             // jobs that errored or disagreed with the iteration's own oracle
	errs      []string        // checks of the iteration as a whole that did not hold
	c         counts
}

// digest hashes the observable outcome: results, collect fingerprints and
// every virtual time. Equal digests mean the simulation did the same thing.
func (it iteration) digest() uint64 {
	h := newHasher()
	for _, g := range it.got {
		h.u64(uint64(g.n))
		h.u64(uint64(g.sum))
		h.u64(g.fp)
	}
	for _, d := range it.vdelays {
		h.u64(uint64(d))
	}
	h.u64(uint64(it.vmakespan))
	h.u64(uint64(it.jobs))
	h.u64(uint64(it.failed))
	return h.Sum64()
}

// checkReference compares an iteration with the naive reference results.
func checkReference(it iteration, want []jobOut) error {
	if len(it.got) != len(want) {
		return fmt.Errorf("%d job results, reference has %d", len(it.got), len(want))
	}
	for i, g := range it.got {
		if g.n != want[i].n || g.sum != want[i].sum {
			return fmt.Errorf("job %d returned n=%d sum=%d, reference says n=%d sum=%d",
				i, g.n, g.sum, want[i].n, want[i].sum)
		}
	}
	return nil
}

// counts are the exact per-layer counters of one iteration, summed over its
// contexts. They are cheap snapshots of stats the engine keeps anyway, so
// they are collected on every run and reported only by the traced one.
type counts struct {
	eng   stark.EngineStats
	cache stark.CacheStats
	rec   stark.RecoveryStats
	net   stark.NetworkStats
	srv   stark.JobServerStats

	faults           int
	maxRecoveryDelay time.Duration
}

func (c *counts) addContext(ctx *stark.Context) {
	s := ctx.Stats()
	c.eng.Jobs += s.Jobs
	c.eng.Tasks += s.Tasks
	c.eng.CacheHits += s.CacheHits
	c.eng.CacheMisses += s.CacheMisses
	c.eng.BytesShuffled += s.BytesShuffled
	c.eng.ComputeTime += s.ComputeTime
	c.eng.GCTime += s.GCTime
	c.eng.ShuffleTime += s.ShuffleTime
	c.eng.LocalTasks += s.LocalTasks
	c.eng.RemoteTasks += s.RemoteTasks

	cs := ctx.CacheStats()
	c.cache.CacheRefusals += cs.CacheRefusals
	c.cache.PinnedEvictionsBlocked += cs.PinnedEvictionsBlocked
	c.cache.RecomputesAfterEviction += cs.RecomputesAfterEviction

	r := ctx.RecoveryStats()
	c.rec.TaskRetries += r.TaskRetries
	c.rec.StageResubmissions += r.StageResubmissions
	c.rec.SpeculativeLaunches += r.SpeculativeLaunches
	c.rec.DriverRestarts += r.DriverRestarts
	c.rec.JournalRecordsReplayed += r.JournalRecordsReplayed
	c.rec.JournalTornTails += r.JournalTornTails
	if d := r.MaxRecoveryDelay(); d > c.maxRecoveryDelay {
		c.maxRecoveryDelay = d
	}

	n := ctx.NetworkStats()
	c.net.Sent += n.Sent
	c.net.Retransmits += n.Retransmits

	c.faults += ctx.FaultStats().Total()
}

func (c *counts) addServer(s stark.JobServerStats) {
	c.srv.Admitted += s.Admitted
	c.srv.Shed += s.Shed
	c.srv.DeadlineExceeded += s.DeadlineExceeded
	c.srv.DedupSubscriptions += s.DedupSubscriptions
	c.srv.QueueDelays = append(c.srv.QueueDelays, s.QueueDelays...)
}

// hasher is the standard library's FNV-64a fed the few shapes the digests
// need.
type hasher struct{ hash.Hash64 }

func newHasher() hasher { return hasher{fnv.New64a()} }

func (h hasher) u64(v uint64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, v)) // a hash.Hash's Write never fails
}

// str terminates the string, so "ab","c" and "a","bc" differ.
func (h hasher) str(s string) {
	io.WriteString(h, s)
	h.Write([]byte{0xff})
}

// records folds in every key and value; the generators emit only int and
// string values.
func (h hasher) records(recs []stark.Record) {
	h.u64(uint64(len(recs)))
	for _, r := range recs {
		h.str(r.Key)
		switch v := r.Value.(type) {
		case int:
			h.u64(uint64(v))
		case string:
			h.str(v)
		default:
			panic(fmt.Sprintf("bench: input value of type %T has no digest rule", v))
		}
	}
}
