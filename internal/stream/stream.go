// Package stream provides the micro-batching layer the paper's throughput
// experiments run on (Sec. IV-E): a DStream-like sequence of timestep RDDs
// over the engine, a retention window with cache eviction, and an open-loop
// query generator that submits jobs at a controlled arrival rate and
// measures response times.
//
// Two ingestion modes mirror the compared systems: Spark Streaming ingests
// each micro-batch on a single receiver node and then repartitions it,
// while Stark partitions the batch straight into the locality namespace.
package stream

import (
	"fmt"
	"time"

	"stark/internal/engine"
	"stark/internal/metrics"
	"stark/internal/partition"
	"stark/internal/rdd"
	"stark/internal/record"
	"stark/internal/workload"
)

// Config parameterizes a stream.
type Config struct {
	Name string
	// Partitioner partitions every timestep RDD; with a Namespace it is
	// registered with the LocalityManager.
	Partitioner partition.Partitioner
	// Namespace enables co-locality across timestep RDDs ("" disables).
	Namespace string
	// InitialGroups sizes the Group Tree in extendable mode.
	InitialGroups int
	// Window is how many timestep RDDs stay cached; older ones are evicted.
	Window int
	// SingleNodeIngest emulates Spark Streaming's single receiver: the raw
	// micro-batch forms one partition that the partitionBy shuffle then
	// spreads. When false the batch arrives pre-chunked across executors.
	SingleNodeIngest bool
	// StepPartitioner, when set, supplies a fresh partitioner per step
	// (the Spark-R baseline: a new RangePartitioner fitted to every RDD).
	// It requires Namespace to be empty.
	StepPartitioner func(step int, recs []record.Record) partition.Partitioner
	// ReportSizes feeds each materialized step to the GroupManager
	// (extendable mode's reportRDD call).
	ReportSizes bool
}

// Stream is a sequence of timestep RDDs.
type Stream struct {
	eng   *engine.Engine
	cfg   Config
	steps []*rdd.RDD // index = step
}

// New validates the configuration and registers the namespace.
func New(eng *engine.Engine, cfg Config) (*Stream, error) {
	if cfg.Partitioner == nil {
		return nil, fmt.Errorf("stream: partitioner required")
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.InitialGroups == 0 {
		cfg.InitialGroups = 1
	}
	if cfg.StepPartitioner != nil && cfg.Namespace != "" {
		return nil, fmt.Errorf("stream: StepPartitioner and Namespace are mutually exclusive")
	}
	if cfg.Namespace != "" {
		if err := eng.RegisterNamespace(cfg.Namespace, cfg.Partitioner, cfg.InitialGroups); err != nil {
			return nil, err
		}
	}
	s := &Stream{eng: eng, cfg: cfg}
	if eng.DriverRecoveryEnabled() {
		// Stream continuity across driver crashes: the step table is volatile
		// driver-side state, so after every journal replay rebuild it from
		// the replayed ingest/evict records and resume mid-window.
		eng.OnDriverRestart(s.rebuildFromJournal)
	}
	return s, nil
}

// rebuildFromJournal reconstructs the live step table after a driver
// restart: the journal's replayed ingest/evict records (every journaled
// ingest not journaled as evicted is inside the retention window) merge
// with the stream's own surviving handles — like job handles, the stream
// object is client-side state that re-attaches. A torn journal tail can
// lose the newest ingest or eviction record, so the retention cutoff is
// re-derived from the newest known step and re-enforced rather than
// trusted from the raw record set.
func (s *Stream) rebuildFromJournal() {
	live := s.eng.StreamSteps(s.cfg.Name)
	g := s.eng.Graph()
	maxStep := -1
	for step, rddID := range live {
		if r := g.ByID(rddID); r != nil {
			for len(s.steps) <= step {
				s.steps = append(s.steps, nil)
			}
			if s.steps[step] == nil {
				s.steps[step] = r
			}
		}
		if step > maxStep {
			maxStep = step
		}
	}
	for step, r := range s.steps {
		if r != nil && step > maxStep {
			maxStep = step
		}
	}
	s.evictBefore(maxStep - s.cfg.Window + 1)
}

// Ingest creates the timestep's RDD at the current virtual time, submits
// its materialization, and evicts steps that fell out of the window. It
// returns the partitioned, cached RDD for the step.
func (s *Stream) Ingest(step int, recs []record.Record) *rdd.RDD {
	g := s.eng.Graph()
	var src *rdd.RDD
	if s.cfg.SingleNodeIngest {
		src = g.Source(fmt.Sprintf("%s-raw%d", s.cfg.Name, step), [][]record.Record{recs}, false)
	} else {
		chunks := workload.Chunk(recs, s.eng.Cluster().NumExecutors())
		src = g.Source(fmt.Sprintf("%s-raw%d", s.cfg.Name, step), chunks, false)
	}
	var pb *rdd.RDD
	switch {
	case s.cfg.Namespace != "":
		pb = g.LocalityPartitionBy(src, fmt.Sprintf("%s-step%d", s.cfg.Name, step), s.cfg.Partitioner, s.cfg.Namespace)
	case s.cfg.StepPartitioner != nil:
		pb = g.PartitionBy(src, fmt.Sprintf("%s-step%d", s.cfg.Name, step), s.cfg.StepPartitioner(step, recs))
	default:
		pb = g.PartitionBy(src, fmt.Sprintf("%s-step%d", s.cfg.Name, step), s.cfg.Partitioner)
	}
	pb.CacheFlag = true
	for len(s.steps) <= step {
		s.steps = append(s.steps, nil)
	}
	s.steps[step] = pb
	s.eng.JournalStreamIngest(s.cfg.Name, step, pb.ID)

	s.eng.SubmitJob(pb, engine.ActionMaterialize, func(engine.JobResult) {
		if s.cfg.ReportSizes && s.cfg.Namespace != "" {
			// Rebalance errors only occur on engine misconfiguration;
			// surfacing them at ingest would complicate every caller, and
			// the change list is observable through the GroupManager.
			_, _ = s.eng.ReportRDD(pb)
		}
	})
	s.evictBefore(step - s.cfg.Window + 1)
	return pb
}

// evictBefore drops cached blocks of steps older than the cutoff,
// modeling dataset eviction from the dynamic collection.
func (s *Stream) evictBefore(cutoff int) {
	for st := 0; st < cutoff && st < len(s.steps); st++ {
		r := s.steps[st]
		if r == nil {
			continue
		}
		s.eng.DropCached(r)
		s.steps[st] = nil
		s.eng.JournalStreamEvict(s.cfg.Name, st)
	}
}

// Step returns the RDD of a step, or nil if never ingested or evicted.
func (s *Stream) Step(step int) *rdd.RDD {
	if step < 0 || step >= len(s.steps) {
		return nil
	}
	return s.steps[step]
}

// Recent returns up to n most recent live step RDDs, oldest first.
func (s *Stream) Recent(n int) []*rdd.RDD {
	var out []*rdd.RDD
	for i := len(s.steps) - 1; i >= 0 && len(out) < n; i-- {
		if s.steps[i] != nil {
			out = append(out, s.steps[i])
		}
	}
	// Reverse to oldest-first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Range returns the live step RDDs in [from, to], oldest first.
func (s *Stream) Range(from, to int) []*rdd.RDD {
	var out []*rdd.RDD
	for i := from; i <= to && i < len(s.steps); i++ {
		if i >= 0 && s.steps[i] != nil {
			out = append(out, s.steps[i])
		}
	}
	return out
}

// QueryResult is one open-loop query's measured outcome.
type QueryResult struct {
	Index     int
	Submitted time.Duration
	Delay     time.Duration
	Count     int64
	Metrics   metrics.JobMetrics
}

// OpenLoop submits n jobs at fixed interarrival spacing starting at the
// current virtual time, without waiting for completions (an open system),
// then drives the loop until every job finishes. makeJob is called at each
// job's arrival time so queries can target the then-current window.
func OpenLoop(eng *engine.Engine, interarrival time.Duration, n int, makeJob func(i int) *rdd.RDD) []QueryResult {
	results := make([]QueryResult, n)
	done := 0
	start := eng.Loop().Now()
	for i := 0; i < n; i++ {
		i := i
		at := start + time.Duration(i)*interarrival
		eng.Loop().At(at, func() {
			final := makeJob(i)
			submitted := eng.Loop().Now()
			eng.SubmitJob(final, engine.ActionCount, func(res engine.JobResult) {
				results[i] = QueryResult{
					Index:     i,
					Submitted: submitted,
					Delay:     res.Metrics.Finished - submitted,
					Count:     res.Count,
					Metrics:   res.Metrics,
				}
				done++
			})
		})
	}
	for done < n && eng.Loop().Step() {
	}
	return results
}

// MeanDelay averages query delays.
func MeanDelay(rs []QueryResult) time.Duration {
	if len(rs) == 0 {
		return 0
	}
	var s time.Duration
	for _, r := range rs {
		s += r.Delay
	}
	return s / time.Duration(len(rs))
}
