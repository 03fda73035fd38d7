package stark

import (
	"time"

	"stark/internal/rdd"
	"stark/internal/stream"
)

// StreamConfig configures a micro-batch stream; see NewStream.
type StreamConfig struct {
	// Name prefixes the per-step RDD names.
	Name string
	// Partitioner partitions every timestep RDD.
	Partitioner Partitioner
	// Namespace enables co-locality across timesteps ("" disables).
	Namespace string
	// InitialGroups sizes the Group Tree in extendable mode (power of two).
	InitialGroups int
	// Window is how many timestep RDDs stay cached.
	Window int
	// SingleNodeIngest emulates Spark Streaming's single-receiver ingest.
	SingleNodeIngest bool
	// ReportSizes feeds each step to the GroupManager for elasticity.
	ReportSizes bool
	// StepPartitioner, when set, supplies a fresh partitioner per step (the
	// Spark-R baseline); mutually exclusive with Namespace.
	StepPartitioner func(step int, recs []Record) Partitioner
}

// Stream is a DStream-like sequence of timestep RDDs.
type Stream struct {
	ctx *Context
	s   *stream.Stream
}

// NewStream creates a micro-batch stream on the context.
func (c *Context) NewStream(cfg StreamConfig) (*Stream, error) {
	icfg := stream.Config{
		Name:             cfg.Name,
		Partitioner:      cfg.Partitioner,
		Namespace:        cfg.Namespace,
		InitialGroups:    cfg.InitialGroups,
		Window:           cfg.Window,
		SingleNodeIngest: cfg.SingleNodeIngest,
		ReportSizes:      cfg.ReportSizes,
	}
	if cfg.StepPartitioner != nil {
		icfg.StepPartitioner = func(step int, recs []Record) Partitioner {
			return cfg.StepPartitioner(step, recs)
		}
	}
	s, err := stream.New(c.eng, icfg)
	if err != nil {
		return nil, err
	}
	return &Stream{ctx: c, s: s}, nil
}

// Ingest creates the timestep's partitioned, cached RDD at the current
// virtual time and submits its materialization. Like Parallelize it adopts
// recs rather than copying them: the step's source partitions are
// sub-slices of recs, shared copy-on-write, and the caller must not mutate
// recs afterwards (STARK_CHECK_COW=1 turns a violation into a panic at
// materialization).
func (s *Stream) Ingest(step int, recs []Record) *RDD {
	return &RDD{ctx: s.ctx, r: s.s.Ingest(step, recs)}
}

// Step returns the RDD of a timestep, nil if never ingested or evicted.
func (s *Stream) Step(step int) *RDD {
	r := s.s.Step(step)
	if r == nil {
		return nil
	}
	return &RDD{ctx: s.ctx, r: r}
}

// Recent returns up to n most recent live step RDDs, oldest first.
func (s *Stream) Recent(n int) []*RDD { return s.wrapAll(s.s.Recent(n)) }

// Range returns the live step RDDs in [from, to], oldest first.
func (s *Stream) Range(from, to int) []*RDD { return s.wrapAll(s.s.Range(from, to)) }

func (s *Stream) wrapAll(rs []*rdd.RDD) []*RDD {
	out := make([]*RDD, len(rs))
	for i, r := range rs {
		out[i] = &RDD{ctx: s.ctx, r: r}
	}
	return out
}

// QueryResult is one open-loop query outcome.
type QueryResult = stream.QueryResult

// OpenLoop submits n count jobs at the given interarrival spacing (an open
// system: arrivals do not wait for completions) and runs until all finish.
// makeJob is invoked at each arrival time.
func (c *Context) OpenLoop(interarrival time.Duration, n int, makeJob func(i int) *RDD) []QueryResult {
	return stream.OpenLoop(c.eng, interarrival, n, func(i int) *rdd.RDD {
		return makeJob(i).r
	})
}

// MeanDelay averages query delays.
func MeanDelay(rs []QueryResult) time.Duration { return stream.MeanDelay(rs) }

// RunVirtual drives the event loop until the virtual clock reaches t,
// processing ingests and jobs scheduled before then.
func (c *Context) RunVirtual(t time.Duration) { c.eng.Loop().RunUntil(t) }

// Drain runs the event loop until no work remains.
func (c *Context) Drain() { c.eng.Loop().Run() }

// At schedules fn on the virtual timeline (e.g. periodic ingestion).
func (c *Context) At(t time.Duration, fn func()) { c.eng.Loop().At(t, fn) }
