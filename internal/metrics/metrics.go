// Package metrics collects per-task and per-job measurements on the virtual
// timeline: the quantities the paper's evaluation plots — job makespan
// (Figs. 11, 14, 19, 20), per-task delay with GC and shuffle breakdowns
// (Figs. 12, 15), and bytes moved.
package metrics

import (
	"sort"
	"time"
)

// Locality is the level a task was launched at.
type Locality int

// Locality levels, coarse versions of Spark's.
const (
	NodeLocal Locality = iota + 1
	Remote
)

// String renders the level like Spark's TaskLocality names.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "NODE_LOCAL"
	case Remote:
		return "REMOTE"
	default:
		return "UNKNOWN"
	}
}

// TaskMetrics is one task's timing breakdown. All times are virtual.
type TaskMetrics struct {
	JobID    int      `json:"job_id"`
	StageID  int      `json:"stage_id"`
	TaskID   int      `json:"task_id"`
	Executor int      `json:"executor"`
	Locality Locality `json:"locality"`

	Submitted time.Duration `json:"submitted_ns"` // task became runnable
	Started   time.Duration `json:"started_ns"`   // slot acquired
	Finished  time.Duration `json:"finished_ns"`

	Compute     time.Duration `json:"compute_ns"`      // transformation CPU time
	GC          time.Duration `json:"gc_ns"`           // garbage-collection overhead
	ShuffleRead time.Duration `json:"shuffle_read_ns"` // reduce-side fetch (disk + network)
	DiskRead    time.Duration `json:"disk_read_ns"`    // checkpoint / source reads
	DiskWrite   time.Duration `json:"disk_write_ns"`   // shuffle map output / checkpoint writes
	Net         time.Duration `json:"net_ns"`          // non-shuffle network time
	// Overhead is the fixed per-task scheduling, launch and result-report
	// cost plus, for a group task, the per-partition group overhead. On a
	// zero-latency network without a straggler, Overhead and the six times
	// above sum to Duration exactly.
	Overhead time.Duration `json:"overhead_ns"`

	BytesInput   int64 `json:"bytes_input"`
	BytesShuffle int64 `json:"bytes_shuffle"`
}

// Duration is the task's slot occupancy.
func (t TaskMetrics) Duration() time.Duration { return t.Finished - t.Started }

// QueueWait is the time between readiness and launch.
func (t TaskMetrics) QueueWait() time.Duration { return t.Started - t.Submitted }

// JobMetrics aggregates a job run.
type JobMetrics struct {
	JobID     int           `json:"job_id"`
	Submitted time.Duration `json:"submitted_ns"`
	Finished  time.Duration `json:"finished_ns"`
	Tasks     []TaskMetrics `json:"tasks"`
}

// Makespan is submission-to-completion virtual time.
func (j JobMetrics) Makespan() time.Duration { return j.Finished - j.Submitted }

// TotalGC sums GC time across tasks.
func (j JobMetrics) TotalGC() time.Duration {
	var s time.Duration
	for _, t := range j.Tasks {
		s += t.GC
	}
	return s
}

// TotalShuffleRead sums shuffle-read time across tasks.
func (j JobMetrics) TotalShuffleRead() time.Duration {
	var s time.Duration
	for _, t := range j.Tasks {
		s += t.ShuffleRead
	}
	return s
}

// TasksSortedByDuration returns the job's tasks longest-first, the order
// Figs. 12 and 15 plot.
func (j JobMetrics) TasksSortedByDuration() []TaskMetrics {
	out := make([]TaskMetrics, len(j.Tasks))
	copy(out, j.Tasks)
	sort.Slice(out, func(a, b int) bool { return out[a].Duration() > out[b].Duration() })
	return out
}

// LocalityFraction reports the fraction of tasks launched NODE_LOCAL.
func (j JobMetrics) LocalityFraction() float64 {
	if len(j.Tasks) == 0 {
		return 0
	}
	n := 0
	for _, t := range j.Tasks {
		if t.Locality == NodeLocal {
			n++
		}
	}
	return float64(n) / float64(len(j.Tasks))
}

// Max returns the maximum duration; 0 for empty input.
func Max(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// MarshalJSON is implemented on Locality so exported metrics carry readable
// level names instead of bare ints.
func (l Locality) MarshalJSON() ([]byte, error) {
	return []byte(`"` + l.String() + `"`), nil
}
