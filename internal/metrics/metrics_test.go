package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTaskDerived(t *testing.T) {
	m := TaskMetrics{Submitted: 1 * time.Second, Started: 3 * time.Second, Finished: 10 * time.Second}
	if m.QueueWait() != 2*time.Second {
		t.Errorf("QueueWait = %v", m.QueueWait())
	}
	if m.Duration() != 7*time.Second {
		t.Errorf("Duration = %v", m.Duration())
	}
}

func TestJobAggregates(t *testing.T) {
	j := JobMetrics{
		Submitted: time.Second,
		Finished:  11 * time.Second,
		Tasks: []TaskMetrics{
			{GC: time.Second, ShuffleRead: 2 * time.Second, Locality: NodeLocal, Started: 0, Finished: 5 * time.Second},
			{GC: 3 * time.Second, ShuffleRead: time.Second, Locality: Remote, Started: 0, Finished: 9 * time.Second},
		},
	}
	if j.Makespan() != 10*time.Second {
		t.Errorf("Makespan = %v", j.Makespan())
	}
	if j.TotalGC() != 4*time.Second {
		t.Errorf("TotalGC = %v", j.TotalGC())
	}
	if j.TotalShuffleRead() != 3*time.Second {
		t.Errorf("TotalShuffleRead = %v", j.TotalShuffleRead())
	}
	if j.LocalityFraction() != 0.5 {
		t.Errorf("LocalityFraction = %v", j.LocalityFraction())
	}
	sorted := j.TasksSortedByDuration()
	if sorted[0].Duration() != 9*time.Second {
		t.Errorf("sort order wrong: %v", sorted)
	}
}

func TestEmptyJob(t *testing.T) {
	var j JobMetrics
	if j.LocalityFraction() != 0 || j.TotalGC() != 0 {
		t.Error("empty job aggregates nonzero")
	}
}

func TestMeanMaxMin(t *testing.T) {
	ds := []time.Duration{2 * time.Second, 4 * time.Second, 3 * time.Second}
	if Max(ds) != 4*time.Second {
		t.Errorf("max = %v", Max(ds))
	}
	if Max(nil) != 0 {
		t.Error("empty max nonzero")
	}
}

func TestLocalityString(t *testing.T) {
	if NodeLocal.String() != "NODE_LOCAL" || Remote.String() != "REMOTE" {
		t.Error("locality strings wrong")
	}
	if Locality(0).String() != "UNKNOWN" {
		t.Error("zero locality string wrong")
	}
}

func TestEncodeJobsJSON(t *testing.T) {
	var sb strings.Builder
	jobs := []JobMetrics{{
		JobID:    3,
		Finished: time.Second,
		Tasks: []TaskMetrics{{
			TaskID: 9, Locality: NodeLocal, Compute: time.Millisecond,
		}},
	}}
	if err := EncodeJobs(&sb, jobs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"job_id": 3`, `"task_id": 9`, `"NODE_LOCAL"`, `"compute_ns": 1000000`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json missing %q:\n%s", want, out)
		}
	}
}
