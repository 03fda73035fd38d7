package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	s := Summarize(ds)
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	// Input untouched.
	if ds[0] != 5 {
		t.Fatal("Summarize mutated input")
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty summary wrong")
	}
	if !strings.Contains(s.String(), "n=5") || Summarize(nil).String() != "n=0" {
		t.Fatal("String wrong")
	}
}

func TestSummarizeOrderInvariantQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		a := Summarize(ds)
		// Reverse and re-summarize.
		rev := make([]time.Duration, len(ds))
		for i := range ds {
			rev[i] = ds[len(ds)-1-i]
		}
		b := Summarize(rev)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryPercentileOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		s := Summarize(ds)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGantt(t *testing.T) {
	jm := JobMetrics{
		JobID: 7,
		Tasks: []TaskMetrics{
			{Executor: 0, Locality: NodeLocal, Started: 0, Finished: 50 * time.Millisecond},
			{Executor: 1, Locality: Remote, Started: 10 * time.Millisecond, Finished: 100 * time.Millisecond},
		},
	}
	out := Gantt(jm, 40)
	if !strings.Contains(out, "exec   0") || !strings.Contains(out, "exec   1") {
		t.Fatalf("gantt rows missing:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "r") {
		t.Fatalf("gantt marks missing:\n%s", out)
	}
	if Gantt(JobMetrics{}, 40) != "(no tasks)\n" {
		t.Fatal("empty gantt wrong")
	}
	// Zero-span jobs must not divide by zero.
	flat := JobMetrics{Tasks: []TaskMetrics{{Executor: 0, Locality: NodeLocal}}}
	if out := Gantt(flat, 0); !strings.Contains(out, "exec   0") {
		t.Fatalf("flat gantt = %q", out)
	}
}
