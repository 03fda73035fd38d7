package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Summary condenses a duration sample into the statistics the evaluation
// tables report.
type Summary struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P95, P99  time.Duration
}

// Summarize computes a Summary; the input is not mutated.
func Summarize(ds []time.Duration) Summary {
	if len(ds) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / time.Duration(len(sorted)),
		P50:   at(0.50),
		P95:   at(0.95),
		P99:   at(0.99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v mean=%v p95=%v p99=%v max=%v",
		s.Count, s.Min, s.P50, s.Mean, s.P95, s.P99, s.Max)
}
