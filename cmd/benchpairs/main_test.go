package main

import (
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 10}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %v, want 1.5", got)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one run = %v, want 7", got)
	}
}

// TestSummarizeCountsWinsByDirection checks the win counts and the claim
// rule on a lower-is-better metric B improves in every pair, a
// higher-is-better one B worsens in three pairs and ties in one, and one
// that never moves.
func TestSummarizeCountsWinsByDirection(t *testing.T) {
	runs := func(vals ...[3]float64) []runResult {
		out := make([]runResult, len(vals))
		for i, v := range vals {
			out[i].Correct = true
			out[i].Metrics = map[string]struct {
				Value float64 `json:"value"`
			}{"wall": {v[0]}, "rate": {v[1]}, "vtime": {v[2]}}
		}
		return out
	}
	a := runs([3]float64{10, 5, 1}, [3]float64{11, 5, 1}, [3]float64{12, 5, 1}, [3]float64{13, 5, 1})
	b := runs([3]float64{5, 4, 1}, [3]float64{6, 4, 1}, [3]float64{7, 5, 1}, [3]float64{8, 4, 1})
	b[2].Failed = 3
	spec := []metricSpec{{Name: "wall", Unit: "ms", Better: "lower"}, {Name: "rate", Unit: "1/s", Better: "higher"}, {Name: "vtime", Unit: "ms", Better: "lower"}}
	var sb strings.Builder
	summarize(&sb, spec, a, b)
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
	for i, want := range [][]string{
		{"wall", "11.5 [10.75, 12.25] ms", "6.5 [5.75, 7.25] ms", "-43.48%", "0/4", "4/4", "true"},
		{"rate", "5 [5, 5] 1/s", "4 [4, 4.25] 1/s", "-20.00%", "3/4", "0/4", "false"},
		{"vtime", "+0.00%", "0/4", "0/4", "false"},
	} {
		for _, field := range want {
			if !strings.Contains(rows[i+1], field) {
				t.Errorf("row %q lacks %q", rows[i+1], field)
			}
		}
	}
	if last := rows[len(rows)-1]; last != "incorrect runs: A 0, B 0; failed operations: A 0, B 3" {
		t.Errorf("last line %q", last)
	}
}
