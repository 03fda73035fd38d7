package workload

import (
	"strconv"
	"strings"
	"testing"

	"stark/internal/record"
)

// TestTSVRoundTrip reads WriteTSV's output back by its documented line
// format, `tag \t index \t key \t value`, and checks every record survives.
func TestTSVRoundTrip(t *testing.T) {
	taxi := DefaultTaxi()
	taxi.EventsPerStep = 50
	var sb strings.Builder
	var want []record.Record
	var steps []string
	for step := 0; step < 3; step++ {
		recs := taxi.Step(step)
		if err := WriteTSV(&sb, "taxi", step, recs); err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
		for range recs {
			steps = append(steps, strconv.Itoa(step))
		}
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("lines = %d, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 4 || f[0] != "taxi" || f[1] != steps[i] || f[2] != want[i].Key || f[3] != want[i].Value.(string) {
			t.Fatalf("line %d = %q, want step %s %s=%v", i, line, steps[i], want[i].Key, want[i].Value)
		}
	}
}

func TestTSVRejectsUnsafe(t *testing.T) {
	err := WriteTSV(&strings.Builder{}, "t", 0, []record.Record{record.Pair("a\tb", "v")})
	if err == nil {
		t.Fatal("tab in key accepted")
	}
	err = WriteTSV(&strings.Builder{}, "t", 0, []record.Record{record.Pair("k", "line\nbreak")})
	if err == nil {
		t.Fatal("newline in value accepted")
	}
}
