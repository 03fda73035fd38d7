package main

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
)

// profFocus maps each prof.* metric to the pprof -focus expression whose
// samples it counts: the share of CPU samples with at least one frame under
// that exported entry point (or package), so nested calls are counted once.
var profFocus = []struct{ name, focus string }{
	{"prof.cluster_unique_keys_pct", `cluster\.\(\*Cluster\)\.UniqueKeysCached`},
	{"prof.storage_write_pct", `storage\.\(\*Store\)\.WriteMapOutput`},
	{"prof.storage_read_pct", `storage\.\(\*Store\)\.ReadReduce`},
	{"prof.record_join_pct", `record\.JoinRecords`},
	{"prof.record_group_pct", `record\.GroupByKeySorted`},
	{"prof.record_partition_pct", `record\.\(\*Batch\)\.PartitionStable`},
	{"prof.group_pct", `stark/internal/group\.`},
	{"prof.locality_pct", `stark/internal/locality\.`},
	{"prof.journal_pct", `stark/internal/journal\.`},
	{"prof.session_pct", `stark/internal/session\.`},
	{"prof.gc_pct", `runtime\.gcBgMarkWorker`},
	{"prof.malloc_pct", `runtime\.mallocgc`},
}

var profShare = regexp.MustCompile(`Showing nodes accounting for [^,]+, ([0-9.]+)% of`)

// profileMetrics reads the traced run's CPU profile back from outside the
// program with `go tool pprof`, one focused listing per metric.
func profileMetrics(res *result, profPath string) error {
	for _, pf := range profFocus {
		out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-focus="+pf.focus, profPath).CombinedOutput()
		if err != nil {
			return fmt.Errorf("go tool pprof %s: %w\n%s", pf.name, err, out)
		}
		share := 0.0 // a focus no sample matches prints no share line
		if m := profShare.FindSubmatch(out); m != nil {
			if share, err = strconv.ParseFloat(string(m[1]), 64); err != nil {
				return fmt.Errorf("go tool pprof %s: parse share: %w", pf.name, err)
			}
		}
		res.add(pf.name, share, "%")
	}
	return nil
}
