package stark_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stark"
	"stark/internal/engine"
	"stark/internal/session"
)

// settings is every settable value of the engine and the job server: the
// leaf fields of engine.Config (a fault schedule counts as one) and, under
// "session.", those of session.Config. Sorted.
var settings = []string{
	"CachePolicy",
	"Checkpoint.Bound",
	"Checkpoint.Mode",
	"Checkpoint.Relax",
	"Cluster.DiskBandwidth",
	"Cluster.GC.Base",
	"Cluster.GC.Knee",
	"Cluster.GC.Max",
	"Cluster.GC.Power",
	"Cluster.GroupPartitionOverhead",
	"Cluster.MemoryPerExecutor",
	"Cluster.NetBandwidth",
	"Cluster.NumExecutors",
	"Cluster.SizeScale",
	"Cluster.SlotsPerExecutor",
	"DriverRecovery",
	"Execution.Parallelism",
	"Faults",
	"Features.CoLocality",
	"Features.Extendable",
	"Features.MCF",
	"Groups.MaxBytes",
	"Groups.MinBytes",
	"Groups.Window",
	"Heartbeat.DeadAfter",
	"Heartbeat.Interval",
	"Heartbeat.SuspectAfter",
	"Network.BaseDelay",
	"Network.Jitter",
	"Recovery.BlacklistExpiry",
	"Recovery.BlacklistThreshold",
	"Recovery.MaxTaskRetries",
	"Recovery.RetryBackoff",
	"Recovery.Speculation",
	"Recovery.SpeculationMultiplier",
	"Recovery.SpeculationQuantile",
	"Sched.LocalityWait",
	"Seed",
	"session.MaxActive",
	"session.MaxQueuedPerTenant",
	"session.MaxQueuedTotal",
	"session.MemoryBudget",
	"session.TrackClusterMemory",
}

// TestSettingsInventory pins the settable surface. A new configuration
// field fails it until the list above and DESIGN.md's settings table both
// name it; the table gives the field's one default and the caller or test
// that needs another value.
func TestSettingsInventory(t *testing.T) {
	var got []string
	got = leafFields(reflect.TypeOf(engine.Config{}), "", got)
	got = leafFields(reflect.TypeOf(session.Config{}), "session.", got)
	slices.Sort(got)
	if !slices.Equal(got, settings) {
		t.Fatalf("settable fields changed (%d, want %d):\n got %v\nwant %v", len(got), len(settings), got, settings)
	}

	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## 17. Settings")
	if !ok {
		t.Fatal("DESIGN.md has no section 17 settings table")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var rows []string
	for _, line := range strings.Split(table, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			rows = append(rows, name)
		}
	}
	slices.Sort(rows)
	if !slices.Equal(rows, settings) {
		t.Fatalf("DESIGN.md settings table rows differ from the settable fields:\n rows %v\nwant %v", rows, settings)
	}
}

// leafFields appends the dotted paths of t's exported leaf fields, nested
// structs flattened except the fault schedule, which is one setting.
func leafFields(t reflect.Type, prefix string, out []string) []string {
	schedule := reflect.TypeOf(stark.FaultSchedule{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct && f.Type != schedule {
			out = leafFields(f.Type, prefix+f.Name+".", out)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}
