package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"stark/internal/fault"
	"stark/internal/partition"
	"stark/internal/record"
)

// driverTestConfig is testConfig with the driver fault domain armed.
func driverTestConfig() Config {
	cfg := testConfig()
	cfg.DriverRecovery = true
	return cfg
}

// TestDriverCrashRestartResumesJob: the driver crashes mid-job (tearing a
// few bytes off the journal) and restarts shortly after; the job completes
// with exactly the fault-free result and the recovery counters record one
// crash, one restart, and a replayed journal.
func TestDriverCrashRestartResumesJob(t *testing.T) {
	// Fault-free baseline fixes the expected result and the virtual makespan.
	base := New(driverTestConfig())
	g := base.Graph()
	src := g.Source("src", dataset(400, 8), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(8))
	want, m, err := base.Collect(pb)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	horizon := m.Finished
	if horizon <= 0 {
		t.Fatal("baseline produced no makespan")
	}

	for _, tear := range []int{0, 7, 512} {
		cfg := driverTestConfig()
		cfg.Faults = fault.Schedule{DriverCrashes: []fault.DriverCrash{{
			At:           horizon / 3,
			RestartAfter: 2 * time.Millisecond,
			TearTail:     tear,
		}}}
		e := New(cfg)
		g := e.Graph()
		src := g.Source("src", dataset(400, 8), true)
		pb := g.PartitionBy(src, "pb", partition.NewHash(8))
		got, _, err := e.Collect(pb)
		if err != nil {
			t.Fatalf("tear %d: crashed run: %v", tear, err)
		}
		sortRecs(got)
		sortRecs(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tear %d: crashed-run result diverged from fault-free baseline", tear)
		}
		rec := e.Recovery()
		if rec.DriverCrashes != 1 || rec.DriverRestarts != 1 {
			t.Fatalf("tear %d: crash/restart = %d/%d, want 1/1", tear, rec.DriverCrashes, rec.DriverRestarts)
		}
		if tear > 0 && rec.JournalTornTails == 0 && rec.JournalRecordsReplayed > 0 {
			// A tear smaller than the journal suffix written by crash time
			// must be detected; a tear of 0 must not be.
			t.Fatalf("tear %d: no torn tail recorded (replayed=%d)", tear, rec.JournalRecordsReplayed)
		}
		if len(rec.RecoveryDelays) == 0 {
			t.Fatalf("tear %d: driver restart recorded no recovery delay", tear)
		}
	}
}

// TestDriverRestartIsDeterministic: two engines under the identical crash
// schedule produce byte-identical results and identical journal lengths.
func TestDriverRestartIsDeterministic(t *testing.T) {
	run := func() ([]record.Record, int) {
		cfg := driverTestConfig()
		cfg.Faults = fault.Schedule{DriverCrashes: []fault.DriverCrash{{
			At: 10 * time.Millisecond, RestartAfter: time.Millisecond, TearTail: 9,
		}}}
		e := New(cfg)
		g := e.Graph()
		src := g.Source("src", dataset(300, 6), true)
		pb := g.PartitionBy(src, "pb", partition.NewHash(6))
		out, _, err := e.Collect(pb)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		sortRecs(out)
		return out, e.jrn.Len()
	}
	a, alen := run()
	b, blen := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical crash schedules produced different results")
	}
	if alen != blen {
		t.Fatalf("journal lengths diverged: %d vs %d", alen, blen)
	}
}

// TestDriverCrashBuffersSubmissions: a job submitted while the driver is
// down waits out the downtime and completes after the restart.
func TestDriverCrashBuffersSubmissions(t *testing.T) {
	e := New(driverTestConfig())
	g := e.Graph()
	src := g.Source("src", dataset(200, 4), true)
	pb := g.PartitionBy(src, "pb", partition.NewHash(4))

	e.Loop().At(time.Millisecond, func() { e.CrashDriver(0) })
	e.Loop().At(5*time.Millisecond, func() { e.RestartDriver() })
	var n int64
	done := false
	e.Loop().At(2*time.Millisecond, func() {
		// The driver is down right now: the submission must buffer, not run.
		e.SubmitJob(pb, ActionCount, func(r JobResult) {
			n = r.Count
			done = true
		})
		if !e.driverDown {
			t.Error("driver expected down at submit time")
		}
	})
	e.Loop().Run()
	if !done {
		t.Fatal("buffered job never completed after restart")
	}
	if n != 200 {
		t.Fatalf("count = %d, want 200", n)
	}
	if rec := e.Recovery(); rec.DriverRestarts != 1 {
		t.Fatalf("restarts = %d, want 1", rec.DriverRestarts)
	}
}

// TestDriverRecoveryRebuildsNamespace: a crash wipes the LocalityManager and
// GroupManager; replay re-registers the namespace (partitioner re-supplied
// from the surviving client reference) and the block re-registration sweep
// re-admits the surviving executor caches, so post-restart jobs still
// schedule NODE_LOCAL on the cached copies.
func TestDriverRecoveryRebuildsNamespace(t *testing.T) {
	cfg := driverTestConfig()
	cfg.Features.CoLocality = true
	e := New(cfg)
	g := e.Graph()
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatalf("register: %v", err)
	}
	src := g.Source("src", dataset(400, 8), true)
	pb := g.LocalityPartitionBy(src, "pb", p, "ns")
	pb.CacheFlag = true
	if _, err := e.Materialize(pb); err != nil {
		t.Fatalf("materialize: %v", err)
	}

	e.CrashDriver(0)
	e.RestartDriver()
	e.Loop().Run()

	// The namespace must be live again with replicas on the executors that
	// still cache its blocks.
	n, jm, err := e.Count(pb)
	if err != nil {
		t.Fatalf("post-restart count: %v", err)
	}
	if n != 400 {
		t.Fatalf("post-restart count = %d, want 400", n)
	}
	if jm.LocalityFraction() == 0 {
		t.Fatal("post-restart job ran with zero NODE_LOCAL tasks: cache sweep failed")
	}
}

// TestCrashDriverWithoutRecoveryPanics: arming a driver crash without
// WithDriverRecovery is a configuration error surfaced loudly.
func TestCrashDriverWithoutRecoveryPanics(t *testing.T) {
	e := New(testConfig())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("CrashDriver on a journal-less engine did not panic")
		}
		if !strings.Contains(p.(string), "WithDriverRecovery") {
			t.Fatalf("panic %q does not name the missing option", p)
		}
	}()
	e.CrashDriver(0)
}

// TestHeartbeatValidation: a user-supplied death timeout at or below the
// suspicion timeout is a configuration error from Validate and a panic from
// New; omitted timeouts still default.
func TestHeartbeatValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Heartbeat.Enabled = true
	cfg.Heartbeat.Interval = 10 * time.Millisecond
	cfg.Heartbeat.SuspectAfter = 30 * time.Millisecond
	cfg.Heartbeat.DeadAfter = 30 * time.Millisecond // == SuspectAfter: invalid
	if err := Validate(cfg); err == nil {
		t.Fatal("Validate accepted DeadAfter == SuspectAfter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New accepted DeadAfter == SuspectAfter")
			}
		}()
		New(cfg)
	}()

	cfg.Heartbeat.DeadAfter = 0 // defaulted: valid
	if err := Validate(cfg); err != nil {
		t.Fatalf("Validate rejected defaulted DeadAfter: %v", err)
	}
	cfg.Heartbeat.DeadAfter = 90 * time.Millisecond
	if err := Validate(cfg); err != nil {
		t.Fatalf("Validate rejected DeadAfter > SuspectAfter: %v", err)
	}
}

func sortRecs(rs []record.Record) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Key != rs[b].Key {
			return rs[a].Key < rs[b].Key
		}
		va, _ := rs[a].Value.(int64)
		vb, _ := rs[b].Value.(int64)
		return va < vb
	})
}

// TestReplaySubmitOrderDeterminism: a job is in flight at the crash (so it
// replays from the journal), two more are buffered during the downtime, and
// a fourth arrives at the restart instant — right after replay kicked off
// the recovered work. The recovery contract says resubmission preserves
// submit order: journaled jobs first (by id), then the downtime buffer in
// arrival order, then post-restart arrivals; with equally sized jobs the
// completion order must equal the submit order, and the whole interleaving
// must replay bit-identically run over run.
func TestReplaySubmitOrderDeterminism(t *testing.T) {
	type done struct {
		label string
		count int64
		at    time.Duration
	}
	run := func() []done {
		e := New(driverTestConfig())
		g := e.Graph()
		src := g.Source("src", dataset(400, 8), true)
		var out []done
		submit := func(label string, bucket int64) {
			f := g.Filter(src, label, func(r record.Record) bool {
				v, _ := record.AsInt64(r.Value)
				return v%4 == bucket
			})
			pb := g.PartitionBy(f, label+"-pb", partition.NewHash(8))
			e.SubmitJob(pb, ActionCount, func(r JobResult) {
				if r.Err != nil {
					t.Errorf("job %s: %v", label, r.Err)
				}
				out = append(out, done{label, r.Count, e.Now()})
			})
		}
		submit("A", 0) // in flight at the crash; recovered via journal replay
		e.Loop().At(time.Millisecond, func() { e.CrashDriver(0) })
		e.Loop().At(2*time.Millisecond, func() { submit("B", 1) }) // buffered
		e.Loop().At(3*time.Millisecond, func() { submit("C", 2) }) // buffered
		e.Loop().At(5*time.Millisecond, func() { e.RestartDriver() })
		// Same virtual instant as the restart, registered after it: the
		// submission lands mid-replay, while recovered work is dispatching.
		e.Loop().At(5*time.Millisecond, func() { submit("D", 3) })
		e.Loop().Run()
		if rec := e.Recovery(); rec.JournalRecordsReplayed == 0 {
			t.Error("restart replayed no journal records")
		}
		return out
	}

	first := run()
	if len(first) != 4 {
		t.Fatalf("completed %d jobs, want 4", len(first))
	}
	for i, want := range []string{"A", "B", "C", "D"} {
		if first[i].label != want {
			t.Fatalf("completion order %v does not preserve submit order (want A B C D)", first)
		}
	}
	for _, d := range first {
		if d.count != 100 {
			t.Fatalf("job %s count = %d, want 100", d.label, d.count)
		}
	}
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay not deterministic:\n  first:  %v\n  second: %v", first, second)
	}
}

// TestEveryEngineFieldIsClassified: every field of Engine is either inside
// driverMemory — a driver crash forgets it — or listed here with the reason
// it survives. A field added later fails this test until someone decides.
func TestEveryEngineFieldIsClassified(t *testing.T) {
	survives := map[string]string{
		"cfg":            "configuration: the restarted driver starts from the same settings",
		"loop":           "the simulation's clock and event queue, not a process's memory",
		"cl":             "executors, their caches and their slots are other processes",
		"store":          "persistent shuffle and checkpoint storage; reconcileStore squares it with the journal",
		"graph":          "the lineage graph lives in the client application (DESIGN §12, client-side state)",
		"repl":           "not reset at the parent either: its replica counts already drift from locality's (ROADMAP finding), resetting it moves virtual metrics",
		"nsIDs":          "interned names keying the cluster's unit index and repl, both of which survive",
		"jobSeq":         "id counter: post-restart jobs must not reuse the ids of client-held handles",
		"taskSeq":        "id counter: post-restart tasks must not collide with results still in flight",
		"offers":         "scratch, rebuilt in place by every remoteOffers call",
		"offerUnits":     "scratch, rebuilt in place by every remoteOffers call",
		"inj":            "the fault injector is the harness, armed on the loop",
		"recMu":          "a lock",
		"rec":            "recovery counters measure across crashes (DriverCrashes is one of them)",
		"cacheRec":       "cache counters measure across crashes",
		"dagPol":         "the policy object is installed in the executors' stores; CrashDriver resets its refcount table through ResetRefs",
		"oomArmed":       "executor-side OOM windows, armed and disarmed by the injector",
		"evictedEver":    "measurement: which blocks executor caches ever evicted, for the recompute counter",
		"net":            "the network and the messages in flight on it",
		"hb":             "normalized heartbeat configuration",
		"activeJobs":     "counts the client-held in-flight jobs of jobTab, which survive",
		"beatArmed":      "executor-side heartbeat timers keep firing while the driver is down",
		"lastBeat":       "overwritten for every executor by RestartDriver's re-handshake",
		"execView":       "overwritten for every executor by RestartDriver's re-handshake",
		"execEpoch":      "the incarnation fence: bumped at restart, never reset, so pre-crash results are rejected",
		"incSeen":        "refreshed at re-handshake for live executors; a dead one's last incarnation must be kept to notice its rebirth",
		"jrn":            "the journal is what survives by design",
		"driverDown":     "set by the crash itself",
		"driverGen":      "bumped by the crash itself to void pre-crash timer closures",
		"pendingJrn":     "filled during downtime, flushed at restart",
		"pendingJobs":    "filled during downtime, submitted at restart",
		"jobTab":         "client-held job handles (DESIGN §12, client-side state)",
		"closed":         "Close is terminal",
		"closeErr":       "Close is terminal",
		"nsPartitioners": "client-side partitioner objects replay re-attaches to",
		"restartHooks":   "client-registered callbacks",
		"resumeEpoch":    "opened by the crash itself",
		"batch":          "data-plane work already dispatched runs executor-side and reports into the fence",
		"draining":       "guards the drain of batch",
		"par":            "worker-pool width, configuration",
		"completed":      "measurement: finished jobs' metrics",
		"stats":          "measurement",
		"rng":            "the seeded scheduler stream continues; restarting it would replay draws",
		"tracer":         "observer installed by the client",
	}
	memory := reflect.TypeOf(driverMemory{})
	engine := reflect.TypeOf((*Engine)(nil)).Elem()
	embedded := false
	seen := make(map[string]bool)
	for i := 0; i < engine.NumField(); i++ {
		f := engine.Field(i)
		if f.Anonymous && f.Type == memory {
			embedded = true
			continue
		}
		seen[f.Name] = true
		if survives[f.Name] == "" {
			t.Errorf("Engine.%s is neither inside driverMemory nor in the survives table: decide whether a driver crash forgets it", f.Name)
		}
	}
	if !embedded {
		t.Fatal("Engine does not embed driverMemory")
	}
	for name := range survives {
		if !seen[name] {
			t.Errorf("the survives table lists %q, which is not a field of Engine", name)
		}
	}
	for i := 0; i < memory.NumField(); i++ {
		if name := memory.Field(i).Name; seen[name] {
			t.Errorf("Engine.%s shadows driverMemory.%s: the crash would reset a field nothing reads", name, name)
		}
	}
}

// TestCrashDriverForgetsDriverMemory: after a crash on a busy driver —
// queued and running tasks, a shuffle in flight, a blacklisted executor, a
// registered namespace — driver memory is exactly a new driver's.
func TestCrashDriverForgetsDriverMemory(t *testing.T) {
	cfg := driverTestConfig()
	cfg.Features.CoLocality = true
	e := New(cfg)
	p := partition.NewHash(8)
	if err := e.RegisterNamespace("ns", p, 1); err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	pb := g.PartitionBy(g.Source("src", dataset(640, 32), true), "pb", p) // 32 map tasks on 8 slots
	var got int64
	e.SubmitJob(pb, ActionCount, func(r JobResult) { got = r.Count })
	crashed := false
	e.Loop().At(time.Millisecond, func() {
		for i := 0; i < e.cfg.Recovery.BlacklistThreshold; i++ {
			e.noteExecutorFailure(3)
		}
		queued := len(e.prefPending) + len(e.plainPending) - e.plainHead
		if queued == 0 || len(e.running) == 0 || len(e.shuffleStages) == 0 ||
			len(e.Blacklisted()) != 1 || !e.loc.Registered("ns") || e.nsParts["ns"] != 8 {
			t.Errorf("driver not busy before the crash: queued=%d running=%d shuffles=%d blacklisted=%v",
				queued, len(e.running), len(e.shuffleStages), e.Blacklisted())
		}
		e.CrashDriver(0)
		if !reflect.DeepEqual(e.driverMemory, newDriverMemory(e.cfg)) {
			t.Errorf("driver memory after a crash differs from a new driver's:\n got %+v\nwant %+v",
				e.driverMemory, newDriverMemory(e.cfg))
		}
		crashed = true
	})
	e.Loop().At(3*time.Millisecond, func() { e.RestartDriver() })
	e.Loop().Run()
	if !crashed {
		t.Fatal("the crash never ran")
	}
	if got != 640 {
		t.Fatalf("count after restart = %d, want 640", got)
	}
}
