package fault

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"stark/internal/vtime"
)

// recorder implements System and logs delivered faults in order.
type recorder struct {
	log []string
}

func (r *recorder) KillExecutor(id int)    { r.log = append(r.log, "kill") }
func (r *recorder) RestartExecutor(id int) { r.log = append(r.log, "restart") }
func (r *recorder) SetStraggler(id int, factor float64) {
	if factor > 1 {
		r.log = append(r.log, "slow")
	} else {
		r.log = append(r.log, "restore")
	}
}

// blockKind names the block a LoseBlock or CorruptBlock call asked for.
func blockKind(checkpoint bool) string {
	if checkpoint {
		return "checkpoint"
	}
	return "shuffle"
}

// LoseBlock finds a shuffle block to drop but no checkpoint block.
func (r *recorder) LoseBlock(checkpoint bool, pick int) bool {
	r.log = append(r.log, "drop-"+blockKind(checkpoint))
	return !checkpoint
}
func (r *recorder) PartitionExecutor(id int) { r.log = append(r.log, "partition") }
func (r *recorder) HealExecutor(id int)      { r.log = append(r.log, "heal") }
func (r *recorder) SetNetDelay(extra time.Duration) {
	if extra > 0 {
		r.log = append(r.log, "delay")
	} else {
		r.log = append(r.log, "undelay")
	}
}
func (r *recorder) CorruptBlock(checkpoint bool, pick int) bool {
	r.log = append(r.log, "corrupt-"+blockKind(checkpoint))
	return true
}
func (r *recorder) CrashDriver(tearTail int) { r.log = append(r.log, "driver-crash") }
func (r *recorder) RestartDriver()           { r.log = append(r.log, "driver-restart") }
func (r *recorder) SetMemPressure(id int, factor float64) {
	if factor < 1 {
		r.log = append(r.log, "squeeze")
	} else {
		r.log = append(r.log, "unsqueeze")
	}
}
func (r *recorder) SetOOMWindow(id int, armed bool) {
	if armed {
		r.log = append(r.log, "oom-arm")
	} else {
		r.log = append(r.log, "oom-disarm")
	}
}

func TestArmDeliversScheduleInOrder(t *testing.T) {
	s := Schedule{
		Crashes:    []Crash{{At: 10 * time.Millisecond, Executor: 1, RestartAfter: 20 * time.Millisecond}},
		Stragglers: []Straggler{{At: 5 * time.Millisecond, For: 40 * time.Millisecond, Executor: 2, Factor: 3}},
		BlockLoss: []BlockLoss{
			{At: 15 * time.Millisecond, Checkpoint: false, Pick: 7},
			{At: 25 * time.Millisecond, Checkpoint: true, Pick: 1},
		},
	}
	loop := vtime.NewLoop()
	rec := &recorder{}
	in := New(s)
	in.Arm(loop, rec)
	loop.Run()
	want := []string{"slow", "kill", "drop-shuffle", "drop-checkpoint", "restart", "restore"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("delivery order = %v, want %v", rec.log, want)
	}
	st := in.Stats()
	if st.Crashes != 1 || st.Restarts != 1 || st.Stragglers != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BlocksDropped != 1 || st.MissedDrops != 1 {
		t.Fatalf("block stats = %+v", st)
	}
}

func TestStorageOpDeterministicPerSeed(t *testing.T) {
	roll := func(seed int64) []bool {
		in := New(Schedule{Seed: seed, StorageErrorProb: 0.3})
		out := make([]bool, 200)
		for i := range out {
			err := in.StorageOp("shuffle-read")
			out[i] = err != nil
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("error %v does not wrap ErrInjected", err)
			}
		}
		return out
	}
	if !reflect.DeepEqual(roll(42), roll(42)) {
		t.Fatal("same seed produced different error sequences")
	}
	if reflect.DeepEqual(roll(42), roll(43)) {
		t.Fatal("different seeds produced identical 200-roll sequences")
	}
}

func TestStorageOpZeroProbNeverFails(t *testing.T) {
	in := New(Schedule{Seed: 9})
	for i := 0; i < 100; i++ {
		if err := in.StorageOp("x"); err != nil {
			t.Fatalf("injected error with zero probability: %v", err)
		}
	}
	if in.Stats().StorageRolls != 0 {
		t.Fatal("zero-probability ops should not consume rng rolls")
	}
}

func TestRandomScheduleDeterministicAndSafe(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := RandomSchedule(seed, 2*time.Second, 8)
		b := RandomSchedule(seed, 2*time.Second, 8)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		for _, c := range a.Crashes {
			if c.Executor == 0 {
				t.Fatalf("seed %d: crash targets executor 0", seed)
			}
			if c.RestartAfter <= 0 {
				t.Fatalf("seed %d: crash without restart", seed)
			}
			if c.At < 0 || c.At > 2*time.Second {
				t.Fatalf("seed %d: crash outside horizon at %v", seed, c.At)
			}
		}
		if a.Empty() {
			t.Fatalf("seed %d: empty schedule", seed)
		}
	}
	if reflect.DeepEqual(RandomSchedule(1, time.Second, 8), RandomSchedule(2, time.Second, 8)) {
		t.Fatal("adjacent seeds produced identical schedules")
	}
}

func TestArmDeliversNetworkFaults(t *testing.T) {
	s := Schedule{
		Partitions: []Partition{{At: 10 * time.Millisecond, For: 30 * time.Millisecond, Executor: 2}},
		NetDelays:  []NetDelay{{At: 5 * time.Millisecond, For: 10 * time.Millisecond, Extra: 20 * time.Millisecond}},
		BlockCorrupt: []BlockCorrupt{
			{At: 20 * time.Millisecond, Checkpoint: true, Pick: 3},
			{At: 25 * time.Millisecond, Checkpoint: false, Pick: 0},
		},
	}
	loop := vtime.NewLoop()
	rec := &recorder{}
	in := New(s)
	in.Arm(loop, rec)
	loop.Run()
	want := []string{"delay", "partition", "undelay", "corrupt-checkpoint", "corrupt-shuffle", "heal"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("delivery order = %v, want %v", rec.log, want)
	}
	st := in.Stats()
	if st.Partitions != 1 || st.Heals != 1 || st.DelayWindows != 1 || st.BlocksCorrupted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWithNetFaultsDeterministicAndSafe(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		base := RandomSchedule(seed, 2*time.Second, 8)
		a := base.WithNetFaults(seed, 2*time.Second, 8)
		b := base.WithNetFaults(seed, 2*time.Second, 8)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: extended schedules differ", seed)
		}
		// The base draws must be untouched so schedules pinned by earlier
		// tests replay identically whether or not net faults are layered on.
		if !reflect.DeepEqual(a.Crashes, base.Crashes) || a.StorageErrorProb != base.StorageErrorProb {
			t.Fatalf("seed %d: WithNetFaults perturbed the base schedule", seed)
		}
		if len(a.Partitions) == 0 {
			t.Fatalf("seed %d: no partitions generated on an 8-executor cluster", seed)
		}
		for _, p := range a.Partitions {
			if p.Executor == 0 {
				t.Fatalf("seed %d: partition targets executor 0", seed)
			}
			if p.For <= 0 {
				t.Fatalf("seed %d: partition never heals", seed)
			}
		}
	}
}

func TestArmDeliversMemFaults(t *testing.T) {
	s := Schedule{
		MemPressures: []MemPressure{{At: 10 * time.Millisecond, For: 30 * time.Millisecond, Executor: 1, Factor: 1e-6}},
		ExecutorOOMs: []ExecutorOOM{{At: 15 * time.Millisecond, For: 10 * time.Millisecond, Executor: 1}},
	}
	loop := vtime.NewLoop()
	rec := &recorder{}
	in := New(s)
	in.Arm(loop, rec)
	loop.Run()
	want := []string{"squeeze", "oom-arm", "oom-disarm", "unsqueeze"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("delivery order = %v, want %v", rec.log, want)
	}
	st := in.Stats()
	if st.MemPressures != 1 || st.OOMWindows != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Empty() || s.Events() != 2 {
		t.Fatalf("Empty=%v Events=%d", s.Empty(), s.Events())
	}
}

func TestWithMemFaultsDeterministicAndSafe(t *testing.T) {
	var sawOOM bool
	for seed := int64(0); seed < 50; seed++ {
		base := RandomSchedule(seed, 2*time.Second, 8)
		a := base.WithMemFaults(seed, 2*time.Second, 8)
		b := base.WithMemFaults(seed, 2*time.Second, 8)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: extended schedules differ", seed)
		}
		if !reflect.DeepEqual(a.Crashes, base.Crashes) || a.StorageErrorProb != base.StorageErrorProb {
			t.Fatalf("seed %d: WithMemFaults perturbed the base schedule", seed)
		}
		if len(a.MemPressures) == 0 {
			t.Fatalf("seed %d: no mem-pressure windows generated", seed)
		}
		for _, mp := range a.MemPressures {
			if mp.For <= 0 {
				t.Fatalf("seed %d: mem-pressure window never closes", seed)
			}
			if mp.Factor < 0 || mp.Factor >= 1 {
				t.Fatalf("seed %d: shrink factor %v out of squeeze range", seed, mp.Factor)
			}
		}
		for _, oe := range a.ExecutorOOMs {
			sawOOM = true
			if oe.Executor == 0 {
				t.Fatalf("seed %d: OOM window targets executor 0", seed)
			}
			// OOM windows must stay shorter than the default cumulative
			// retry backoff (50+100+200+400ms) so retries outlast them.
			if oe.For <= 0 || oe.For > 250*time.Millisecond {
				t.Fatalf("seed %d: OOM window %v outside (0, 250ms]", seed, oe.For)
			}
			// Every OOM window must nest inside a pressure window on the
			// same executor, or it could never fire.
			var nested bool
			for _, mp := range a.MemPressures {
				if mp.Executor == oe.Executor && mp.At <= oe.At && oe.At+oe.For <= mp.At+mp.For {
					nested = true
				}
			}
			if !nested {
				t.Fatalf("seed %d: OOM window not nested in a pressure window", seed)
			}
		}
	}
	if !sawOOM {
		t.Fatal("50 seeds produced no ExecutorOOM window")
	}
}

func TestMessageOpDeterministicAndIndependentOfStorageRolls(t *testing.T) {
	roll := func() ([]bool, []bool) {
		in := New(Schedule{Seed: 11, StorageErrorProb: 0.3, MsgDropProb: 0.3})
		msgs := make([]bool, 100)
		stores := make([]bool, 100)
		for i := range msgs {
			msgs[i] = in.MessageOp()
			stores[i] = in.StorageOp("shuffle-read") != nil
		}
		return msgs, stores
	}
	m1, s1 := roll()
	m2, s2 := roll()
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different roll sequences")
	}
	// Storage rolls must match a run that never consults MessageOp.
	in := New(Schedule{Seed: 11, StorageErrorProb: 0.3, MsgDropProb: 0.3})
	for i := 0; i < 100; i++ {
		if got := in.StorageOp("shuffle-read") != nil; got != s1[i] {
			t.Fatalf("storage roll %d perturbed by interleaved message rolls", i)
		}
	}
}

func TestDescribeListsEveryEvent(t *testing.T) {
	s := RandomSchedule(5, time.Second, 8).WithNetFaults(5, time.Second, 8)
	lines := s.Describe()
	min := s.Events()
	if len(lines) < min {
		t.Fatalf("Describe returned %d lines for %d events", len(lines), min)
	}
}

func TestRandomScheduleSingleExecutor(t *testing.T) {
	s := RandomSchedule(3, time.Second, 1)
	if len(s.Crashes) != 0 {
		t.Fatal("single-executor schedule must not crash the only executor")
	}
	if s.StorageErrorProb <= 0 {
		t.Fatal("single-executor schedule should still inject transient errors")
	}
}
