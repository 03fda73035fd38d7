package vtime

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30*time.Millisecond, func() { got = append(got, 3) })
	l.At(10*time.Millisecond, func() { got = append(got, 1) })
	l.At(20*time.Millisecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", l.Now())
	}
}

func TestLoopTieBreakBySubmission(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(time.Second, func() { got = append(got, i) })
	}
	l.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestLoopAfterAndNesting(t *testing.T) {
	l := NewLoop()
	var fired []time.Duration
	l.After(5*time.Millisecond, func() {
		fired = append(fired, l.Now())
		l.After(5*time.Millisecond, func() {
			fired = append(fired, l.Now())
		})
	})
	l.Run()
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 10*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestLoopPastClampsToNow(t *testing.T) {
	l := NewLoop()
	l.At(10*time.Millisecond, func() {
		l.At(time.Millisecond, func() {
			if l.Now() != 10*time.Millisecond {
				t.Errorf("past event ran at %v", l.Now())
			}
		})
	})
	l.Run()
}

func TestRunUntil(t *testing.T) {
	l := NewLoop()
	ran := 0
	l.At(time.Second, func() { ran++ })
	l.At(2*time.Second, func() { ran++ })
	l.At(3*time.Second, func() { ran++ })
	l.RunUntil(2 * time.Second)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if l.Now() != 2*time.Second {
		t.Fatalf("Now = %v", l.Now())
	}
	if len(l.pq) != 1 {
		t.Fatalf("pending = %d, want 1", len(l.pq))
	}
	l.RunUntil(10 * time.Second)
	if ran != 3 || l.Now() != 10*time.Second {
		t.Fatalf("ran = %d now = %v", ran, l.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	l := NewLoop()
	if l.Step() {
		t.Fatal("Step on empty loop reported true")
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	l := NewLoop()
	ran := false
	l.After(-5*time.Second, func() { ran = true })
	l.Run()
	if !ran || l.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, l.Now())
	}
}

// scheduler is the surface TestLoopMatchesNaiveOrder drives on both the
// heap loop and the reference.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	After(d time.Duration, fn func())
	AtArg(t time.Duration, fn func(any), arg any)
	Step() bool
	RunUntil(t time.Duration)
}

// naiveLoop is the reference: every Step stable-sorts the pending events by
// (deadline, insertion sequence) and runs the first.
type naiveLoop struct {
	now     time.Duration
	seq     uint64
	pending []event
}

func (n *naiveLoop) Now() time.Duration { return n.now }

func (n *naiveLoop) AtArg(t time.Duration, fn func(any), arg any) {
	if t < n.now {
		t = n.now
	}
	n.seq++
	n.pending = append(n.pending, event{at: t, seq: n.seq, fn: fn, arg: arg})
}

func (n *naiveLoop) At(t time.Duration, fn func()) { n.AtArg(t, callClosure, fn) }

func (n *naiveLoop) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.At(n.now+d, fn)
}

func (n *naiveLoop) Step() bool {
	if len(n.pending) == 0 {
		return false
	}
	slices.SortStableFunc(n.pending, func(a, b event) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	ev := n.pending[0]
	n.pending = n.pending[1:]
	n.now = ev.at
	ev.fn(ev.arg)
	return true
}

func (n *naiveLoop) RunUntil(t time.Duration) {
	for {
		i := slices.IndexFunc(n.pending, func(ev event) bool { return ev.at <= t })
		if i < 0 {
			break
		}
		n.Step()
	}
	if n.now < t {
		n.now = t
	}
}

// fired is one executed event of a drive: which event, and when.
type fired struct {
	id int
	at time.Duration
}

// drive runs one seeded random program against s: rounds of At, After,
// AtArg and past-clamped scheduling over a few distinct deadlines (so most
// events tie), handlers that schedule children at the current instant or
// later, and interleaved Step and RunUntil calls, then drains. The RNG is
// consumed in execution order, so any divergence in order compounds.
func drive(s scheduler, seed int64) []fired {
	rng := rand.New(rand.NewSource(seed))
	var out []fired
	next := 0
	var spawn func(depth int)
	onArg := func(a any) { a.(func())() }
	spawn = func(depth int) {
		id := next
		next++
		run := func() {
			out = append(out, fired{id, s.Now()})
			if depth < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					spawn(depth + 1)
				}
			}
		}
		d := time.Duration(rng.Intn(3)) * time.Millisecond
		switch rng.Intn(4) {
		case 0:
			s.At(s.Now()+d, run)
		case 1:
			s.After(d, run)
		case 2:
			s.AtArg(s.Now()+d, onArg, run)
		default:
			s.At(s.Now()-d, run) // in the past: clamps to now
		}
	}
	for round := 0; round < 60; round++ {
		for k := rng.Intn(5); k > 0; k-- {
			spawn(0)
		}
		switch rng.Intn(3) {
		case 0:
			s.RunUntil(s.Now() + time.Duration(rng.Intn(3))*time.Millisecond)
		case 1:
			s.Step()
		}
	}
	for s.Step() {
	}
	return out
}

// TestLoopMatchesNaiveOrder checks the heap loop against a reference that
// stable-sorts its pending events by (deadline, insertion sequence) before
// every step: over seeded random programs with many equal deadlines, nested
// scheduling and RunUntil, both run the same events at the same times in
// the same order.
func TestLoopMatchesNaiveOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := drive(NewLoop(), seed)
		want := drive(&naiveLoop{}, seed)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: event %d is %+v, reference runs %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: ran %d events, reference ran %d", seed, len(got), len(want))
		}
		if len(got) < 50 {
			t.Fatalf("seed %d: only %d events ran; the program exercises too little", seed, len(got))
		}
	}
}

// TestStepAllocatesNothing: once the heap has grown, scheduling a bound
// handler with a pointer argument and stepping it allocates nothing, at a
// heap depth where every push and pop sifts.
func TestStepAllocatesNothing(t *testing.T) {
	l := NewLoop()
	n := new(int)
	h := func(a any) { *a.(*int)++ }
	for i := 0; i < 64; i++ {
		l.AfterArg(time.Duration(i)*time.Microsecond, h, n)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		l.AfterArg(time.Millisecond, h, n)
		l.Step()
	}); avg != 0 {
		t.Fatalf("AfterArg + Step allocates %.2f/op, want 0", avg)
	}
	if *n == 0 {
		t.Fatal("no handler ran")
	}
}

var loopSink int

// BenchmarkLoopAtStep measures one event's round trip, schedule plus step,
// at a steady heap depth of 1024 pending events.
func BenchmarkLoopAtStep(b *testing.B) {
	l := NewLoop()
	h := func(a any) { loopSink += *a.(*int) }
	one := new(int)
	*one = 1
	for i := 0; i <= 1024; i++ {
		l.AfterArg(time.Duration(i), h, one)
	}
	l.Step() // the heap keeps its grown capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AfterArg(time.Duration(1024+i%1024), h, one)
		l.Step()
	}
}
