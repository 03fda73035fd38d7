package vtime

import (
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
