package net

import (
	"math/rand"
	"testing"
	"time"

	"stark/internal/vtime"
)

func TestPerfectNetworkDeliversSynchronously(t *testing.T) {
	loop := vtime.NewLoop()
	n := New(Config{}, 1, loop)
	delivered := false
	n.Send(Driver, 2, TaskLaunch, true, func(any) { delivered = true }, nil)
	if !delivered {
		t.Fatal("perfect network must deliver in the same event, without stepping the loop")
	}
	if got := n.Stats(); got.Sent != 1 || got.Delivered != 1 || got.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 sent, 1 delivered", got)
	}
}

func TestDelayedDeliveryOnTheClock(t *testing.T) {
	loop := vtime.NewLoop()
	n := New(Config{BaseDelay: 3 * time.Millisecond}, 1, loop)
	var at time.Duration = -1
	n.Send(0, Driver, TaskResult, true, func(any) { at = loop.Now() }, nil)
	if at != -1 {
		t.Fatal("delayed message delivered synchronously")
	}
	loop.Run()
	if at != 3*time.Millisecond {
		t.Fatalf("delivered at %v, want 3ms", at)
	}
}

func TestPartitionBlocksAndReliableRetransmitSurvivesHeal(t *testing.T) {
	loop := vtime.NewLoop()
	n := New(Config{}, 1, loop)
	n.Partition(1)

	hbDelivered := false
	n.Send(1, Driver, Heartbeat, false, func(any) { hbDelivered = true }, nil)

	resultDelivered := false
	n.Send(1, Driver, TaskResult, true, func(any) { resultDelivered = true }, nil)

	// Heal after a few retransmission timeouts have elapsed.
	loop.After(5*time.Millisecond, func() { n.Heal(1) })
	loop.Run()

	if hbDelivered {
		t.Fatal("unreliable heartbeat must be lost during a partition")
	}
	if !resultDelivered {
		t.Fatal("reliable task result must retransmit through the partition and deliver after heal")
	}
	st := n.Stats()
	if st.PartitionDrops == 0 || st.Retransmits == 0 {
		t.Fatalf("stats = %+v, want partition drops and retransmits", st)
	}
}

func TestReliableSendExpiresUnderPermanentPartition(t *testing.T) {
	loop := vtime.NewLoop()
	n := New(Config{}, 1, loop)
	n.Partition(4)
	delivered := false
	n.Send(Driver, 4, TaskLaunch, true, func(any) { delivered = true }, nil)
	loop.Run()
	if delivered {
		t.Fatal("message delivered through a permanent partition")
	}
	if st := n.Stats(); st.Expired != 1 || st.Retransmits != maxRetransmits || st.PartitionDrops != maxRetransmits+1 {
		t.Fatalf("stats = %+v, want %d retransmits then 1 expiry", st, maxRetransmits)
	}
	// The doubling timeouts sum to (2^12 - 1) initial RTOs of 1ms each.
	if want := time.Duration(1<<maxRetransmits-1) * time.Millisecond; loop.Now() != want {
		t.Fatalf("expired at %v, want %v", loop.Now(), want)
	}
}

func TestDropAndJitterAreSeedDeterministic(t *testing.T) {
	runOnce := func() ([]time.Duration, Stats) {
		loop := vtime.NewLoop()
		n := New(Config{BaseDelay: time.Millisecond, Jitter: 2 * time.Millisecond}, 99, loop)
		drops := rand.New(rand.NewSource(7))
		n.SetFaultHook(func(Kind) bool { return drops.Float64() < 0.3 })
		var arrivals []time.Duration
		for i := 0; i < 40; i++ {
			n.Send(Driver, i%4, TaskLaunch, false, func(any) {
				arrivals = append(arrivals, loop.Now())
			}, nil)
		}
		loop.Run()
		return arrivals, n.Stats()
	}
	a1, s1 := runOnce()
	a2, s2 := runOnce()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical seeds: %+v vs %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverged: %v vs %v", i, a1[i], a2[i])
		}
	}
	if s1.Dropped == 0 {
		t.Fatal("expected some drops from a 0.3 drop hook")
	}
}

func TestExtraDelayWindow(t *testing.T) {
	loop := vtime.NewLoop()
	n := New(Config{}, 1, loop)
	n.SetExtraDelay(7 * time.Millisecond)
	var at time.Duration = -1
	n.Send(0, Driver, Heartbeat, false, func(any) { at = loop.Now() }, nil)
	loop.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("delivered at %v, want the injected 7ms extra delay", at)
	}
	n.SetExtraDelay(0)
	sync := false
	n.Send(0, Driver, Heartbeat, false, func(any) { sync = true }, nil)
	if !sync {
		t.Fatal("clearing the extra delay must restore synchronous delivery")
	}
}
