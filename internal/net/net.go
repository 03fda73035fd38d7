// Package net simulates the control-plane transport between the driver and
// the executors: task launches, task results, and heartbeats all cross a
// Network before they take effect. (Block-fetch acknowledgements ride inside
// task results in this model — the data plane charges transfer time through
// the cost model, the control plane decides *whether* the driver learns of
// it.) The network runs on the virtual clock and is seed-deterministic:
// delay jitter comes from a private RNG, while message drops (through the
// fault hook) and partitions are decided by the fault injector, so two runs
// with equal seeds see byte-identical delivery orders.
//
// The zero-value Config is the "perfect" network: no delay, no jitter, no
// drops. A perfect, partition-free send delivers synchronously in the same
// loop event as the sender, which keeps zero-config engine behaviour
// byte-identical to an engine without a transport layer at all.
package net

import (
	"math/rand"
	"time"

	"stark/internal/vtime"
)

// Driver is the node id of the driver endpoint. Executor endpoints use
// their executor ids (>= 0).
const Driver = -1

// Kind classifies a control-plane message.
type Kind int

// Message kinds.
const (
	TaskLaunch Kind = iota
	TaskResult
	Heartbeat
)

// String names the kind for traces.
func (k Kind) String() string {
	switch k {
	case TaskLaunch:
		return "task-launch"
	case TaskResult:
		return "task-result"
	case Heartbeat:
		return "heartbeat"
	}
	return "unknown"
}

// Config parameterizes the simulated network.
type Config struct {
	// BaseDelay is the one-way latency of every control message; Jitter
	// adds a uniform random extra in [0, Jitter).
	BaseDelay time.Duration
	Jitter    time.Duration
}

// maxRetransmits bounds retransmission attempts of a reliable message:
// enough doubling timeouts to ride out any partition the chaos schedules
// generate.
const maxRetransmits = 12

// Stats counts transport activity.
type Stats struct {
	Sent           int // send attempts, including retransmissions
	Delivered      int
	Dropped        int // fault-hook losses
	PartitionDrops int // losses because an endpoint was partitioned
	Retransmits    int
	Expired        int // reliable messages abandoned after maxRetransmits
}

// Network is the simulated transport. It is driven entirely from the
// single-threaded event loop and is not safe for concurrent use.
type Network struct {
	cfg  Config
	loop *vtime.Loop
	// rto is the initial retransmission timeout for reliable messages; it
	// doubles per attempt.
	rto time.Duration
	// rng draws delay jitter.
	rng *rand.Rand
	// part holds the executors currently partitioned from the driver
	// (bidirectionally: traffic both ways is blocked).
	part map[int]bool
	// extra is a fault-injected delay added to every delivered message
	// (delayed-heartbeat windows).
	extra time.Duration
	// hook, when set, may drop a message attempt (fault injection).
	hook  func(Kind) bool
	stats Stats
}

// New builds a network on the loop whose jitter draws come from seed. A
// zero Config yields a perfect network.
func New(cfg Config, seed int64, loop *vtime.Loop) *Network {
	return &Network{
		cfg:  cfg,
		loop: loop,
		rto:  2*(cfg.BaseDelay+cfg.Jitter) + time.Millisecond,
		rng:  rand.New(rand.NewSource(seed)),
		part: make(map[int]bool),
	}
}

// Stats returns the transport counters so far.
func (n *Network) Stats() Stats { return n.stats }

// SetFaultHook installs (or, with nil, removes) the injector's per-message
// drop hook.
func (n *Network) SetFaultHook(h func(Kind) bool) { n.hook = h }

// Partition cuts an executor off from the driver in both directions; new
// sends touching it are lost until Heal.
func (n *Network) Partition(exec int) { n.part[exec] = true }

// Heal reconnects a partitioned executor.
func (n *Network) Heal(exec int) { delete(n.part, exec) }

// SetExtraDelay adds d to every subsequent delivery (0 restores normal
// latency) — the delayed-heartbeat fault window.
func (n *Network) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n.extra = d
}

// Send transmits one control message from node `from` to node `to` and
// calls deliver(arg) when (and if) it arrives. Reliable messages retransmit
// with doubling timeouts while lost; unreliable ones are fire-and-forget.
// A perfect, unpartitioned, undelayed send delivers synchronously, so the
// zero-config network is invisible to the event order. A delivery handler
// bound once with a pointer argument makes a delivered send allocate
// nothing; only a retransmission builds a closure.
func (n *Network) Send(from, to int, kind Kind, reliable bool, deliver func(any), arg any) {
	n.send(from, to, kind, reliable, 0, deliver, arg)
}

func (n *Network) send(from, to int, kind Kind, reliable bool, attempt int, deliver func(any), arg any) {
	n.stats.Sent++
	blocked := (from >= 0 && n.part[from]) || (to >= 0 && n.part[to])
	dropped := blocked
	if !dropped && n.hook != nil && n.hook(kind) {
		dropped = true
	}
	if dropped {
		if blocked {
			n.stats.PartitionDrops++
		} else {
			n.stats.Dropped++
		}
		if !reliable {
			return
		}
		if attempt >= maxRetransmits {
			n.stats.Expired++
			return
		}
		n.stats.Retransmits++
		//starklint:ignore hotalloc a retransmission follows a lost message, which only injected faults and partitions cause; the delivered path builds no closure
		n.loop.After(n.rto<<uint(attempt), func() { n.send(from, to, kind, reliable, attempt+1, deliver, arg) })
		return
	}
	d := n.cfg.BaseDelay + n.extra
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	n.stats.Delivered++
	if d <= 0 {
		deliver(arg)
		return
	}
	n.loop.AfterArg(d, deliver, arg)
}
