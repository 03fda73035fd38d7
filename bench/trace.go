package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"stark"
)

// span is one timed interval of the traced run: a bench→API call, or a job
// or stage reported by the engine's SetTracer sink and stamped with the
// bench clock.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index into tracer.spans, -1 for a root
	iter       int
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil *tracer is the untraced run: every method returns at once without
// reading the clock.
type tracer struct {
	spans []span
	open  []int // stack of bench spans currently open
	iter  int

	// Engine ids are per context, so the maps are reset by attach.
	jobs   map[int]int
	stages map[[2]int]int
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := t.record(name, t.top())
	t.open = append(t.open, id)
	return id
}

// top is the innermost open bench span, -1 when none is open.
func (t *tracer) top() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// record appends a span that starts, and for now ends, at this instant.
func (t *tracer) record(name string, parent int) int {
	at := now()
	t.spans = append(t.spans, span{name: name, start: at, end: at, parent: parent, iter: t.iter})
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = now()
	t.open = t.open[:len(t.open)-1]
}

// attach installs the engine trace sink on a fresh context: job-submit to
// job-finish becomes an engine.job span under whichever bench span is open,
// stage-start to the stage's last task-finish an engine.stage span under its
// job.
func (t *tracer) attach(ctx *stark.Context) {
	if t == nil {
		return
	}
	t.jobs = map[int]int{}
	t.stages = map[[2]int]int{}
	ctx.SetTracer(func(ev stark.TraceEvent) {
		switch ev.Kind {
		case "job-submit":
			t.jobs[ev.Job] = t.record("engine.job", t.top())
		case "job-finish":
			if id, ok := t.jobs[ev.Job]; ok {
				t.spans[id].end = now()
			}
		case "stage-start":
			if parent, ok := t.jobs[ev.Job]; ok {
				t.stages[[2]int{ev.Job, ev.Stage}] = t.record("engine.stage", parent)
			}
		case "task-finish":
			if id, ok := t.stages[[2]int{ev.Job, ev.Stage}]; ok {
				t.spans[id].end = now()
			}
		}
	})
}

// durations returns the length of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes reports, per span name, total duration and self time: a span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := map[string][2]time.Duration{}
	for i, s := range t.spans {
		d := s.end - s.start
		self := d - covered[i]
		if self < 0 { // concurrent children (open-loop jobs) can cover more than the parent
			self = 0
		}
		v := out[s.name]
		out[s.name] = [2]time.Duration{v[0] + d, v[1] + self}
	}
	return out
}

// printSelfTimes writes the per-layer total/self table of the traced run.
func (t *tracer) printSelfTimes() {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-22s %12s %12s\n", "span", "total ms", "self ms")
	for _, n := range names {
		fmt.Printf("  %-22s %12.2f %12.2f\n", n, ms(st[n][0]), ms(st[n][1]))
	}
}

// writeChrome writes the spans in Chrome trace-event form (open with
// chrome://tracing or ui.perfetto.dev). Bench spans go on thread 1, engine
// jobs and stages on thread 2, because open-loop jobs overlap.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		tid := 1
		if s.name == "engine.job" || s.name == "engine.stage" {
			tid = 2
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.parent, "iter": s.iter},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
