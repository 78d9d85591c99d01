package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the benchmark's own spans in memory — workload > rep >
// {build, run, shutdown, check} and ladder > rung — and writes them as
// Chrome trace-event JSON when the run ends. Spans are recorded from the
// benchmark's files only, around its calls into the program. A nil
// tracer records nothing.
type tracer struct {
	origin time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // microseconds since the trace began
	Dur  float64   `json:"dur"` // microseconds
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // 0 for a root span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span records a finished span and returns its id for use as a parent.
func (t *tracer) span(name string, start time.Time, dur time.Duration, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.events) + 1
	t.events = append(t.events, traceEvent{
		Name: name, Ph: "X", Pid: 1, Tid: 1,
		Ts:   float64(start.Sub(t.origin)) / 1e3,
		Dur:  float64(dur) / 1e3,
		Args: traceArgs{ID: id, Parent: parent},
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name string, start time.Time, parent int) int {
	return t.span(name, start, 0, parent)
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil {
		return
	}
	ev := &t.events[id-1]
	ev.Dur = float64(at.Sub(t.origin))/1e3 - ev.Ts
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{t.events, "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
