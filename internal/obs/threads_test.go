package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/apps/kv"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/threads"
)

// reuseProbe is a Collector that also counts the thread creations it is
// shown on a descriptor it has seen before.
type reuseProbe struct {
	*Collector
	seen   map[*threads.Thread]bool
	reused int
}

func (p *reuseProbe) ThreadCreated(t sim.Time, node int, th *threads.Thread) {
	if p.seen[th] {
		p.reused++
	}
	p.seen[th] = true
	p.Collector.ThreadCreated(t, node, th)
}

// TestThreadSpansUnderRecycling: thread descriptors are recycled, so the
// pointer the collector keys a thread's async span by names many threads in
// turn, and deleting the key at ThreadExited is what keeps their spans
// apart. On the cell `oamlab -quick trace kv` runs: every thread it is shown
// exits (the retransmit daemons start before it attaches), so when the run
// ends no key is left, and every begin has one end, under the same name.
func TestThreadSpansUnderRecycling(t *testing.T) {
	c := New(Options{Trace: true})
	p := &reuseProbe{Collector: c, seen: make(map[*threads.Thread]bool)}
	cfg := kv.Config{System: apps.ORPC, Seed: 105, Servers: 2, Clients: 6,
		Duration: sim.Micros(5000), Probe: c}
	cfg.Observe = func(u *am.Universe, rt *rpc.Runtime) {
		c.Attach(u, rt)
		for i := 0; i < u.N(); i++ {
			u.Scheduler(i).SetProbe(p)
		}
	}
	if _, _, err := kv.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if p.reused == 0 {
		t.Fatal("no descriptor was recycled: the run does not test what it is for")
	}
	for th := range c.threadID {
		t.Errorf("thread %q is still keyed at the end: its key belongs to an earlier tenant", th.Name())
	}

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			ID            any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	open := map[any]string{} // span id -> name, begun and not yet ended
	begun := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "thread" {
			continue
		}
		switch ev.Ph {
		case "b":
			if _, dup := open[ev.ID]; dup {
				t.Errorf("span %v begun twice", ev.ID)
			}
			open[ev.ID] = ev.Name
			begun++
		case "e":
			if name, ok := open[ev.ID]; !ok || name != ev.Name {
				t.Errorf("span %v ends as %q, begun as %q (%v)", ev.ID, ev.Name, name, ok)
			}
			delete(open, ev.ID)
		}
	}
	for id, name := range open {
		t.Errorf("span %v of thread %q never ends", id, name)
	}
	t.Logf("%d thread spans, %d of them on a recycled descriptor", begun, p.reused)
}
